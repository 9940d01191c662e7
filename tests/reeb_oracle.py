"""Two references for the Reeb families and their indices, sharing no code
with ``orbifill.reeb``.

Each class representative's eigenvalue angles are read numerically, with
numpy's ``eigvals`` of its exact matrix, and snapped to the nearest multiple
of 1/|G|: every eigenvalue of an element of G is a |G|-th root of unity. So
the F_p eigen data the library reads is not used either. On those angles
theta_j in [0, 1), the family of a class at a period T > 0 with T mod 1 an
angle has fixed dimension the multiplicity of that angle, and index

- ``closed_form``: sum_j rho(T + {-theta_j}) - 2*age, the Robbin-Salamon
  sum, with rho(a) = 2a on integers and 2*floor(a) + 1 elsewhere;
- ``walked``: n - 2*age + 2*(fixed dims of the class's earlier periods)
  + fixed_dim, the running walk along the class's periods.

The age is the sum of the angles, not the library's.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from battery import approx


def class_angles(group):
    """Each class representative's eigenvalue angles in [0, 1), sorted, with
    repetition, in class order."""
    reps = dict(group.exact(c.representative_index for c in group.classes))
    order = group.order
    out = []
    for cls in group.classes:
        mat = np.array([[approx(c) for c in row] for row in reps[cls.representative_index]])
        angles = []
        for value in np.linalg.eigvals(mat):
            scaled = cmath.phase(value) / (2 * cmath.pi) * order
            k = round(scaled)
            assert abs(scaled - k) < 1e-6 and abs(abs(value) - 1) < 1e-6, (group.name, value)
            angles.append(Fraction(k % order, order))
        out.append(sorted(angles))
    return out


def rho(a: Fraction) -> int:
    """Robbin-Salamon index of the rotation path t -> exp(2 pi i a t) on C."""
    return 2 * a.numerator if a.denominator == 1 else 2 * math.floor(a) + 1


def closed_form(angles, period: Fraction) -> Fraction:
    return sum(rho(period + (-t) % 1) for t in angles) - 2 * sum(angles)


def periods_below(angles, bound: Fraction):
    """The class's periods theta + k > 0 below the bound, ascending."""
    return sorted({t + k for t in set(angles) for k in range(math.ceil(bound) + 1)
                   if 0 < t + k < bound})


def families(group, bound: Fraction):
    """(class position, period, fixed_dim, closed-form index) of every family
    below the bound, by class and then period."""
    out = []
    for pos, angles in enumerate(class_angles(group)):
        out += [(pos, t, angles.count(t % 1), closed_form(angles, t))
                for t in periods_below(angles, bound)]
    return out


def walked(group, bound: Fraction):
    """The same families, each index from the running walk."""
    out = []
    for pos, angles in enumerate(class_angles(group)):
        index = group.dimension - 2 * sum(angles)
        for t in periods_below(angles, bound):
            fixed = angles.count(t % 1)
            out.append((pos, t, fixed, index + fixed))
            index += 2 * fixed
    return out


def cell_degree(dimension, fixed_dim, index, morse_index):
    """Cohomological degree n - mu of a Morse cell of a family, with
    mu = index - fixed_dim + 1 + morse_index."""
    return dimension - (index - fixed_dim + 1 + morse_index)
