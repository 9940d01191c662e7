"""The breadth-first closure that builds every keyed group."""

import pytest

from orbifill.tables import closure


def compose(g):
    """p -> p o g: x -> p[g[x]], the product from_permutations uses."""
    return lambda p: tuple(p[x] for x in g)


def times(s, m):
    return lambda x: x * s % m


class TestClosure:
    def test_permutation_group(self):
        # S3 from the transposition (0 1) and the 3-cycle (0 1 2).
        moves = [compose((1, 0, 2)), compose((1, 2, 0))]
        elements, columns, parents = closure((0, 1, 2), moves, 6)
        assert elements == [(0, 1, 2), (1, 0, 2), (1, 2, 0), (0, 2, 1), (2, 1, 0), (2, 0, 1)]
        assert columns == [[1, 0, 4, 5, 2, 3], [2, 3, 5, 4, 1, 0]]
        assert parents == [(0, -1), (0, 0), (0, 1), (1, 1), (2, 0), (2, 1)]

    def test_residue_keys(self):
        # 5 and 12 = 5^2 generate the units {1, 5, 12, 8} of order 4 mod 13.
        elements, columns, parents = closure(1, [times(5, 13), times(12, 13)], 4)
        assert elements == [1, 5, 12, 8]
        assert columns == [[1, 2, 3, 0], [2, 3, 0, 1]]
        assert parents == [(0, -1), (0, 0), (0, 1), (1, 1)]

    def test_columns_and_parents_agree(self):
        # Element j is element i times s exactly when col_s[i] = j, and each
        # element's parent edge is the first such (i, s) in the search.
        moves = [times(s, 101) for s in (3, 10, 100)]
        elements, columns, parents = closure(1, moves, 100)
        assert sorted(elements) == list(range(1, 101))
        for s, (move, col) in enumerate(zip(moves, columns)):
            assert [elements.index(move(x)) for x in elements] == col
        for j, (i, s) in enumerate(parents[1:], 1):
            assert columns[s][i] == j
            assert all(columns[t][k] != j for k in range(i + 1) for t in range(len(moves))
                       if (k, t) < (i, s))

    @pytest.mark.parametrize("identity, moves, order", [
        ((0, 1, 2), [compose((1, 0, 2)), compose((1, 2, 0))], 6),
        (1, [times(5, 13), times(12, 13)], 4),
        (1, [times(3, 101)], 100),
    ])
    def test_cap(self, identity, moves, order):
        assert len(closure(identity, moves, order)[0]) == order
        assert closure(identity, moves, order - 1) is None
