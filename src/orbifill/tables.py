"""Finite groups given by generator columns: rows, columns, inverses,
conjugation and orbits.

A group on the elements 0, ..., order - 1, with 0 the identity, is given by
the column col_g[x] = x*g of each of its generators g. Unitary groups hold
the columns their enumeration recorded, and span groups the columns of a
table, a closure or a product. Everything else is composed from them along
breadth-first trees from the identity, so no group keeps a |G| x |G| table.
"""

from __future__ import annotations

from .errors import InputError


class FiniteGroupTable:
    """A finite group on the elements 0, ..., order - 1; index 0 is the identity.

    The group is given by the column col_g[x] = x*g of each of its
    generators g, and each column must be a permutation of the elements.
    ``row``, ``inverses`` and ``conjugation_maps`` are composed from these
    along a tree built when any of them is first read, and ``column`` along
    a second tree built when it is first read.
    """

    __slots__ = ("order", "columns", "generators", "labels", "name", "_by_columns", "_by_rows",
                 "_trees")

    def __init__(self, columns, labels, name=""):
        n = self.order = len(labels)
        elements = list(range(n))
        for k, col in enumerate(columns):
            if sorted(col) != elements:
                raise InputError(f"generator column {k} is not a permutation")
        self.columns = tuple(columns)
        # col_g[0] = 0*g = g names the generator of each column.
        self.generators = tuple(col[0] for col in self.columns)
        self.labels = tuple(labels)
        self.name = name
        self._by_columns = self._by_rows = self._trees = None

    @classmethod
    def from_table(cls, table, name=""):
        """The group of a multiplication table, checked for a square shape,
        index entries, the identity, two-sided inverses and then
        associativity. Light's test picks the generators, and the group
        keeps their columns only."""
        t = tuple(map(tuple, table))
        n = len(t)
        for row in t:
            if len(row) != n:
                raise InputError("multiplication table is not square")
            if set(map(type, row)) != {int} or min(row) < 0 or max(row) >= n:
                raise InputError("table entries must be element indices")
        if t[0] != tuple(range(n)) or any(row[0] != i for i, row in enumerate(t)):
            raise InputError("index 0 is not a two-sided identity")
        for i, row in enumerate(t):
            if 0 not in row or t[row.index(0)][i] != 0:
                raise InputError(f"element {i} has no two-sided inverse")
        # Associativity last: a monoid without inverses is rejected above
        # before Light's test takes every element as a generator.
        gens = _check_associative(t)
        return cls([[row[g] for row in t] for g in gens], range(n), name)

    def row(self, y: int) -> list[int]:
        """x -> y*x: along the first tree, j = p*g gives y*j = (y*p)*g."""
        return _along(self._built_trees()[0], y, self.order)

    def column(self, y: int) -> list[int]:
        """x -> x*y: along the tree over the generators' rows, j = g*p gives
        j*y = g*(p*y)."""
        if self._by_rows is None:
            self._by_rows = _tree(self._built_trees()[1], self.order)
        return _along(self._by_rows, y, self.order)

    @property
    def inverses(self) -> list[int]:
        """x -> x^-1, filled along the first tree: (p*g)^-1 = g^-1 * p^-1."""
        return self._built_trees()[2]

    def conjugation_maps(self) -> list[list[int]]:
        """For each generator g, the map x -> g^-1*x*g = col_g[g^-1*x]."""
        inverted_rows = self._built_trees()[3]
        return [list(map(col.__getitem__, inverted))
                for col, inverted in zip(self.columns, inverted_rows)]

    @property
    def tree(self) -> list[tuple]:
        """The first tree: the edges (j, p, col_g) of a breadth-first walk
        over the columns that finds each element j once, as j = p*g with p
        found earlier (Holt, Eick and O'Brien, Handbook of Computational
        Group Theory, 2005, 4.1). Reading it builds no row."""
        if self._by_columns is None:
            self._by_columns = _tree(self.columns, self.order)
        return self._by_columns

    def powers(self, g: int) -> list[int]:
        """[g^0, g^1, ..., g^(o-1)] for g of order o: the walk along the row
        of g, x -> g*x, from the identity until it returns there."""
        row, walk = self.row(g), [0]
        while row[walk[-1]]:
            walk.append(row[walk[-1]])
        return walk

    def elements(self, targets, identity, step):
        """(j, element j) for each target j, in ascending j, with element 0
        ``identity`` and element j = p*g, the edge of j in :attr:`tree`,
        step(element p, position of g in ``columns``). One walk down the
        tree builds each needed element, a target or an ancestor of one, and
        drops an element once its last needed child is built."""
        tree, wanted = self.tree, set(targets)
        # col_g[0] = g names an edge's generator; a repeated g keeps one position.
        position = {col[0]: s for s, col in enumerate(self.columns)}
        needed, children = {0}, [0] * self.order
        for j in wanted:
            while j not in needed:
                needed.add(j)
                j = tree[j - 1][1]
                children[j] += 1
        x, built = identity, {0: identity}
        for j in sorted(needed):  # 0 comes first, and x is its element
            if j:
                _, p, col = tree[j - 1]
                children[p] -= 1
                x = step(built[p] if children[p] else built.pop(p), position[col[0]])
                if children[j]:
                    built[j] = x
            if j in wanted:
                yield j, x

    def _built_trees(self):
        """The tree over the columns (j = p*g), the generators' rows, the
        inverses and the rows of the generators' inverses. The rows are
        composed along the first tree, and they must commute with the
        columns: the columns then generate a regular group, whose right
        multiplications they are, and the rows its left multiplications."""
        if self._trees is None:
            n, columns = self.order, self.columns
            by_columns = self.tree
            rows = [_along(by_columns, col[0], n) for col in columns]
            if any(list(map(row.__getitem__, col)) != list(map(col.__getitem__, row))
                   for row in rows for col in columns):
                raise InputError("the generator columns are not those of a group")
            # The row of g^-1 is the inverse permutation of the row of g.
            inverted_rows = []
            for row in rows:
                inverted = [0] * n
                for x, y in enumerate(row):
                    inverted[y] = x
                inverted_rows.append(inverted)
            # The column of g, col_g, maps 0 to g.
            inverted_row_of = {col[0]: inv for col, inv in zip(columns, inverted_rows)}
            inverses = [0] * n
            for j, p, col in by_columns:
                inverses[j] = inverted_row_of[col[0]][inverses[p]]
            self._trees = by_columns, rows, inverses, inverted_rows
        return self._trees


def closure(identity, moves, max_order):
    """The breadth-first closure of ``identity`` under ``moves``, which send a
    hashable element x to x*s for each generator s (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005, 4.1): the elements in the
    order found, the column col_s[i] = j of each s, where element j is
    element i times s. None once more than ``max_order`` >= 1 are found.
    The first tree of a table on these columns is the same search, so its
    edge j - 1 finds element j as the closure did. The one closure over keyed
    elements: the enumeration and its certificate, ``from_permutations``,
    ``subgroup_of_product`` and full-pairs ring weights."""
    elements, index = [identity], {identity: 0}
    columns = [[] for _ in moves]
    for i, x in enumerate(elements):  # elements grows while it is read
        for s, move in enumerate(moves):
            y = move(x)
            j = index.get(y)
            if j is None:
                j = index[y] = len(elements)
                if j >= max_order:
                    return None
                elements.append(y)
            columns[s].append(j)
    return elements, columns


def _tree(moves, n: int) -> list[tuple]:
    """A breadth-first walk from the identity that finds each element j once,
    as j = move[p] with p found earlier; the edges (j, p, move). Its elements
    are ints, so a list marks them seen where :func:`closure` keeps a dict."""
    reached, tree = [0], []
    seen = [True] + [False] * (n - 1)
    for p in reached:  # reached grows while it is read
        for move in moves:
            j = move[p]
            if not seen[j]:
                seen[j] = True
                reached.append(j)
                tree.append((j, p, move))
    if len(reached) != n:
        raise InputError("the generators do not generate the group")
    return tree


def _along(tree, y: int, n: int) -> list[int]:
    """The map sending the identity to y and j = move[p] to move[image of p]."""
    out = [y] * n
    for j, p, move in tree:
        out[j] = move[out[p]]
    return out


def _check_associative(t: tuple[tuple[int, ...], ...]) -> list[int]:
    """Light's test on a table of tuples with identity 0: the g with
    (x*g)*y = x*(g*y) for all x, y are closed under the product, so checking
    a generating set suffices. It is chosen greedily: g joins unless some
    ((s1*s2)*...)*sk of it is g. Returns the generating set."""
    n = len(t)
    gens, members, reached = [], [0], [True] + [False] * (n - 1)
    for g in range(1, n):
        if reached[g]:
            continue
        if any(t[row[g]] != tuple(map(row.__getitem__, t[g])) for row in t):
            raise InputError("multiplication table is not associative")
        gens.append(g)
        queue = [t[x][g] for x in members]
        for y in queue:  # queue grows while it is read
            if not reached[y]:
                reached[y] = True
                members.append(y)
                queue.extend(map(t[y].__getitem__, gens))
    return gens


def orbits(maps, n: int) -> list[tuple[int, ...]]:
    """The orbits of 0, ..., n - 1 under the group the maps generate, each
    sorted, listed by least member."""
    seen = [False] * n
    out = []
    for h in range(n):
        if seen[h]:
            continue
        seen[h] = True
        orbit = [h]
        for x in orbit:  # orbit grows while it is read
            for move in maps:
                y = move[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
        out.append(tuple(sorted(orbit)))
    return out
