"""The breadth-first closure that builds every keyed group, and the first
tree of a table on its columns, which records how it found each element."""

import pytest

from orbifill.tables import FiniteGroupTable, closure


def parents(columns):
    """The (parent, generator index) of each element after the identity, read
    off the first tree of the table on the columns."""
    table = FiniteGroupTable(columns, range(len(columns[0])))
    assert [j for j, _, _ in table.tree] == list(range(1, table.order))
    return [(p, table.columns.index(col)) for _, p, col in table.tree]


def compose(g):
    """p -> p o g: x -> p[g[x]], the product from_permutations uses."""
    return lambda p: tuple(p[x] for x in g)


def times(s, m):
    return lambda x: x * s % m


class TestClosure:
    def test_permutation_group(self):
        # S3 from the transposition (0 1) and the 3-cycle (0 1 2).
        moves = [compose((1, 0, 2)), compose((1, 2, 0))]
        elements, columns = closure((0, 1, 2), moves, 6)
        assert elements == [(0, 1, 2), (1, 0, 2), (1, 2, 0), (0, 2, 1), (2, 1, 0), (2, 0, 1)]
        assert columns == [[1, 0, 4, 5, 2, 3], [2, 3, 5, 4, 1, 0]]
        assert parents(columns) == [(0, 0), (0, 1), (1, 1), (2, 0), (2, 1)]

    def test_residue_keys(self):
        # 5 and 12 = 5^2 generate the units {1, 5, 12, 8} of order 4 mod 13.
        elements, columns = closure(1, [times(5, 13), times(12, 13)], 4)
        assert elements == [1, 5, 12, 8]
        assert columns == [[1, 2, 3, 0], [2, 3, 0, 1]]
        assert parents(columns) == [(0, 0), (0, 1), (1, 1)]

    def test_columns_and_parents_agree(self):
        # Element j is element i times s exactly when col_s[i] = j, and each
        # element's edge in the first tree is the first such (i, s) in the
        # search.
        moves = [times(s, 101) for s in (3, 10, 100)]
        elements, columns = closure(1, moves, 100)
        assert sorted(elements) == list(range(1, 101))
        for s, (move, col) in enumerate(zip(moves, columns)):
            assert [elements.index(move(x)) for x in elements] == col
        for j, (i, s) in enumerate(parents(columns), 1):
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
