"""Exact-rational simplex for small linear programs, warm-startable by column.

One canonical form: maximize c.x subject to A x <= rhs, x >= 0, with rhs >= 0
so the all-slack basis is feasible and no phase-1 is needed. The row set is
fixed when the program is built; columns arrive one at a time.

`ColumnLP` keeps its tableau between solves. Adding a column keeps the
current basis primal feasible, so the column is priced through the slack
block, which holds B^-1 (entries B^-1 a, reduced cost c - y.a with y the
current duals), and Bland pivoting resumes from the current basis. That is
column generation with a warm start: a cutting-plane or pricing loop pays a
few pivots per new column instead of a solve from scratch. Row updates touch
only the non-zero entries of the pivot row.

Bland's rule (structural columns in order of addition, then slacks) fixes
the pivot sequence and guarantees termination. Everything is exact: ints
and Fractions, never floats. `simplex_max` is the one-shot form.
"""

from __future__ import annotations

from .core import Rat


class ColumnLP:
    """max c.x s.t. A x <= rhs, x >= 0 over a fixed set of rows.

    Columns are added with `add_column`; `solve` pivots to an optimum from
    the current basis. Between solves `value`, `primal` and `duals`
    describe the last optimum.
    """

    def __init__(self, rhs: list[Rat]) -> None:
        if any(r < 0 for r in rhs):
            raise ValueError("simplex: requires rhs >= 0")
        nrow = len(rhs)
        self.nrow = nrow
        # Tableau columns: the nrow slacks, then structural columns in order
        # of addition. rhs and the objective value live apart from the rows.
        self.tab: list[list[Rat]] = [[1 if k == i else 0 for k in range(nrow)] for i in range(nrow)]
        self.rhs: list[Rat] = [Rat(r) for r in rhs]
        self.obj: list[Rat] = [0] * nrow  # reduced costs; obj[k] = -y_k on slack k
        self.value: Rat = Rat(0)
        self.basis = list(range(nrow))

    def add_column(self, cost: Rat, col: list[Rat]) -> None:
        """Append a structural column; the current basis stays feasible."""
        nz = [(k, a) for k, a in enumerate(col) if a]
        reduced = cost
        for k, a in nz:
            reduced += self.obj[k] * a
        for row in self.tab:
            entry = 0
            for k, a in nz:
                entry += row[k] * a
            row.append(entry)
        self.obj.append(reduced)

    def solve(self) -> None:
        """Bland-rule pivots from the current basis to an optimum."""
        nrow = self.nrow
        tab, rhs, basis, obj = self.tab, self.rhs, self.basis, self.obj
        width = len(obj)
        order = list(range(nrow, width)) + list(range(nrow))
        rank = {j: r for r, j in enumerate(order)}
        while True:
            enter = next((j for j in order if obj[j] > 0), -1)
            if enter < 0:
                return
            leave = -1
            best: Rat | None = None
            for i in range(nrow):
                a = tab[i][enter]
                if a > 0:
                    ratio = rhs[i] / a
                    if best is None or ratio < best or (ratio == best and rank[basis[i]] < rank[basis[leave]]):
                        best = ratio
                        leave = i
            if leave < 0:
                raise ValueError("simplex: unbounded objective")
            prow = tab[leave]
            pivot = Rat(prow[enter])
            if pivot != 1:
                for j in range(width):
                    if prow[j]:
                        prow[j] = prow[j] / pivot
                rhs[leave] = rhs[leave] / pivot
            nz = [(j, a) for j, a in enumerate(prow) if a]
            r = rhs[leave]
            for i in range(nrow):
                row = tab[i]
                factor = row[enter]
                if i == leave or not factor:
                    continue
                for j, a in nz:
                    row[j] -= factor * a
                if r:
                    rhs[i] -= factor * r
            factor = obj[enter]
            for j, a in nz:
                obj[j] -= factor * a
            self.value += factor * r
            basis[leave] = enter

    def primal(self) -> list[Rat]:
        """Values of the structural columns at the last optimum."""
        x = [Rat(0)] * (len(self.obj) - self.nrow)
        for i, var in enumerate(self.basis):
            if var >= self.nrow:
                x[var - self.nrow] = Rat(self.rhs[i])
        return x

    def duals(self) -> list[Rat]:
        """Optimal multiplier of each row at the last optimum."""
        return [Rat(-self.obj[k]) for k in range(self.nrow)]


def simplex_max(
    c: list[Rat],
    rows: list[list[Rat]],
    rhs: list[Rat],
) -> tuple[Rat, list[Rat], list[Rat]]:
    """Solve max c.x s.t. rows[i] . x <= rhs[i], x >= 0.

    Requires rhs[i] >= 0 for all i and a bounded optimum. Returns
    (objective, x, duals) where duals[i] is the optimal multiplier of row i.
    """
    lp = ColumnLP(rhs)
    for j, cost in enumerate(c):
        lp.add_column(cost, [row[j] for row in rows])
    lp.solve()
    return lp.value, lp.primal(), lp.duals()
