"""Fraction-free simplex for small integer linear programs, warm-startable by
column.

One canonical form: maximize c.x subject to A x <= rhs, x >= 0, with integer
data and rhs >= 0 so the all-slack basis is feasible and no phase-1 is
needed. The row set is fixed when the program is built; columns arrive one at
a time.

The tableau is integer (Edmonds 1967, Bareiss 1968; Azulay & Pique 2001): it
holds D * B^-1 [I | A] for the basis B and D = |det B|, the last pivot (1
before the first), and the rhs, reduced costs and objective are scaled by D
too. A pivot on p keeps the pivot row and turns every other entry x into
(p*x - f*prow_x) // D, f being the row's entry in the entering column; the
division is exact. `value`, `primal` and `duals` divide by D when read and
the ratio test cross-multiplies, so `solve` builds no Fraction.

`ColumnLP` keeps its tableau between solves. A new column is priced through
the slack block, which holds D * B^-1, and Bland pivoting resumes from the
current basis, which stays primal feasible: a pricing loop pays a few pivots
per new column instead of a solve from scratch. Bland's rule (structural
columns in order of addition, then slacks) fixes the pivot sequence and
guarantees termination. Everything is exact: ints, and Fractions only where
a result is read, never floats. `simplex_max` is the one-shot form.
"""

from __future__ import annotations

from .core import Rat


def _integer(x) -> int:
    if isinstance(x, int):
        return x
    if isinstance(x, Rat) and x.denominator == 1:
        return x.numerator
    raise ValueError(f"simplex: requires integer data, got {x!r}")


class ColumnLP:
    """max c.x s.t. A x <= rhs, x >= 0 over a fixed set of integer rows;
    non-integral data raises ValueError.

    Columns are added with `add_column`; `solve` pivots to an optimum from
    the current basis. Between solves `value`, `primal` and `duals`
    describe the last optimum, and `scaled_value`, `scaled_primal` and
    `scaled_duals` are the same numbers times `det`, as integers.
    """

    def __init__(self, rhs: list[int]) -> None:
        rhs = [_integer(r) for r in rhs]
        if any(r < 0 for r in rhs):
            raise ValueError("simplex: requires rhs >= 0")
        nrow = len(rhs)
        self.nrow = nrow
        # Tableau columns: the nrow slacks, then structural columns in order
        # of addition. rhs and the objective value live apart from the rows.
        self.tab: list[list[int]] = [[1 if k == i else 0 for k in range(nrow)] for i in range(nrow)]
        self.rhs = rhs
        self.obj: list[int] = [0] * nrow  # scaled reduced costs; obj[k] = -det * y_k on slack k
        self.scaled_value = 0
        self.det = 1
        self.basis = list(range(nrow))

    @property
    def value(self) -> Rat:
        return Rat(self.scaled_value, self.det)

    def add_column(self, cost: int, col: list[int]) -> None:
        """Append a structural column; the current basis stays feasible."""
        nz = [(k, _integer(a)) for k, a in enumerate(col) if a]
        reduced = self.det * _integer(cost)
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
        while True:
            enter = next((j for j in order if obj[j] > 0), -1)
            if enter < 0:
                return
            leave = -1
            for i in range(nrow):
                a = tab[i][enter]
                # rhs[i] / a against rhs[leave] / tab[leave][enter], ties by
                # Bland's rank of the basic column, its place in `order`
                if a > 0 and (
                    leave < 0
                    or (rhs[i] * tab[leave][enter], (basis[i] - nrow) % width)
                    < (rhs[leave] * a, (basis[leave] - nrow) % width)
                ):
                    leave = i
            if leave < 0:
                raise ValueError("simplex: unbounded objective")
            prow = tab[leave]
            p, d, r = prow[enter], self.det, rhs[leave]
            for i in range(nrow):
                f = tab[i][enter]
                if i == leave or (not f and p == d):
                    continue
                tab[i] = [(p * x - f * y) // d for x, y in zip(tab[i], prow)]
                rhs[i] = (p * rhs[i] - f * r) // d
            f = obj[enter]
            obj[:] = [(p * x - f * y) // d for x, y in zip(obj, prow)]
            self.scaled_value = (p * self.scaled_value + f * r) // d
            self.det = p
            basis[leave] = enter

    def scaled_primal(self) -> list[int]:
        """The structural columns' values at the last optimum times `det`, as
        integers."""
        x = [0] * (len(self.obj) - self.nrow)
        for i, var in enumerate(self.basis):
            if var >= self.nrow:
                x[var - self.nrow] = self.rhs[i]
        return x

    def primal(self) -> list[Rat]:
        """Values of the structural columns at the last optimum."""
        return [Rat(x, self.det) for x in self.scaled_primal()]

    def scaled_duals(self) -> list[int]:
        """The optimal multipliers times `det`, as integers."""
        return [-y for y in self.obj[: self.nrow]]

    def duals(self) -> list[Rat]:
        """Optimal multiplier of each row at the last optimum."""
        return [Rat(y, self.det) for y in self.scaled_duals()]


def simplex_max(
    c: list[int],
    rows: list[list[int]],
    rhs: list[int],
) -> tuple[Rat, list[Rat], list[Rat]]:
    """Solve max c.x s.t. rows[i] . x <= rhs[i], x >= 0 over integer data.

    Requires rhs[i] >= 0 for all i and a bounded optimum. Returns
    (objective, x, duals) where duals[i] is the optimal multiplier of row i.
    """
    lp = ColumnLP(rhs)
    for j, cost in enumerate(c):
        lp.add_column(cost, [row[j] for row in rows])
    lp.solve()
    return lp.value, lp.primal(), lp.duals()
