from __future__ import annotations

import random

import pytest

from fairshare import Rat
from fairshare.lp import ColumnLP, simplex_max


def test_tiny_box():
    obj, x, duals = simplex_max([Rat(1), Rat(1)], [[Rat(1), Rat(0)], [Rat(0), Rat(1)]], [Rat(1), Rat(2)])
    assert obj == 3
    assert x == [Rat(1), Rat(2)]
    assert duals == [Rat(1), Rat(1)]


def test_textbook_two_variable_program():
    # max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18
    c = [Rat(3), Rat(5)]
    rows = [[Rat(1), Rat(0)], [Rat(0), Rat(2)], [Rat(3), Rat(2)]]
    rhs = [Rat(4), Rat(12), Rat(18)]
    obj, x, duals = simplex_max(c, rows, rhs)
    assert obj == 36
    assert x == [Rat(2), Rat(6)]
    assert duals == [Rat(0), Rat(3, 2), Rat(1)]


def test_fractional_optimum():
    # max x + y st 2x + y <= 3, x + 2y <= 3; symmetric optimum at (1, 1)
    obj, x, duals = simplex_max(
        [Rat(1), Rat(1)], [[Rat(2), Rat(1)], [Rat(1), Rat(2)]], [Rat(3), Rat(3)]
    )
    assert obj == 2
    assert x == [Rat(1), Rat(1)]
    assert duals == [Rat(1, 3), Rat(1, 3)]


def test_zero_rhs_is_feasible():
    obj, x, _ = simplex_max([Rat(1)], [[Rat(1)]], [Rat(0)])
    assert obj == 0
    assert x == [Rat(0)]


def test_unbounded_raises():
    with pytest.raises(ValueError):
        simplex_max([Rat(1)], [[Rat(0)]], [Rat(1)])
    with pytest.raises(ValueError):
        simplex_max([Rat(1), Rat(1)], [[Rat(1), Rat(-1)]], [Rat(2)])


def _assert_optimal(c, rows, rhs, obj, x, duals):
    assert all(xi >= 0 for xi in x)
    for row, limit in zip(rows, rhs):
        assert sum(a * xi for a, xi in zip(row, x)) <= limit
    assert all(y >= 0 for y in duals)
    for j in range(len(c)):
        assert c[j] <= sum(duals[i] * rows[i][j] for i in range(len(rows)))
    assert obj == sum(ci * xi for ci, xi in zip(c, x))
    assert obj == sum(y * limit for y, limit in zip(duals, rhs))


def test_random_programs_carry_optimality_certificates():
    """Primal feasibility, dual feasibility, and matching objectives pin the
    returned point as optimal, so no reference solver is needed. The
    warm-started solver, fed one column at a time, must carry the same
    certificate after every solve and match a cold solve's objective."""
    rng = random.Random(23)
    for _ in range(60):
        nvar = rng.randint(1, 4)
        ncon = rng.randint(1, 4)
        c = [Rat(rng.randint(0, 6)) for _ in range(nvar)]
        rows = [[Rat(rng.randint(0, 5)) for _ in range(nvar)] for _ in range(ncon)]
        rhs = [Rat(rng.randint(0, 10)) for _ in range(ncon)]
        # a simplex row keeps every variable bounded
        rows.append([Rat(1)] * nvar)
        rhs.append(Rat(10))
        obj, x, duals = simplex_max(c, rows, rhs)
        _assert_optimal(c, rows, rhs, obj, x, duals)
        lp = ColumnLP(rhs)
        for k in range(1, nvar + 1):
            lp.add_column(c[k - 1], [row[k - 1] for row in rows])
            lp.solve()
            sub_c, sub_rows = c[:k], [row[:k] for row in rows]
            _assert_optimal(sub_c, sub_rows, rhs, lp.value, lp.primal(), lp.duals())
            assert lp.value == simplex_max(sub_c, sub_rows, rhs)[0]


def test_warm_started_set_packing_carries_certificates():
    """The threshold LPs' shape: unit rhs, 0/1 columns arriving between
    solves, a fresh solve after each batch. Every solve must end optimal by
    the primal-dual certificate, and the value is non-decreasing as columns
    only widen the program."""
    rng = random.Random(71)
    for _ in range(80):
        m = rng.randint(1, 8)
        lp = ColumnLP([1] * m)
        c, rows = [], [[] for _ in range(m)]
        last = Rat(0)
        for _ in range(rng.randint(1, 6)):
            for _ in range(rng.randint(1, 4)):
                col = [rng.randint(0, 1) for _ in range(m)]
                col[rng.randrange(m)] = 1
                cost = rng.randint(1, 3)
                lp.add_column(cost, col)
                c.append(cost)
                for row, a in zip(rows, col):
                    row.append(a)
            lp.solve()
            _assert_optimal(c, rows, [1] * m, lp.value, lp.primal(), lp.duals())
            assert lp.value >= last
            assert lp.duals() == [Rat(y, lp.det) for y in lp.scaled_duals()]
            last = lp.value


def test_non_integral_data_raises():
    with pytest.raises(ValueError):
        ColumnLP([Rat(1, 2)])
    lp = ColumnLP([1, 1])
    with pytest.raises(ValueError):
        lp.add_column(Rat(3, 2), [1, 0])
    with pytest.raises(ValueError):
        lp.add_column(1, [1, Rat(1, 3)])
    with pytest.raises(ValueError):
        simplex_max([Rat(1)], [[Rat(2, 3)]], [Rat(1)])
    # integral Fractions are integer data
    assert simplex_max([Rat(2)], [[Rat(4, 2)]], [Rat(6, 3)])[0] == 2
