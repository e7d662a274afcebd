"""Hand-solved two-thread cases for the benchmark's own oracle.

Run from the repository root: ``python3 -m pytest perfbench/test_oracle.py``.
"""

from __future__ import annotations

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracle import ALPHA, Pool, super_optimal, water_fill  # noqa: E402


def _solve(specs, budget):
    pool = Pool.from_specs([specs])
    c, total = water_fill(pool, [budget])
    return c[0], float(total[0])


def test_alpha():
    assert ALPHA == pytest.approx(0.8284271247461903, rel=1e-15)


def test_two_equal_logs_split_evenly():
    # f = log(1 + x): equal marginals at x = 5 each.
    c, total = _solve([("log", 1.0, 1.0, 10.0), ("log", 1.0, 1.0, 10.0)], 10.0)
    assert c == pytest.approx([5.0, 5.0], rel=1e-12)
    assert total == pytest.approx(2 * math.log(6.0), rel=1e-12)


def test_two_logs_with_different_weights():
    # 2/(1 + x) = 1/(1 + y), x + y = 9  ->  x = 19/3, y = 8/3.
    c, total = _solve([("log", 2.0, 1.0, 10.0), ("log", 1.0, 1.0, 10.0)], 9.0)
    assert c == pytest.approx([19 / 3, 8 / 3], rel=1e-12)
    assert total == pytest.approx(2 * math.log(22 / 3) + math.log(11 / 3), rel=1e-12)


def test_capped_linear_fills_the_steeper_thread_first():
    # Slopes 3 and 1, breakpoints 4 and 10, budget 6: 4 to the steep one.
    c, total = _solve([("capped", 3.0, 4.0, 10.0), ("capped", 1.0, 10.0, 10.0)], 6.0)
    assert c == pytest.approx([4.0, 2.0], abs=1e-9)
    assert total == pytest.approx(14.0, rel=1e-12)


def test_saturating_pair():
    # f = 4x/(x + 1), g = x/(x + 1): 4/(x+1)^2 = 1/(y+1)^2 -> x + 1 = 2(y + 1).
    # With x + y = 5: y = 4/3, x = 11/3.
    c, total = _solve([("sat", 4.0, 1.0, 10.0), ("sat", 1.0, 1.0, 10.0)], 5.0)
    assert c == pytest.approx([11 / 3, 4 / 3], rel=1e-12)
    assert total == pytest.approx(4 * (11 / 3) / (14 / 3) + (4 / 3) / (7 / 3), rel=1e-12)


def test_square_roots_split_by_squared_weights():
    # a·sqrt(x): x_i ∝ a_i², so weights 1 and 2 split 10 as 2 and 8.
    c, total = _solve([("pow", 1.0, 0.5, 10.0), ("pow", 2.0, 0.5, 10.0)], 10.0)
    assert c == pytest.approx([2.0, 8.0], rel=1e-12)
    assert total == pytest.approx(math.sqrt(2) + 2 * math.sqrt(8), rel=1e-12)


def test_caps_bind_and_slack_budget_saturates():
    c, total = _solve([("log", 1.0, 1.0, 2.0), ("log", 1.0, 1.0, 3.0)], 100.0)
    assert list(c) == [2.0, 3.0]
    assert total == pytest.approx(math.log(3) + math.log(4), rel=1e-15)
    c, _ = _solve([("log", 10.0, 1.0, 2.0), ("log", 1.0, 1.0, 10.0)], 6.0)
    assert c == pytest.approx([2.0, 4.0], rel=1e-12)


def test_quad_spline_anchors_and_symmetric_split():
    # (0,0), (5,4), (10,6): two identical splines share 10 as 5 + 5.
    pool = Pool.from_specs([[("quad", 4.0, 2.0, 10.0)]])
    assert pool.value([[5.0]])[0, 0] == pytest.approx(4.0, rel=1e-15)
    assert pool.value([[10.0]])[0, 0] == pytest.approx(6.0, rel=1e-15)
    c, total = _solve([("quad", 4.0, 2.0, 10.0), ("quad", 4.0, 2.0, 10.0)], 10.0)
    assert c == pytest.approx([5.0, 5.0], rel=1e-12)
    assert total == pytest.approx(8.0, rel=1e-12)


def test_padding_rows_and_super_optimal_pool():
    rows = [
        [("log", 1.0, 1.0, 10.0), ("log", 1.0, 1.0, 10.0)],
        [("log", 1.0, 1.0, 10.0)],
    ]
    bound = super_optimal(Pool.from_specs(rows), 1, 10.0)
    assert bound == pytest.approx([2 * math.log(6.0), math.log(11.0)], rel=1e-12)
