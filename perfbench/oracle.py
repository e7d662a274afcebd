"""The benchmark's own arithmetic for checking the program's outputs.

Nothing here imports the program.  Utilities are described by plain
parameter tuples ``(kind, a, b, cap)``; this module evaluates them in
closed form and computes the super-optimal bound F̂ (the whole pool
``m·C`` water-filled among every thread) by its own bisection on the
marginal price.  The checks in :mod:`workloads` compare the program's
allocations, utilities and bounds against these numbers.

Families (``x`` clipped to ``[0, cap]``):

* ``log``    f = a·log(1 + x/b)
* ``sat``    f = a·x/(x + b)
* ``pow``    f = a·x**b, 0 < b < 1
* ``capped`` f = a·min(x, b)
* ``quad``   the concave two-arc spline through (0, 0), (cap/2, a), (cap, a + b)
"""

from __future__ import annotations

import math

import numpy as np

#: The paper's worst-case ratio 2(√2 − 1).
ALPHA = 2.0 * (math.sqrt(2.0) - 1.0)

KINDS = ("log", "sat", "pow", "capped", "quad")


class Pool:
    """Rows of utilities, one row per independent pool (shape ``(T, n)``).

    ``kind`` holds indices into :data:`KINDS`; rows may be padded with
    ``capped`` threads of ``cap = 0``, which hold nothing and are worth 0.
    """

    def __init__(self, kind, a, b, cap):
        self.kind = np.atleast_2d(np.asarray(kind, dtype=np.int64))
        self.a = np.atleast_2d(np.asarray(a, dtype=float))
        self.b = np.atleast_2d(np.asarray(b, dtype=float))
        self.cap = np.atleast_2d(np.asarray(cap, dtype=float))
        self._groups = [np.nonzero(self.kind == k) for k in range(len(KINDS))]
        quad = self._groups[KINDS.index("quad")]
        v, w, cq = self.a[quad], self.b[quad], self.cap[quad]
        xm = cq / 2.0
        s1 = v / xm
        s2 = w / (cq - xm)
        d1 = np.minimum((s1 + s2) / 2.0, 2.0 * s2)
        self._quad = (v, xm, cq - xm, 2.0 * s1 - d1, d1, 2.0 * s2 - d1)

    @classmethod
    def from_specs(cls, rows) -> "Pool":
        """Rows of ``(kind, a, b, cap)`` specs, padded to the longest row."""
        width = max((len(r) for r in rows), default=0)
        shape = (len(rows), width)
        kind = np.full(shape, KINDS.index("capped"))
        a, b, cap = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        for t, row in enumerate(rows):
            for i, (k, pa, pb, pc) in enumerate(row):
                kind[t, i] = KINDS.index(k)
                a[t, i], b[t, i], cap[t, i] = pa, pb, pc
        return cls(kind, a, b, cap)

    def value(self, c) -> np.ndarray:
        """``f(c)`` elementwise, shape ``(T, n)``."""
        x = np.clip(np.asarray(c, dtype=float).reshape(self.cap.shape), 0.0, self.cap)
        out = np.zeros_like(x)
        for k, idx in enumerate(self._groups):
            xi, a, b = x[idx], self.a[idx], self.b[idx]
            name = KINDS[k]
            if name == "log":
                out[idx] = a * np.log1p(xi / b)
            elif name == "sat":
                out[idx] = a * xi / (xi + b)
            elif name == "pow":
                out[idx] = a * xi**b
            elif name == "capped":
                out[idx] = a * np.minimum(xi, b)
            else:
                v, xm, h2, d0, d1, d2 = self._quad
                t1 = np.minimum(xi, xm)
                t2 = np.maximum(xi - xm, 0.0)
                out[idx] = (
                    d0 * t1 + (d1 - d0) * t1 * t1 / (2.0 * xm)
                    + d1 * t2 + (d2 - d1) * t2 * t2 / (2.0 * h2)
                )
        return out

    def demand(self, lam) -> np.ndarray:
        """Largest ``x ≤ cap`` with ``f'(x) ≥ lam`` (one positive price per row)."""
        lam = np.broadcast_to(np.asarray(lam, dtype=float).reshape(-1, 1), self.cap.shape)
        out = np.zeros(self.cap.shape)
        for k, idx in enumerate(self._groups):
            p, a, b = lam[idx], self.a[idx], self.b[idx]
            name = KINDS[k]
            if name == "log":
                x = a / p - b
            elif name == "sat":
                x = np.sqrt(a * b / p) - b
            elif name == "pow":
                with np.errstate(over="ignore"):
                    x = np.exp(np.log(a * b / p) / (1.0 - b))
            elif name == "capped":
                x = np.where(a >= p, b, 0.0)
            else:
                _, xm, h2, d0, d1, d2 = self._quad
                with np.errstate(divide="ignore", invalid="ignore"):
                    left = xm * (d0 - p) / (d0 - d1)
                    right = xm + h2 * (d1 - p) / (d1 - d2)
                x = np.where(p > d1, left, right)
                x = np.where(p > d0, 0.0, x)
                x = np.where(p <= d2, xm + h2, x)
            out[idx] = np.clip(np.nan_to_num(x, nan=0.0), 0.0, self.cap[idx])
        return out


def water_fill(pool: Pool, budgets) -> tuple[np.ndarray, np.ndarray]:
    """Optimal split of each row's budget: ``(allocations, row utilities)``.

    Bisects each row's marginal price until the bracket is at float
    resolution, then splits the budget left over at the upper price among
    the threads whose demand jumps inside the bracket (tied threads are
    indifferent, so any such split is optimal).
    """
    budgets = np.asarray(budgets, dtype=float).reshape(-1)
    slack = budgets >= pool.cap.sum(axis=1)
    lo = np.zeros(budgets.shape)
    hi = np.ones(budgets.shape)
    over = pool.demand(hi).sum(axis=1) > budgets
    while np.any(over):
        lo = np.where(over, hi, lo)
        hi = np.where(over, 2.0 * hi, hi)
        over = pool.demand(hi).sum(axis=1) > budgets
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        todo = ~slack & (mid > lo) & (mid < hi)
        if not np.any(todo):
            break
        over = pool.demand(mid).sum(axis=1) > budgets
        lo = np.where(todo & over, mid, lo)
        hi = np.where(todo & ~over, mid, hi)
    # Demand at the upper price fits the budget; at the lower price it
    # does not (at price 0 every thread takes its whole cap).
    fits = pool.demand(hi)
    spills = np.where((lo > 0)[:, None], pool.demand(np.where(lo > 0, lo, hi)), pool.cap)
    s_fit, s_spill = fits.sum(axis=1), spills.sum(axis=1)
    gap = s_spill - s_fit
    share = np.where(gap > 0, (budgets - s_fit) / np.where(gap > 0, gap, 1.0), 0.0)
    c = fits + np.clip(share, 0.0, 1.0)[:, None] * (spills - fits)
    c = np.where(slack[:, None], pool.cap, c)
    return c, pool.value(c).sum(axis=1)


def super_optimal(pool: Pool, n_servers, capacity) -> np.ndarray:
    """F̂ per row: the ``n_servers · capacity`` pool water-filled."""
    budgets = np.asarray(n_servers, dtype=float) * np.asarray(capacity, dtype=float)
    return water_fill(pool, np.broadcast_to(budgets, (pool.cap.shape[0],)))[1]


def close(x: float, y: float, rel: float) -> bool:
    """``|x − y| ≤ rel · max(|x|, |y|, 1)``."""
    return abs(x - y) <= rel * max(abs(x), abs(y), 1.0)
