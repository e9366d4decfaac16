"""Matrix concentration tail bounds and their Monte Carlo counterparts.

Implements the Bernstein-type tail bound for sums of bounded centered random
matrices and the union bound over blocks of a permuted row. The per-trial
worst block deviations these bounds are compared against are
products.block_gaps, read under uniform permutations.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import op_norms
from .products import _block_count
from .rows import ArrayRow, RowStats


def bernstein_tail(eps: float, L: float, v: float, d: int) -> float:
    """2 d exp(-(eps^2/2) / (v + L eps / 3)), clamped to [0, 2d]: the tail of
    a sum of centered matrices of dimension d, each of norm at most L, whose
    variance proxy (sum of expected squared norms) is v.

    A zero denominator with eps > 0 means the sum is deterministic: returns 0.
    """
    if min(eps, L, v) < 0 or d < 1:
        raise ValueError("eps, L, v must be non-negative and d >= 1")
    if eps == 0.0:
        return 2.0 * d
    if (denom := v + L * eps / 3.0) == 0.0:
        return 0.0
    return min(max(2.0 * d * math.exp(-(eps * eps / 2.0) / denom), 0.0), 2.0 * d)


def variance_proxy(row: ArrayRow, a: int) -> float:
    """v = (a/n) sum_i ||A_i - A_n||^2, the centered second-moment scale of a
    size-a block; always at most 4 a L1 Linf."""
    _block_count(row.n, a)  # 1 <= a <= n
    alphabet, letter_of = row.letters()  # one norm per letter, gathered to its elements
    v = float(a / row.n * (op_norms(alphabet - row.stats.mean) ** 2)[letter_of].sum())
    cap = 4.0 * a * row.stats.l1 * row.stats.linf
    if v > cap * (1.0 + 1e-9) + 1e-12:
        raise ArithmeticError(f"variance proxy {v} exceeds its cap {cap}")
    return v


def lemma_random_bound(n: int, a: int, eps: float, stats: RowStats, d: int) -> float:
    """Union tail bound for some block mean straying more than eps from A_n:
    b * 2d * exp(-(a eps^2 / 12) / (L1 Linf)), b = n // a, valid for eps < 3 L1."""
    if d < 1:
        raise ValueError("d must be >= 1")
    b = _block_count(n, a)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not eps < 3.0 * stats.l1:
        raise ValueError(f"precondition eps < 3 L1 violated: {eps} >= {3.0 * stats.l1}")
    return b * 2.0 * d * math.exp(-(a * eps * eps / 12.0) / (stats.l1 * stats.linf))


def block_bernstein_bound(row: ArrayRow, a: int, eps) -> list[float]:
    """Union-over-blocks Bernstein bound before the L1 Linf simplifications,
    one per entry of the eps grid: b * tail(a*eps) over the b = n // a blocks,
    with summand bound 2 Linf and the row's variance proxy, computed once."""
    b, v, linf = _block_count(row.n, a), variance_proxy(row, a), row.stats.linf
    return [b * bernstein_tail(a * e, 2.0 * linf, v, row.d) for e in eps]


def eps_grid(l1: float, floor: float = 0.05) -> np.ndarray:
    """12 geometric points over [floor, 3 L1), the validity range of the block bound."""
    top = 3.0 * l1
    if not floor < top:
        raise ValueError(f"eps = {floor} must be below 3 L1 = {top}")
    return np.geomspace(floor, top, 12, endpoint=False)
