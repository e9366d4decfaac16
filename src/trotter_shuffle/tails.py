"""Matrix concentration tail bounds and their Monte Carlo counterparts.

Implements the Bernstein-type tail bound for sums of bounded centered random
matrices, uniform sampling without replacement, the union bound over blocks of
a permuted row, and the empirical block-violation frequencies the bounds are
compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import op_norms
from .products import BlockScheme, block_gaps
from .rows import ArrayRow, RowStats, row_stats


@dataclass(frozen=True)
class TailQuery:
    """Parameters of one tail evaluation: threshold eps, summand bound L,
    variance proxy v (sum of expected squared norms over the k summands),
    ambient dimension d, sample count k."""

    eps: float
    L: float
    v: float
    d: int
    k: int

    def __post_init__(self):
        if min(self.eps, self.L, self.v) < 0 or self.d < 1 or self.k < 0:
            raise ValueError("tail query fields must be non-negative with d >= 1")


def bernstein_tail(q: TailQuery) -> float:
    """2 d exp(-(eps^2/2) / (v + L eps / 3)), clamped to [0, 2d].

    A zero denominator with eps > 0 means the sum is deterministic: returns 0.
    """
    denom = q.v + q.L * q.eps / 3.0
    if q.eps == 0.0:
        return 2.0 * q.d
    if denom == 0.0:
        return 0.0
    val = 2.0 * q.d * math.exp(-(q.eps * q.eps / 2.0) / denom)
    return min(max(val, 0.0), 2.0 * q.d)


def sample_without_replacement(pool, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform ordered k-subset of the pool: the first k items of a uniform
    permutation. With k = len(pool) this is a uniform permutation of the pool.
    """
    arr = np.asarray(pool)
    m = arr.shape[0]
    if k < 0 or k > m:
        raise ValueError(f"cannot draw {k} items from a pool of {m}")
    return arr[rng.permutation(m)[:k]]


def variance_proxy(row: ArrayRow, a: int, stats: RowStats | None = None) -> float:
    """v = (a/n) sum_i ||A_i - A_n||^2, the centered second-moment scale of a
    size-a block; always at most 4 a L1 Linf. stats, when given, is
    row_stats(row)."""
    if a < 0 or a > row.n:
        raise ValueError(f"block size {a} out of range for row of length {row.n}")
    stats = stats or row_stats(row)
    sq = op_norms(row.elements - stats.mean) ** 2
    v = float(a / row.n * sq.sum())
    cap = 4.0 * a * stats.l1 * stats.linf
    if v > cap * (1.0 + 1e-9) + 1e-12:
        raise ArithmeticError(f"variance proxy {v} exceeds its cap {cap}")
    return v


def lemma_random_bound(n: int, a: int, b: int, eps: float, stats: RowStats,
                       d: int, rescaled: bool = False) -> float:
    """Union tail bound for some block mean straying more than eps from A_n:

        b * 2d * exp(-(a eps^2 / 12) / (L1 Linf))            (rescaled=False)
        b * 2d * exp(-(a eps^2 / 12) / (L1 Linf e^{2 L1}))   (rescaled=True)

    The raw form needs eps < 3 L1; the rescaled form (for thresholds carrying
    the e^{L1} weight of the block conditions) needs eps e^{-L1} < 3 L1.
    """
    if min(n, a, b) < 1 or d < 1:
        raise ValueError("n, a, b, d must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not rescaled:
        if not eps < 3.0 * stats.l1:
            raise ValueError(f"precondition eps < 3 L1 violated: {eps} >= {3.0 * stats.l1}")
        scale = stats.l1 * stats.linf
    else:
        if not eps * math.exp(-stats.l1) < 3.0 * stats.l1:
            raise ValueError(
                f"precondition eps e^(-L1) < 3 L1 violated: "
                f"{eps * math.exp(-stats.l1)} >= {3.0 * stats.l1}")
        scale = stats.l1 * stats.linf * math.exp(2.0 * stats.l1)
    return b * 2.0 * d * math.exp(-(a * eps * eps / 12.0) / scale)


def block_deviation_samples(row: ArrayRow, scheme: BlockScheme, trials: int,
                            seed: int | tuple[int, ...],
                            stats: RowStats | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial worst block deviations under fresh uniform permutations.

    Returns (max_mean_dev, max_norm_dev), each of shape (trials,): the largest
    ||block mean - A_n|| and the largest |block norm-mean - L1| over the b
    blocks, one independent permutation per trial (stream seeded by
    (seed, trial) so trials are order-independent). stats, when given, is
    row_stats(row).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if scheme.covered > row.n:
        raise ValueError("scheme does not fit the row")
    key = (seed,) if isinstance(seed, int) else tuple(seed)
    stats = stats or row_stats(row)
    mean_dev = np.empty(trials)
    norm_dev = np.empty(trials)
    for t in range(trials):
        order = np.random.default_rng([*key, t]).permutation(row.n)
        mean_dev[t], norm_dev[t] = block_gaps(row, stats, order, scheme)
    return mean_dev, norm_dev


@dataclass(frozen=True)
class BlockTailEstimate:
    freq_mean_cond: float
    freq_norm_cond: float


def empirical_block_tail(row: ArrayRow, scheme: BlockScheme, eps: float,
                         trials: int, seed: int) -> BlockTailEstimate:
    """Fraction of random permutations with some block mean (resp. block norm
    average) more than eps away from the row statistic."""
    mean_dev, norm_dev = block_deviation_samples(row, scheme, trials, seed)
    return BlockTailEstimate(freq_mean_cond=float((mean_dev > eps).mean()),
                             freq_norm_cond=float((norm_dev > eps).mean()))


def block_bernstein_bound(row: ArrayRow, scheme: BlockScheme, eps: float,
                          d: int | None = None, stats: RowStats | None = None,
                          v: float | None = None) -> float:
    """Union-over-blocks Bernstein bound before the L1 Linf simplifications:
    b * tail(a*eps) with summand bound 2 Linf and the row's variance proxy.
    stats and v, when given, are row_stats(row) and
    variance_proxy(row, scheme.a), computed once for many eps."""
    stats = stats or row_stats(row)
    if v is None:
        v = variance_proxy(row, scheme.a, stats)
    q = TailQuery(eps=scheme.a * eps, L=2.0 * stats.linf, v=v,
                  d=d if d is not None else row.d, k=scheme.a)
    return scheme.b * bernstein_tail(q)


def eps_grid(l1: float, points: int = 12, floor: float = 0.05) -> np.ndarray:
    """Geometric grid over [floor, 3 L1), the validity range of the block bound."""
    top = 3.0 * l1
    if top <= floor:
        raise ValueError(f"3 L1 = {top} must exceed the grid floor {floor}")
    return np.geomspace(floor, top, points, endpoint=False)


def tropp_ward_rate(n: int, stats: RowStats, norm_target: float, d: int,
                    delta: float) -> float:
    """Literature comparison rate: (Linf e^{||A||} / sqrt(n)) sqrt(2 e^2 log(d/delta))."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return (stats.linf * math.exp(norm_target) / math.sqrt(n)) * math.sqrt(
        2.0 * math.e**2 * math.log(d / delta))
