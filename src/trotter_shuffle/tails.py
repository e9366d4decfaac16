"""The concentration half of the proof: block averages under uniform permutations.

The block size (choose_blocks), the worst block-average gaps of the mean and the
norm over the consecutive size-a blocks of each order (block_gaps), and the tail
bounds they are compared against: a Bernstein-type bound for sums of bounded
centered random matrices and the union bound over the blocks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .linalg import op_norms
from .rows import ArrayRow, RowStats, _order_of


def choose_blocks(n: int, stats: RowStats, mode: str = "sqrt_default") -> int:
    """Pick the block size a for a row of length n, which b = n // a blocks cover.

    sqrt_default takes a = ceil(sqrt(n)); probability grows a by the concentration
    scale L1*Linf*e^{2 L1} so the block tail bound decays. Always 1 <= a <= n/2.
    """
    if n < 4:
        raise ValueError("need n >= 4 to form at least two blocks")
    if mode == "sqrt_default":
        a = math.ceil(math.sqrt(n))
    elif mode == "probability":
        # any scale >= n clamps a to n // 2: saturate instead of overflowing
        scale = max(1.0, stats.l1 * stats.linf * math.exp(min(2.0 * stats.l1, 709.0)))
        a = math.ceil(math.sqrt(min(n * scale, n * n)))
    else:
        raise ValueError(f"unknown block mode {mode!r}")
    return max(1, min(a, n // 2))


def _block_count(n: int, a: int) -> int:
    """b = n // a, the consecutive size-a blocks in n positions; needs 1 <= a <= n."""
    if not 1 <= a <= n:
        raise ValueError(f"block size a = {a} must be >= 1 and at most n = {n}")
    return n // a


_CHUNK_BLOCKS = 4096  # block means per op_norms call in block_gaps (whole trials, at least one)


def block_gaps(row: ArrayRow, orders, a: int) -> tuple[np.ndarray, np.ndarray]:
    """Largest ||block mean - A_n|| and largest |block norm-mean - L1| over the
    b = n // a consecutive size-a blocks of the row read in each order (an index
    array of length n) of the iterable orders; two arrays with one entry per order.

    The n % a positions past a*b are ignored. Each order is reduced as it arrives to
    the (b, 2d^2 + 1) block sums of entries and norms, from one table of the
    row's letters and their norms: per-block letter counts (one bincount)
    times the table when there are at most a letters, else an add.reduceat
    of the permuted table rows. The complex sums are divided by a as mean()
    does, and the block means of up to _CHUNK_BLOCKS share one op_norms call.
    """
    b, d, stats = _block_count(row.n, a), row.d, row.stats
    alphabet, letter_of = row.letters()
    m = len(alphabet)
    table = np.column_stack([alphabet.reshape(m, -1).view(np.float64), op_norms(alphabet)])
    if m > a:
        table = table[letter_of]  # one row per element, summed by reduceat
    offsets = np.repeat(m * np.arange(b), a)  # a letter's bin in its block

    def block_sums(idx):
        if m > a:
            return np.add.reduceat(np.take(table, idx, axis=0), np.arange(0, a * b, a))
        counts = np.bincount(np.take(letter_of, idx) + offsets, minlength=m * b)
        return counts.reshape(b, -1) @ table

    per_chunk, gaps = max(1, _CHUNK_BLOCKS // b), [(np.empty(0),) * 2]  # no orders: empty gaps
    orders = map(_order_of, orders, itertools.repeat(row.n))
    while chunk := [block_sums(o[:a * b]) for o in itertools.islice(orders, per_chunk)]:
        sums = np.stack(chunk)
        means = np.ascontiguousarray(sums[..., :-1]).view(np.complex128).reshape(-1, b, d, d) / a
        gaps.append((op_norms(means - stats.mean).max(axis=1),
                     np.abs(sums[..., -1] / a - stats.l1).max(axis=1)))
    return tuple(map(np.concatenate, zip(*gaps)))


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
    if not math.isfinite(top):
        raise OverflowError(f"3 L1 = {top} overflows a float (the row's L1 is {l1})")
    if not floor < top:
        raise ValueError(f"eps = {floor} must be below 3 L1 = {top}")
    return np.geomspace(floor, top, 12, endpoint=False)
