"""Permuted exponential-product paths and the block-average machinery.

The central objects: partial products P_k = prod_{i<=k} exp(A_{sigma(i)}/n),
their sup-deviation from the reference path exp(k A / n), consecutive-block
schemes, the two block-average conditions (mean and norm), and the
deterministic deviation bound they imply.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, exp_stack, op_norm, op_norms
from .rows import ArrayRow, RowStats, row_stats


@dataclass(frozen=True, eq=False)
class Permutation:
    """A bijection of {0, ..., n-1}; order[k] is the image of position k."""

    order: np.ndarray

    def __post_init__(self):
        o = np.ascontiguousarray(np.asarray(self.order, dtype=np.int64))
        if o is self.order:
            o = o.copy()
        if o.ndim != 1 or o.size < 1:
            raise ValueError("permutation must be a non-empty 1-d index array")
        counts = np.bincount(o, minlength=o.size) if o.min() >= 0 else None
        if counts is None or counts.size != o.size or not (counts == 1).all():
            raise ValueError("not a bijection of 0..n-1")
        o.setflags(write=False)
        object.__setattr__(self, "order", o)

    @property
    def n(self) -> int:
        return self.order.size

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n))


def uniform_permutation(n: int, rng: np.random.Generator) -> Permutation:
    """Uniformly random permutation (Fisher-Yates), deterministic in the stream."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Permutation(rng.permutation(n))


@dataclass(frozen=True)
class BlockScheme:
    """b consecutive blocks of size a covering the first a*b positions."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ValueError("block size and count must be >= 1")

    @property
    def covered(self) -> int:
        return self.a * self.b


def choose_blocks(n: int, stats: RowStats, mode: str = "sqrt_default") -> BlockScheme:
    """Pick a block size for a row of length n.

    sqrt_default takes a = ceil(sqrt(n)). The probability mode grows a by the
    concentration scale L1*Linf*e^{2 L1} so the block tail bound decays; the
    almost_sure mode adds a log n factor for summability. Always 1 <= a <= n/2.
    """
    if n < 4:
        raise ValueError("need n >= 4 to form at least two blocks")
    if mode == "sqrt_default":
        a = math.ceil(math.sqrt(n))
    elif mode in ("probability", "almost_sure"):
        scale = max(1.0, stats.l1 * stats.linf * math.exp(2.0 * stats.l1))
        if mode == "almost_sure":
            scale *= math.log(n)
        a = math.ceil(math.sqrt(n * scale))
    else:
        raise ValueError(f"unknown block mode {mode!r}")
    a = max(1, min(a, n // 2))
    return BlockScheme(a=a, b=n // a)


def exp_factors(row: ArrayRow) -> np.ndarray:
    """exp(A_i / n) for every element, shape (n, d, d).

    Letters (or bit-identical repeated elements) are exponentiated once;
    elements are compared by their bytes, so 0.0 and -0.0 entries differ.
    """
    n = row.n
    if row.alphabet is not None:
        base = exp_stack(row.alphabet / n)
        return base[row.letter_of]
    d = row.d
    keys = np.ascontiguousarray(row.elements).reshape(n, -1).view((np.void, 16 * d * d))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    return exp_stack(row.elements[first] / n)[inverse]


def prefix_products(factors: np.ndarray, order: np.ndarray) -> np.ndarray:
    """P_0 = I, P_k = P_{k-1} factors[order[k-1]]; shape (len(order)+1, d, d).

    A ceil(sqrt(n))-blocked scan (Blelloch 1990): the permuted factors are
    taken into the output buffer, each block of m consecutive positions is
    scanned in place, sequentially over the m steps and batched across the
    blocks, and one pass over the blocks then left-multiplies each block by
    the last prefix of the block before it. About 2 sqrt(n) batched matmuls
    replace n single ones. Identity padding fills the last block; the result
    is a view of the first n+1 entries.

    For d = 2 the same scan runs on the entry planes p[r, c, i, j] (entry
    (r, c) of step i of block j): a step is 8 multiplies and 4 adds on arrays
    of length nb, at ufunc cost rather than a matmul dispatch per product;
    the carries come from a chain of nb single 2x2 products, and one
    broadcast pass applies them all.
    """
    factors = np.asarray(factors, dtype=np.complex128)
    n, d = len(order), factors.shape[-1]
    m = math.isqrt(n - 1) + 1 if n > 1 else 1
    nb = -(-n // m)
    eye = np.eye(d, dtype=np.complex128)
    buf = np.empty((1 + nb * m, d, d), dtype=np.complex128)
    buf[0] = eye
    np.take(factors, order, axis=0, out=buf[1:n + 1])
    buf[n + 1:] = eye
    blocks = buf[1:].reshape(nb, m, d, d)
    if d == 2:
        out = blocks.transpose(2, 3, 1, 0)
        p = out.copy()
        for i in range(1, m):
            p[:, :, i] = p[:, 0, i - 1, None] * p[0, :, i] + p[:, 1, i - 1, None] * p[1, :, i]
        ends = list(itertools.accumulate(p[:, :, -1].transpose(2, 0, 1), np.matmul))
        c = np.reshape(ends[:-1], (-1, 2, 2)).transpose(1, 2, 0)[:, :, None, None]
        out[..., :1] = p[..., :1]
        np.multiply(c[:, 0], p[0, ..., 1:], out=out[..., 1:])
        out[..., 1:] += c[:, 1] * p[1, ..., 1:]
    else:
        for i in range(1, m):
            np.matmul(blocks[:, i - 1], blocks[:, i], out=blocks[:, i])
        for j in range(1, nb):
            np.matmul(blocks[j - 1, -1], blocks[j], out=blocks[j])
    return buf[:n + 1]


def partial_products(row: ArrayRow, sigma: Permutation,
                     factors: np.ndarray | None = None) -> np.ndarray:
    """P_0 = I, P_k = P_{k-1} exp(A_{sigma(k)}/n); shape (n+1, d, d).

    factors, when given, is exp_factors(row), computed once for many sigmas.
    """
    if sigma.n != row.n:
        raise ValueError(f"permutation size {sigma.n} != row length {row.n}")
    return prefix_products(exp_factors(row) if factors is None else factors, sigma.order)


def reference_path(target, n: int) -> np.ndarray:
    """exp(k A / n) for k = 0..n, shape (n+1, d, d).

    With m = ceil(sqrt(n)), entry j m + i is anchors[j] @ powers[i]: the
    step exp(A/n) and every anchor exp(j m A / n) come from one exp_stack
    call, the powers exp(A/n)^i for i < m from the prefix scan, so
    accumulated round-off stays at the sqrt(n) * eps scale. One batched
    matmul forms the whole path.
    """
    a = as_matrix(target, "target")
    if n < 1:
        raise ValueError("n must be >= 1")
    m = math.isqrt(n - 1) + 1
    scales = np.append(1.0 / n, np.arange(n // m + 1) * m / n)
    e = exp_stack(a * scales[:, None, None])
    powers = prefix_products(e[:1], np.zeros(m - 1, dtype=np.int64))
    path = np.matmul(e[1:, None], powers[None])
    return path.reshape(-1, *a.shape)[:n + 1]


@dataclass(frozen=True, eq=False)
class PathReport:
    """Per-step deviations ||P_k - exp(k A/n)|| and their certified supremum.

    sup_dev = max_k deviation + slack, where slack = ||A|| e^{||A||} / n covers
    the motion of exp(t A) inside one grid cell, so sup_dev upper-bounds the
    deviation at every continuous time t in [0, 1].
    """

    deviations: np.ndarray
    sup_dev: float
    slack: float


def path_deviations(row: ArrayRow, sigmas, targets):
    """For each permutation in sigmas, the tuple of PathReports of its product
    path against each target.

    exp_factors(row) and each target's reference path are built once and
    shared by every permutation; each permutation's path is scanned once for
    all targets. A generator, so those arrays live only while it runs.
    """
    tgts = [as_matrix(t, "target") for t in targets]
    factors = exp_factors(row)
    refs = [reference_path(t, row.n) for t in tgts]
    slacks = [nt * math.exp(nt) / row.n for nt in map(op_norm, tgts)]
    for sigma in sigmas:
        prods = partial_products(row, sigma, factors)
        reports = []
        for ref, slack in zip(refs, slacks):
            devs = op_norms(prods - ref)
            devs.setflags(write=False)
            reports.append(PathReport(deviations=devs, sup_dev=float(devs.max()) + slack,
                                      slack=slack))
        yield tuple(reports)


def path_deviation(row: ArrayRow, sigma: Permutation, target) -> PathReport:
    return next(path_deviations(row, [sigma], [target]))[0]


def block_gaps(row: ArrayRow, stats: RowStats, order: np.ndarray,
               scheme: BlockScheme) -> tuple[float, float]:
    """Largest ||block mean - A_n|| and largest |block norm-mean - L1| over the
    b consecutive blocks of the row read in the given order.

    stats is row_stats(row); positions past a*b are ignored.
    """
    idx = order[: scheme.covered]
    blocks = row.elements[idx].reshape(scheme.b, scheme.a, row.d, row.d)
    mean_gap = float(op_norms(blocks.mean(axis=1) - stats.mean).max())
    norms = stats.norms[idx].reshape(scheme.b, scheme.a)
    return mean_gap, float(np.abs(norms.mean(axis=1) - stats.l1).max())


@dataclass(frozen=True)
class BlockConditionReport:
    ok: bool
    worst_mean_gap: float
    worst_norm_gap: float


def check_block_conditions(row: ArrayRow, sigma: Permutation, scheme: BlockScheme,
                           eps: float) -> BlockConditionReport:
    """Worst block-average gaps of the permuted row, in the e^{L1}-weighted form.

    worst_mean_gap  = max_j ||mean_{i in V_j} A_{sigma(i)} - A_n|| e^{L1}
    worst_norm_gap  = max_j |mean_{i in V_j} ||A_{sigma(i)}|| - L1| e^{L1}
    ok means both are <= eps. Positions past a*b are ignored here (the path
    bound handles them as a separate tail).
    """
    if sigma.n != row.n:
        raise ValueError("permutation size mismatch")
    if scheme.covered > row.n:
        raise ValueError(f"scheme covers {scheme.covered} > n = {row.n}")
    stats = row_stats(row)
    scale = math.exp(stats.l1)
    mean_gap, norm_gap = (g * scale for g in block_gaps(row, stats, sigma.order, scheme))
    return BlockConditionReport(ok=(mean_gap <= eps and norm_gap <= eps),
                                worst_mean_gap=mean_gap, worst_norm_gap=norm_gap)


def prop_uniform_bound(l1: float, norm_mean: float, eps: float, b: int) -> float:
    """Deterministic sup-deviation bound implied by block conditions at level eps.

    (3/(2b)) (e^{eps/b} (L1+eps)^2 + (L1+eps+||A_n||) + ||A_n||^2) e^{L1+eps}
        + eps e^{eps}
    """
    if min(l1, norm_mean, eps) < 0 or b < 1:
        raise ValueError("arguments must be non-negative with b >= 1")
    if norm_mean > l1 + 1e-12:
        raise ValueError(f"||A_n|| = {norm_mean} cannot exceed L1 = {l1}")
    s = l1 + eps
    main = (math.exp(eps / b) * s * s + (s + norm_mean) + norm_mean * norm_mean)
    return (3.0 / (2.0 * b)) * main * math.exp(s) + eps * math.exp(eps)
