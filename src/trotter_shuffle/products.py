"""The deterministic half of the proof, valid in any Banach algebra.

Partial products P_k = prod_{i<=k} exp(A_{sigma(i)}/n), their sup-deviation from
the reference path exp(k A / n) (path_deviations), and the deviation bound that
block-average gaps within eps (tails.block_gaps), weighted by e^{L1}, imply
(prop_uniform_bound).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, exp_stack, kernel_array, max_op_norm, op_norms
from .rows import ArrayRow, _freeze, _order_of


def exp_factors(row: ArrayRow) -> np.ndarray:
    """exp(A_i / n) for every element, shape (n, d, d): each of row.letters()
    is exponentiated once. float64 when every A_i is real, else complex128."""
    alphabet, letter_of = row.letters()
    alphabet = kernel_array(alphabet / row.n, True)  # after A / n: complex128 computes A * (1/n)
    return exp_stack(alphabet)[letter_of]


def prefix_products(factors: np.ndarray, order: np.ndarray) -> np.ndarray:
    """P_0 = I, P_k = P_{k-1} factors[order[k-1]]; shape (len(order)+1, d, d), in
    the dtype of the factors. An index outside the factors raises IndexError."""
    return next(_blocked(factors, [order], len(order), True))


def _plane_product(a, b):
    """a @ b on 2x2 entry planes (a[r, c] is entry (r, c) of every matrix)."""
    return a[:, 0, None] * b[0] + a[:, 1, None] * b[1]


def _carry(c, p, out):
    """out = c @ p on 2x2 entry planes, c with a unit axis for p[0]'s columns.
    The second terms go into p's rows once read, so row 1 is p[1] * c[1, 1]:
    complex multiply does not commute in the last bit."""
    np.multiply(c[:, 0], p[0], out=out)
    np.multiply(c[0, 1], p[1], out=p[0])
    p[1] *= c[1, 1]
    out += p


_PRODUCT_STEPS = 1 << 15  # order positions per pass without paths (whole orders, at least one)


def _blocked(factors, orders, n: int, paths: bool = False):
    """prefix_products(factors, order), or with paths false its last entry, bit
    for bit, for each order of the iterable orders, all of length n.

    A ceil(sqrt(n))-blocked scan (Blelloch 1990): the m steps of the nb blocks
    of consecutive positions run batched across the blocks, then the chained
    block ends carry each block onto the next. For d = 2 the steps run on the
    entry planes p[r, c, i, j] (entry (r, c) of step i of block j). With paths,
    a pass scans one order in place in a buffer allocated once per call (valid
    until the next is drawn). Without, a pass steps whole orders, up to
    _PRODUCT_STEPS positions, with one gather per step and one running product
    per block, and carries the last block at step n - 1 alone.
    """
    factors = kernel_array(factors)
    k, d = len(factors), factors.shape[-1]
    m = math.isqrt(max(n - 1, 0)) + 1
    nb, last = max(1, -(-n // m)), (n - 1) % m  # blocks (n = 0: one of padding); step of n - 1
    step, axis = (_plane_product, 2) if d == 2 else (np.matmul, 0)  # d = 2: entries first

    def checked(o):  # o range-checked, a negative index counted from the end
        if n and not -k <= (lo := np.min(o)) <= np.max(o) < k:
            raise IndexError(f"order indexes outside the {k} factors")
        return o % k if n and lo < 0 else o

    def matrices(planes):  # a view with the matrices last
        return np.moveaxis(planes, (0, 1), (-2, -1)) if d == 2 else planes

    if paths:
        buf = np.zeros((1 + nb * m, d, d), dtype=factors.dtype)  # zero pads: no prefix reads them
        buf[0] = np.eye(d)
        blocks = buf[1:].reshape(nb, m, d, d)
        out = blocks.transpose(2, 3, 1, 0)  # for d = 2, the entry planes of the path
        p = np.empty((2, 2, m, nb), dtype=factors.dtype) if d == 2 else blocks.swapaxes(0, 1)
        steps = np.moveaxis(p, axis, 0)
        for o in orders:
            np.take(factors, checked(o), axis=0, out=buf[1:n + 1], mode="clip")  # "raise" buffers
            if d == 2:
                np.copyto(p, out)
            for i in range(1, m):
                steps[i] = step(steps[i - 1], steps[i])
            if d == 2:  # the chained block ends, applied in one broadcast pass
                ends = list(itertools.accumulate(matrices(steps[-1])[:-1], np.matmul))
                c = np.reshape(ends, (-1, 2, 2)).transpose(1, 2, 0)[:, :, None, None]
                out[..., :1] = p[..., :1]
                _carry(c, p[..., 1:], out[..., 1:])
            else:  # block by block after the one before: a matmul over the stack would copy it
                for j in range(1, nb):
                    np.matmul(blocks[j - 1, -1], blocks[j], out=blocks[j])
            yield buf[:n + 1]
        return
    table = np.ascontiguousarray(np.moveaxis(np.concatenate([factors, np.eye(d)[None]]), 0, axis))

    def one_pass(chunk):  # its arrays are freed before the next chunk is drawn
        idx = np.empty((m, len(chunk), nb), dtype=np.intp)  # step i of block j of order q
        for q, o in enumerate(chunk):  # k, the identity last in the table, pads the last block
            idx[:, q] = np.concatenate([checked(o), np.full(nb * m - n, k)]).reshape(nb, m).T
        tail = acc = np.take(table, idx[0], axis=axis)
        for i in range(1, m):
            acc = step(acc, np.take(table, idx[i], axis=axis))
            tail = acc if i == last else tail
        if nb == 1:
            return matrices(tail)[:, -1].copy()
        *_, carry = itertools.accumulate(matrices(acc).swapaxes(0, 1)[:-1], np.matmul)
        if d != 2:
            return np.matmul(carry, tail[:, -1])
        res = np.empty((len(chunk), 2, 2), dtype=factors.dtype)
        c = np.moveaxis(carry, 0, -1).copy()  # as a view of acc (nb = 2) numpy would skip FMA
        _carry(c[:, :, None], tail[..., -1], np.moveaxis(res, 0, -1))
        return res

    orders = iter(orders)
    while chunk := list(itertools.islice(orders, max(1, _PRODUCT_STEPS // max(n, 1)))):
        yield from one_pass(chunk)


def reference_path(target, n: int) -> np.ndarray:
    """exp(k A / n) for k = 0..n, shape (n+1, d, d).

    With m = ceil(sqrt(n)), entry j m + i is anchors[j] @ powers[i]: the
    step exp(A/n) and every anchor exp(j m A / n) come from one exp_stack
    call, the powers exp(A/n)^i for i < m from the prefix scan, so
    accumulated round-off stays at the sqrt(n) * eps scale. One batched
    matmul forms the whole path. float64 when the target is real, else complex128.
    """
    a = kernel_array(as_matrix(target, "target"), True)
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
    """Deviations ||P_k - exp(k A/n)|| on the grid ks of the min(n, 100) + 1 steps
    round(m n / 100), m = 0..100 (0 and n among them), and the certified supremum over all k.

    sup_dev = max_k deviation + slack, where slack = ||A|| e^{||A||} / n covers
    the motion of exp(t A) inside one grid cell, so sup_dev upper-bounds the
    deviation at every continuous time t in [0, 1].
    """

    ks: np.ndarray
    deviations: np.ndarray
    sup_dev: float
    slack: float


def path_deviations(row: ArrayRow, orders, targets):
    """For each order (an index array of length n) of the iterable orders, the
    tuple of PathReports of its product path against each target.

    exp_factors(row) and each target's reference path are built once and
    shared by every order; each order's path is scanned once for all targets.
    The scan workspace and one difference stack are allocated once and
    rewritten by every order. A generator, so those arrays live only while it
    runs.
    """
    tgts = [as_matrix(t, "target") for t in targets]
    try:
        slacks = [nt * math.exp(nt) / row.n for nt in map(float, map(op_norms, tgts))]
    except OverflowError:  # e^||A|| past the largest float
        raise OverflowError(f"path slack ||A|| e^||A|| / n overflows a float at target norm "
                            f"||A|| = {max(map(op_norms, tgts)):.6g}") from None
    factors = exp_factors(row)
    refs = [reference_path(t, row.n) for t in tgts]
    ks = _freeze(np.array(sorted({round(m * row.n / 100) for m in range(101)})))
    diff = np.empty((row.n + 1, row.d, row.d), dtype=np.result_type(factors, *refs))
    for prods in _blocked(factors, map(_order_of, orders, itertools.repeat(row.n)), row.n, True):
        devs = (np.subtract(prods, ref, out=diff) for ref in refs)  # read before the next one
        yield tuple(PathReport(ks, g := _freeze(op_norms(dev[ks])), max_op_norm(dev, ks, g) + s, s)
                    for dev, s in zip(devs, slacks))


def prop_uniform_bound(l1: float, norm_mean: float, eps: float, b: int) -> float:
    """Deterministic sup-deviation bound implied by block conditions at level eps,
    inf past the largest float; ||A_n|| may exceed L1 by roundoff relative to L1.

    (3/(2b)) (e^{eps/b} (L1+eps)^2 + (L1+eps+||A_n||) + ||A_n||^2) e^{L1+eps}
        + eps e^{eps}
    """
    if min(l1, norm_mean, eps) < 0 or b < 1:
        raise ValueError("arguments must be non-negative with b >= 1")
    if norm_mean > l1 * (1.0 + 1e-9) + 1e-12:
        raise ValueError(f"||A_n|| = {norm_mean} cannot exceed L1 = {l1}")
    s = l1 + eps
    try:
        main = (math.exp(eps / b) * s * s + (s + norm_mean) + norm_mean * norm_mean)
        return (3.0 / (2.0 * b)) * main * math.exp(s) + eps * math.exp(eps)
    except OverflowError:
        return math.inf
