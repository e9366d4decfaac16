"""Dense complex matrix kernel: operator norm and matrix exponential.

Everything here works on plain numpy arrays of shape (d, d) with complex128
entries, kept dense and small (d is a few dozen at most in practice).
"""

from __future__ import annotations

import numpy as np


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array and reject non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{name} must be a square d x d matrix with d >= 1, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    return a


def op_norm(m) -> float:
    """Operator (spectral) norm: the largest singular value."""
    return float(op_norms(as_matrix(m)))


def op_norms(batch: np.ndarray) -> np.ndarray:
    """Operator norms of a stack of matrices, shape (..., d, d) -> (...).

    d = 1 is |m|. d = 2 uses the closed form for the largest eigenvalue of
    M*M = [[c0, x], [x*, c1]] (c0, c1 the squared column norms, x their inner
    product): sigma^2 = (c0 + c1)/2 + hypot((c0 - c1)/2, |x|), a sum of two
    non-negative terms, so nothing cancels; each matrix is first scaled
    exactly, by a power of two, to a largest entry modulus in [1/2, 1), so
    that squaring neither overflows nor loses the leading terms to underflow.
    Larger d uses batched SVD.
    """
    batch = np.asarray(batch, dtype=np.complex128)
    d = batch.shape[-1]
    if d == 1:
        return np.abs(batch[..., 0, 0])
    if d == 2:
        mod = np.abs(batch)
        top = np.maximum(np.maximum(mod[..., 0, 0], mod[..., 0, 1]),
                         np.maximum(mod[..., 1, 0], mod[..., 1, 1]))
        e = np.frexp(top)[1]
        shift = -e[..., None, None]
        m = np.ldexp(batch.real, shift) + 1j * np.ldexp(batch.imag, shift)
        sq = np.ldexp(mod, shift) ** 2
        c0 = sq[..., 0, 0] + sq[..., 1, 0]
        c1 = sq[..., 0, 1] + sq[..., 1, 1]
        x = np.abs(m[..., 0, 0].conj() * m[..., 0, 1] + m[..., 1, 0].conj() * m[..., 1, 1])
        return np.ldexp(np.sqrt((c0 + c1) / 2.0 + np.hypot((c0 - c1) / 2.0, x)), e)
    return np.linalg.svd(batch, compute_uv=False)[..., 0]


def _series_order(x: float, target: float) -> int:
    """Smallest K with sum_{k>K} x^k/k! <= target (x < 1)."""
    term = x
    k = 1
    while True:
        # remainder <= term_{k+1} / (1 - x/(k+2)), geometric tail bound
        nxt = term * x / (k + 1)
        if nxt / (1.0 - x / (k + 2)) <= target:
            return k
        term = nxt
        k += 1
        if k > 80:  # unreachable for x <= 1/2 and target >= 1e-300
            return k


def mat_exp(m, tol: float = 1e-12) -> np.ndarray:
    """Matrix exponential of one matrix: exp_stack on a stack of one, with the
    truncation error after unscaling below tol * e^{||m||}."""
    a = as_matrix(m)
    if not (0.0 < tol <= 1e-6):
        raise ValueError(f"tol must lie in (0, 1e-6], got {tol}")
    return exp_stack(a[None], tol)[0]


def exp_stack(batch: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    """Exponentials of a stack (k, d, d) by batched scaling and squaring.

    Each matrix is scaled exactly by its own 2^-s to a Frobenius norm (an
    upper bound on the operator norm, so no SVD) of at most 1/2. One truncated
    series, of the order that keeps the error below tol * e^{||m||} after the
    most squarings in the stack, runs over the whole stack; each result is
    then squared s times.
    """
    batch = np.asarray(batch, dtype=np.complex128)
    fro = np.linalg.norm(batch, axis=(1, 2))
    s = np.where(fro > 0.5, np.frexp(fro)[1] + 1, 0)
    x = batch * np.ldexp(1.0, -s)[:, None, None]
    smax = int(s.max(initial=0))
    order = _series_order(np.ldexp(fro, -s).max(initial=1e-3), tol / (4.0 * 2.0**smax))
    eye = np.eye(batch.shape[-1], dtype=np.complex128)
    e = np.broadcast_to(eye, batch.shape).copy()
    for k in range(order, 0, -1):
        np.matmul(x, e, out=e)
        e /= k
        e += eye
    for j in range(smax):
        sel = np.flatnonzero(s > j)
        e[sel] = np.matmul(e[sel], e[sel])
    return e
