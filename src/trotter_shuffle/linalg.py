"""Dense complex matrix kernel: operator norm, matrix exponential, dilation, commutator.

Everything here works on plain numpy arrays of shape (d, d) with complex128
entries, kept dense and small (d is a few dozen at most in practice).
"""

from __future__ import annotations

import math

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
    """Matrix exponential by scaling-and-squaring with a truncated power series.

    The scaled matrix has norm <= 1/2; the series order is chosen so the
    truncation error after unscaling stays below tol * e^{||m||}.
    """
    a = as_matrix(m)
    if not (0.0 < tol <= 1e-6):
        raise ValueError(f"tol must lie in (0, 1e-6], got {tol}")
    d = a.shape[0]
    norm = op_norm(a)
    s = 0 if norm <= 0.5 else max(0, math.ceil(math.log2(norm / 0.5)))
    x = a / (2.0**s)
    order = _series_order(0.5, tol / (4.0 * 2.0**s))
    eye = np.eye(d, dtype=np.complex128)
    e = eye.copy()
    for k in range(order, 0, -1):
        e = eye + (x / k) @ e
    for _ in range(s):
        e = e @ e
    return e


def exp_stack(batch: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    """Exponentials of a stack (k, d, d) of matrices with norms <= 1/2.

    Single truncated series evaluated with batched matmuls; callers scale
    first. Falls back to per-matrix mat_exp when the norm bound fails.
    """
    batch = np.asarray(batch, dtype=np.complex128)
    norms = op_norms(batch)
    nmax = float(norms.max()) if norms.size else 0.0
    if nmax > 0.5:
        return np.stack([mat_exp(b, tol=min(tol, 1e-6)) for b in batch])
    d = batch.shape[-1]
    order = _series_order(max(nmax, 1e-3), tol)
    eye = np.eye(d, dtype=np.complex128)
    e = np.broadcast_to(eye, batch.shape).copy()
    for k in range(order, 0, -1):
        e = eye + np.matmul(batch / k, e)
    return e


def hermitian_dilation(m) -> np.ndarray:
    """[[0, M], [M*, 0]]: Hermitian, same operator norm as M."""
    a = as_matrix(m)
    d = a.shape[0]
    h = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    h[:d, d:] = a
    h[d:, :d] = a.conj().T
    return h


def commutator(a, b) -> np.ndarray:
    """AB - BA."""
    x = as_matrix(a, "a")
    y = as_matrix(b, "b")
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return x @ y - y @ x
