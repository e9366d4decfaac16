"""Dense matrix kernel: operator norm and matrix exponential.

Plain numpy arrays of shape (d, d), dense and small (d is a few dozen at most).
Each kernel keeps the dtype it is given, float64 or complex128 (kernel_array),
and a float64 input gets the bits of its complex128 copy.
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


def kernel_array(a, real_if_exact: bool = False) -> np.ndarray:
    """a as float64 if it is float64, else as complex128; with real_if_exact
    the data picks: float64 also when every imaginary part is exactly zero."""
    a = np.asarray(a)
    a = a if a.dtype == np.float64 else a.astype(np.complex128, copy=False)
    return a.real.copy() if real_if_exact and not a.imag.any() else a


def op_norms(batch: np.ndarray) -> np.ndarray:
    """Operator norms of a stack of matrices, shape (..., d, d) -> (...).

    d = 1 is |m|. d = 2 uses the closed form for the largest eigenvalue of
    M*M = [[c0, x], [x*, c1]] (c0, c1 the squared column norms, x their inner
    product): sigma^2 = (c0 + c1)/2 + hypot((c0 - c1)/2, |x|), a sum of two
    non-negative terms, so nothing cancels; each matrix is first scaled
    exactly, by a power of two, to a largest entry modulus in [1/2, 1), so
    that squaring neither overflows nor loses the leading terms to underflow.
    Larger d uses batched SVD in complex128 even for a float64 stack (real
    LAPACK rounds otherwise); the closed form runs in chunks of _NORM_CHUNK. d <= 2
    runs on a contiguous copy: numpy's complex abs rounds a negative stride apart.
    """
    batch = kernel_array(batch)
    d = batch.shape[-1]
    if d > 2 and not np.isfinite(batch).all():  # LAPACK fails on these: each such matrix gets nan
        bad = ~np.isfinite(batch).all(axis=(-2, -1))
        return np.where(bad, np.nan, op_norms(np.where(bad[..., None, None], 0, batch)))
    if d > 2:
        return np.linalg.svd(batch.astype(np.complex128, copy=False), compute_uv=False)[..., 0]
    batch = np.ascontiguousarray(batch)
    if d == 1:
        return np.abs(batch[..., 0, 0])
    flat = batch.reshape(-1, 2, 2)
    chunks = (flat[i:i + _NORM_CHUNK] for i in range(0, max(len(flat), 1), _NORM_CHUNK))
    return np.concatenate(list(map(_norms_2x2, chunks))).reshape(batch.shape[:-2])


def _norms_2x2(batch: np.ndarray) -> np.ndarray:
    mod = np.abs(batch)
    top = np.maximum(np.maximum(mod[:, 0, 0], mod[:, 0, 1]),
                     np.maximum(mod[:, 1, 0], mod[:, 1, 1]))
    e = np.frexp(top)[1]
    shift = -e[:, None, None]
    m = np.ldexp(batch.real, shift)
    m = m + 1j * np.ldexp(batch.imag, shift) if np.iscomplexobj(batch) else m
    sq = np.ldexp(mod, shift) ** 2
    c0 = sq[:, 0, 0] + sq[:, 1, 0]
    c1 = sq[:, 0, 1] + sq[:, 1, 1]
    x = np.abs(m[:, 0, 0].conj() * m[:, 0, 1] + m[:, 1, 0].conj() * m[:, 1, 1])
    return np.ldexp(np.sqrt((c0 + c1) / 2.0 + np.hypot((c0 - c1) / 2.0, x)), e)


_NORM_CHUNK = 1024  # matrices per pass of the 2x2 closed form: 64 KB temporaries
_SCREEN_Q = 4  # max_op_norm brackets by the Schatten norm of order 2^(q+1)
_SCREEN_MARGIN, _SCREEN_FLOOR = 1e-8, 1e-300  # relative (>> O(d eps)), absolute (subnormals)
_SCREEN_BYTES = 1 << 16  # bytes of matrices per screening pass


def max_op_norm(batch: np.ndarray, at=None, norms=None) -> float:
    """float(op_norms(batch).max()) for a stack (k, d, d), bit for bit.

    Upper bounds screen the stack: _fro at d <= 2, _bracket at d >= 3, where anchors
    (indices at, norms = op_norms(batch[at])) first bound each M by sigma(A) +
    ||M - A||_F, A its nearest anchor, and only the bounds that reach max(norms) get
    a bracket. The exact norm of the largest bound's matrix is the lower bound; only
    the matrices whose bound reaches it get theirs. A bound reaches a norm unless,
    widened by the margins (roundoff, subnormals), it is below it: a NaN keeps its matrix.
    """
    batch = kernel_array(batch)
    d = batch.shape[-1]
    step, idx = max(1, _SCREEN_BYTES // (batch.itemsize * d * d)), np.arange(len(batch))
    if d > 2 and at is not None and len(at):
        near = np.searchsorted((at[1:] + at[:-1]) / 2, idx)
        e = np.frexp(lower := norms.max())[1]  # overflow gives inf (kept), underflow << lower
        bound = np.concatenate([norms[near[i:i + step]] + _fro(
            batch[i:i + step] - batch[at[near[i:i + step]]], e) for i in range(0, len(idx), step)])
        idx = idx[~(bound * (1.0 + _SCREEN_MARGIN) + _SCREEN_FLOOR < lower)]
    upper = np.concatenate([_fro(batch[i:i + step]) if d <= 2 else _bracket(batch[idx[i:i + step]])
                            for i in range(0, len(idx), step)])
    lower = op_norms(batch[idx[upper.argmax()], None])
    keep = idx[~(upper * (1.0 + _SCREEN_MARGIN) + _SCREEN_FLOOR < lower)]
    return float(op_norms(batch[keep]).max())


def _fro(m: np.ndarray, e=None) -> np.ndarray:
    """Frobenius norms of a pass (j, d, d), squared after one exact scale by 2^-e
    (by default e of the pass's largest entry: no overflow, no lost maximum)."""
    y = m.reshape(len(m), -1).view(np.float64)
    y = np.ldexp(y, -(e := np.frexp(np.abs(y).max())[1] if e is None else e))
    return np.ldexp(np.sqrt(np.einsum("ij,ij->i", y, y)), e)


def _bracket(m: np.ndarray) -> np.ndarray:
    """Bounds ||H||_F^(1/p) >= sigma_max(Y) of a pass (j, d, d), Y = M / max|m_ij|, p = 2^q,
    H = (Y*Y)^(p/2) (Bhatia, ch. IV; no overflow: Y*Y has eigenvalues in [0, d^2])."""
    top = np.abs(m).max(axis=(1, 2))
    y = m / np.where(top > 0, top, 1.0)[:, None, None]
    h = np.linalg.matrix_power(y.conj().transpose(0, 2, 1) @ y, 2 ** (_SCREEN_Q - 1))
    return top * np.linalg.norm(h, axis=(1, 2)) ** (0.5 ** _SCREEN_Q)


def _series_order(x: float, target: float) -> int:
    """Smallest K with sum_{k>K} x^k/k! <= target (x < 1)."""
    term = x
    k = 1
    while True:
        # sum_{j>k} x^j/j! <= term_{k+1} / (1 - x/(k+2)), geometric tail bound
        nxt = term * x / (k + 1)
        if nxt / (1.0 - x / (k + 2)) <= target:
            return k
        term = nxt
        k += 1
        if k > 80:  # unreachable for x <= 1/2 and target >= 1e-300
            return k


def exp_stack(batch: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    """Exponentials of a stack (k, d, d) by batched scaling and squaring.

    Each matrix is scaled exactly by its own 2^-s to a Frobenius norm (an
    upper bound on the operator norm, so no SVD) of at most 1/2. One truncated
    series, of the order that keeps the error below tol * e^{||m||} after the
    most squarings in the stack, runs over the whole stack; each result is
    then squared s times. The result has the dtype of kernel_array(batch).
    """
    batch = kernel_array(batch)
    fro = np.linalg.norm(batch, axis=(1, 2))
    s = np.where(fro > 0.5, np.frexp(fro)[1] + 1, 0)
    x = batch * np.ldexp(1.0, -s)[:, None, None]
    smax = int(s.max(initial=0))
    order = _series_order(np.ldexp(fro, -s).max(initial=1e-3), tol / (4.0 * 2.0**smax))
    eye = np.eye(batch.shape[-1], dtype=batch.dtype)
    e = np.broadcast_to(eye, batch.shape).copy()
    for k in range(order, 0, -1):
        np.matmul(x, e, out=e)
        e *= 1.0 / k  # as complex128 divides by a real k, so float64 gets its bits
        e += eye
    for j in range(smax):
        sel = np.flatnonzero(s > j)
        e[sel] = np.matmul(e[sel], e[sel])
    return e
