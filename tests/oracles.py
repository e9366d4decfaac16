"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: the series oracle sums the
exponential power series to machine saturation with compensated addition, and
the mpmath oracles work at 40 significant digits.
"""

from __future__ import annotations

import numpy as np
import mpmath as mp


def svd_norm(m) -> float:
    """Operator norm via the eigenvalues of M* M (independent of np SVD path)."""
    a = np.asarray(m, dtype=np.complex128)
    w = np.linalg.eigvalsh(a.conj().T @ a)
    return float(np.sqrt(max(w.max(), 0.0)))


def series_exp(m) -> np.ndarray:
    """exp(M) by scaling 2^-s until norm < 1/2, compensated Taylor summation to
    machine saturation, then s squarings."""
    a = np.asarray(m, dtype=np.complex128)
    d = a.shape[0]
    norm = np.linalg.norm(a, 2)
    s = 0
    while norm / 2**s >= 0.5:
        s += 1
    x = a / 2**s
    acc = np.eye(d, dtype=np.complex128)
    comp = np.zeros_like(acc)
    term = np.eye(d, dtype=np.complex128)
    for k in range(1, 80):
        term = term @ x / k
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        if np.abs(term).max() < 1e-40:
            break
    for _ in range(s):
        acc = acc @ acc
    return acc


def to_mp(a) -> mp.matrix:
    a = np.asarray(a, dtype=np.complex128)
    m = mp.matrix(a.shape[0], a.shape[1])
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            m[i, j] = mp.mpc(a[i, j].real, a[i, j].imag)
    return m


def from_mp(m) -> np.ndarray:
    out = np.empty((m.rows, m.cols), dtype=np.complex128)
    for i in range(m.rows):
        for j in range(m.cols):
            z = m[i, j]
            out[i, j] = complex(float(mp.re(z)), float(mp.im(z)))
    return out


def mp_exp(a, dps: int = 40) -> np.ndarray:
    with mp.workdps(dps):
        return from_mp(mp.expm(to_mp(a)))


def mp_product_path(matrices, n: int, dps: int = 40) -> list[np.ndarray]:
    """Partial products of expm(A_i / n) at high precision; returns n+1 arrays."""
    with mp.workdps(dps):
        d = np.asarray(matrices[0]).shape[0]
        acc = mp.eye(d)
        out = [from_mp(acc)]
        for a in matrices:
            acc = acc * mp.expm(to_mp(np.asarray(a) / n))
            out.append(from_mp(acc))
        return out


def random_matrix(rng: np.random.Generator, d: int, norm_cap: float) -> np.ndarray:
    """Dense complex matrix scaled to a uniformly random norm in (0, norm_cap]."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    target = rng.uniform(0.05, 1.0) * norm_cap
    return g * (target / svd_norm(g))


def random_hermitian(rng: np.random.Generator, d: int, norm: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2
    return h * (norm / svd_norm(h))


def sequential_products(factors, order) -> np.ndarray:
    """P_0 = I, P_k = P_{k-1} @ factors[order[k-1]] by a plain left-to-right
    loop: the slow path the blocked prefix scan replaces."""
    f = np.asarray(factors, dtype=np.complex128)
    d = f.shape[-1]
    out = np.empty((len(order) + 1, d, d), dtype=np.complex128)
    p = np.eye(d, dtype=np.complex128)
    out[0] = p
    for k, i in enumerate(order):
        p = p @ f[i]
        out[k + 1] = p
    return out


def gathered_block_gaps(row, order, a) -> tuple[float, float]:
    """Largest ||block mean - A_n|| and |block norm-mean - L1| over the b = n // a
    blocks of size a of one order, by gathering all a*b elements and averaging each block: the
    slow path the per-block sums of tails.block_gaps replace. It shares
    op_norms with the kernel so that exact sums give bit-identical gaps."""
    from trotter_shuffle.linalg import op_norms

    b = row.n // a
    idx, stats = order[: a * b], row.stats
    blocks = row.elements[idx].reshape(b, a, row.d, row.d)
    mean_gap = float(op_norms(blocks.mean(axis=1) - stats.mean).max())
    norms = op_norms(row.elements)[idx].reshape(b, a)
    return mean_gap, float(np.abs(norms.mean(axis=1) - stats.l1).max())
