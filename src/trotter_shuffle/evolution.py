"""Evolution families on [0, 1] as limits of ordered exponential products.

propagators approximates the two-parameter family U(s, t) by the product of
exp(A_i/n) over the grid slice, with the generators read off a matrix-valued
function in time order, in permuted order, or i.i.d. from its distribution.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .linalg import as_matrix, op_norms
from .products import _blocked, exp_factors
from .rows import _alphabet, gen_riemann


def _grid_index(x: float, n: int) -> int:
    """floor(x n), snapped to the nearest integer when x n lies within 1e-9
    relative of it: 0.29 * 100 is 28.999999999999996 in floating point."""
    xn = x * n
    k = round(xn)
    return k if abs(xn - k) <= 1e-9 * max(1.0, xn) else math.floor(xn)


def propagators(fn, n: int, seeds, s: float = 0.0, t: float = 1.0, mode: str = "ordered"):
    """For each of seeds, in turn, the product of exp(A_i/n) over the n-point
    grid positions [s n] .. [t n] - 1 (0-based) of the family fn, the discrete
    propagator from time s to time t; identity when the slice is empty. The
    ordered mode reads no seed. The arguments are checked on the call, before
    any row is built.

    A permuted row is the ordered grid row read through a permutation, so in
    the ordered and permuted modes exp_factors of the grid row is built once
    and _blocked multiplies it in every seed's order; iid builds a row per seed.
    """
    if not (0.0 <= s <= t <= 1.0 and n >= 1 and mode in ("ordered", "permuted", "iid")):
        raise ValueError(f"need 0 <= s <= t <= 1, n >= 1 and mode ordered, permuted or iid; "
                         f"got s={s}, t={t}, n={n}, mode={mode!r}")
    i0, i1 = _grid_index(s, n), _grid_index(t, n)
    if mode == "iid":
        return (u for seed in seeds for u in _blocked(
            exp_factors(gen_riemann(fn, n, mode, seed)), [np.arange(i0, i1)], i1 - i0))
    orders = (np.random.default_rng(seed).permutation(n)[i0:i1] if mode == "permuted"
              else np.arange(i0, i1) for seed in seeds)
    return _blocked(exp_factors(gen_riemann(fn, n, "ordered")), orders, i1 - i0)


def cocycle_check(fn, n: int, r: float, s: float = 0.0, t: float = 1.0) -> float:
    """|| U(s, r) U(r, t) - U(s, t) || on one shared ordered sample path."""
    if not (s <= r <= t):
        raise ValueError(f"r = {r} outside [{s}, {t}]")
    left, right, whole = (next(propagators(fn, n, [0], a, b)) for a, b in ((s, r), (r, t), (s, t)))
    return float(op_norms(left @ right - whole))


# Built-in generator families for configs and experiments. Each maps an array
# of times xs, shape (N,), to the (N, d, d) stack of its values.

def constant_family(matrix) -> Callable[[np.ndarray], np.ndarray]:
    m = as_matrix(matrix, "matrix")
    return lambda xs: np.broadcast_to(m, (len(xs),) + m.shape)


def linear_diagonal_family(diag) -> Callable[[np.ndarray], np.ndarray]:
    """fn(x) = x * diag(entries); values commute across x."""
    m = np.diag(np.asarray(diag, dtype=np.complex128))
    return lambda xs: np.multiply.outer(xs, m)


def step_family(b, c, split: float = 0.5) -> Callable[[np.ndarray], np.ndarray]:
    """fn = b on [0, split), c on [split, 1] (and at a nan time): a gather from the pair."""
    pair = _alphabet([b, c])
    return lambda xs: np.take(pair, (~(xs < split)).view(np.uint8), axis=0)


def rotation_family(scale: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """Hermitian unit-norm generators with a phase winding once around [0, 1];
    the time average is zero, so permuted products should approach the identity."""

    def fn(xs: np.ndarray) -> np.ndarray:
        z = scale * np.exp(2j * np.pi * xs)
        out = np.zeros((len(z), 2, 2), dtype=np.complex128)
        out[:, 0, 1], out[:, 1, 0] = z, np.conj(z)
        return out

    return fn


FAMILIES: dict[str, Callable[..., Callable[[np.ndarray], np.ndarray]]] = {
    "constant": constant_family,
    "linear_diagonal": linear_diagonal_family,
    "step": step_family,
    "rotation": rotation_family,
}
