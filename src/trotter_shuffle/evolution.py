"""Evolution families on [0, 1] as limits of ordered exponential products.

propagators approximates the two-parameter family U(s, t) by the product of
exp(A_i/n) over the grid slice, with the generators read off a matrix-valued
function in time order, in permuted order, or i.i.d. from its distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .linalg import as_matrix, op_norms
from .products import _blocked, exp_factors
from .rows import _alphabet, gen_riemann


@dataclass(frozen=True)
class PropagatorSpec:
    fn: Callable[[np.ndarray], np.ndarray]
    s: float = 0.0
    t: float = 1.0
    n: int = 1000
    mode: str = "ordered"

    def __post_init__(self):
        if not (0.0 <= self.s <= self.t <= 1.0):
            raise ValueError(f"need 0 <= s <= t <= 1, got s={self.s}, t={self.t}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.mode not in ("ordered", "permuted", "iid"):
            raise ValueError(f"unknown mode {self.mode!r}")


def _grid_index(x: float, n: int) -> int:
    """floor(x n), snapped to the nearest integer when x n lies within 1e-9
    relative of it: 0.29 * 100 is 28.999999999999996 in floating point."""
    xn = x * n
    k = round(xn)
    return k if abs(xn - k) <= 1e-9 * max(1.0, xn) else math.floor(xn)


def propagators(spec: PropagatorSpec, seeds):
    """For each of seeds, in turn, the product of exp(A_i/n) over grid positions
    [s n] .. [t n] - 1 (0-based), the discrete propagator from time s to time t;
    identity when the slice is empty. The ordered mode reads no seed.

    A permuted row is the ordered grid row read through a permutation, so in
    the ordered and permuted modes exp_factors of the grid row is built once
    and _blocked multiplies it in every seed's order; iid builds a row per seed.
    """
    n, mode = spec.n, spec.mode
    i0, i1 = _grid_index(spec.s, n), _grid_index(spec.t, n)
    if mode == "iid":
        for seed in seeds:
            row = gen_riemann(spec.fn, n, mode, seed)
            yield from _blocked(exp_factors(row), [np.arange(i0, i1)], i1 - i0)
        return
    orders = (np.random.default_rng(seed).permutation(n)[i0:i1] if mode == "permuted"
              else np.arange(i0, i1) for seed in seeds)
    yield from _blocked(exp_factors(gen_riemann(spec.fn, n, "ordered")), orders, i1 - i0)


def cocycle_check(spec: PropagatorSpec, r: float) -> float:
    """|| U(s, r) U(r, t) - U(s, t) || on one shared ordered sample path."""
    if not (spec.s <= r <= spec.t):
        raise ValueError(f"r = {r} outside [{spec.s}, {spec.t}]")
    if spec.mode != "ordered":
        raise ValueError("cocycle check is defined for the ordered mode")
    left, right, whole = (next(propagators(p, [0])) for p in
                          (replace(spec, t=r), replace(spec, s=r), spec))
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
    """fn = b on [0, split), c on [split, 1]."""
    bm, cm = _alphabet([b, c])
    return lambda xs: np.where((xs < split)[:, None, None], bm, cm)


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
