"""Evolution families on [0, 1] as limits of ordered exponential products.

propagate approximates the two-parameter family U(s, t) by the product of
exp(A_i/n) over the grid slice, with the generators read off a matrix-valued
function in time order, in permuted order, or i.i.d. from its distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import as_matrix, op_norm
from .products import exp_factors, prefix_products
from .rows import ArrayRow, gen_riemann


@dataclass(frozen=True)
class PropagatorSpec:
    fn: Callable[[float], np.ndarray]
    s: float = 0.0
    t: float = 1.0
    n: int = 1000
    mode: str = "ordered"
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        if not (0.0 <= self.s <= self.t <= 1.0):
            raise ValueError(f"need 0 <= s <= t <= 1, got s={self.s}, t={self.t}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.mode not in ("ordered", "permuted", "iid"):
            raise ValueError(f"unknown mode {self.mode!r}")


def riemann_integral(fn: Callable[[float], np.ndarray], n: int) -> np.ndarray:
    """Left-endpoint Riemann sum (1/n) sum_{i<n} fn(i/n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    acc = as_matrix(fn(0.0), "fn value").copy()
    for i in range(1, n):
        acc += as_matrix(fn(i / n), "fn value")
    return acc / n


def sample_row(spec: PropagatorSpec) -> ArrayRow:
    return gen_riemann(spec.fn, spec.n, mode=spec.mode, seed=spec.seed)


def _grid_index(x: float, n: int) -> int:
    """floor(x n), snapped to the nearest integer when x n lies within 1e-9
    relative of it: 0.29 * 100 is 28.999999999999996 in floating point."""
    xn = x * n
    k = round(xn)
    return k if abs(xn - k) <= 1e-9 * max(1.0, xn) else math.floor(xn)


def propagate(spec: PropagatorSpec, row: ArrayRow | None = None) -> np.ndarray:
    """Product of exp(A_i/n) over grid positions [s n] .. [t n] - 1 (0-based),
    the discrete propagator from time s to time t; identity when the slice is
    empty. A prebuilt row (from sample_row) can be reused across calls."""
    if row is None:
        row = sample_row(spec)
    elif row.n != spec.n:
        raise ValueError("supplied row length differs from spec.n")
    i0, i1 = _grid_index(spec.s, spec.n), _grid_index(spec.t, spec.n)
    return prefix_products(exp_factors(row), np.arange(i0, i1))[-1].copy()


def cocycle_check(spec: PropagatorSpec, r: float) -> float:
    """|| U(s, r) U(r, t) - U(s, t) || on one shared ordered sample path."""
    if not (spec.s <= r <= spec.t):
        raise ValueError(f"r = {r} outside [{spec.s}, {spec.t}]")
    if spec.mode != "ordered":
        raise ValueError("cocycle check is defined for the ordered mode")
    row = sample_row(spec)
    n = spec.n
    i0, im, i1 = (_grid_index(x, n) for x in (spec.s, r, spec.t))
    factors = exp_factors(row)
    left, right, whole = (prefix_products(factors, np.arange(a, b))[-1]
                          for a, b in ((i0, im), (im, i1), (i0, i1)))
    return op_norm(left @ right - whole)


# Built-in generator families for configs and experiments.

def constant_family(a) -> Callable[[float], np.ndarray]:
    m = as_matrix(a, "a")
    return lambda x: m


def linear_diagonal_family(diag) -> Callable[[float], np.ndarray]:
    """fn(x) = x * diag(entries); values commute across x."""
    m = np.diag(np.asarray(diag, dtype=np.complex128))
    return lambda x: x * m


def step_family(b, c, split: float = 0.5) -> Callable[[float], np.ndarray]:
    """fn = b on [0, split), c on [split, 1]."""
    bm = as_matrix(b, "b")
    cm = as_matrix(c, "c")
    if bm.shape != cm.shape:
        raise ValueError("b and c must have the same dimension")
    return lambda x: bm if x < split else cm


def rotation_family(scale: float = 1.0) -> Callable[[float], np.ndarray]:
    """Hermitian unit-norm generators with a phase winding once around [0, 1];
    the time average is zero, so permuted products should approach the identity."""

    def fn(x: float) -> np.ndarray:
        z = scale * np.exp(2j * np.pi * x)
        return np.array([[0.0, z], [np.conj(z), 0.0]], dtype=np.complex128)

    return fn


FAMILIES: dict[str, Callable[..., Callable[[float], np.ndarray]]] = {
    "constant": constant_family,
    "linear_diagonal": linear_diagonal_family,
    "step": step_family,
    "rotation": rotation_family,
}
