"""Construction of triangular-array rows and their summary statistics.

A row is the finite family {A_i : 1 <= i <= n} of d x d complex matrices used
at one discretization level. Generators build the structured rows the
experiments need: two-letter rows, periodically repeated letters, spiked-norm
ensembles, and Riemann samples of a matrix-valued function on [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .linalg import as_matrix, op_norms


class InfeasibleRegimeError(ValueError):
    """Spiked-regime parameters produce an unusable spike count or norm."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _order_of(order: np.ndarray, n: int) -> np.ndarray:
    if len(order) != n:
        raise ValueError(f"permutation size {len(order)} != row length {n}")
    return order


@dataclass(frozen=True, eq=False)
class RowStats:
    """Row mean and the two norm statistics: L1 = mean element operator norm,
    Linf = max element operator norm."""

    mean: np.ndarray
    l1: float
    linf: float


@dataclass(frozen=True, eq=False)
class ArrayRow:
    """One row of a triangular array: elements has shape (n, d, d)."""

    elements: np.ndarray

    def __post_init__(self):
        e = np.array(self.elements, dtype=np.complex128, order="C")  # owned: freezing cannot leak
        if e.ndim != 3 or e.shape[0] < 1 or e.shape[1] != e.shape[2] or e.shape[1] < 1:
            raise ValueError(f"elements must have shape (n, d, d), n,d >= 1; got {e.shape}")
        if not np.isfinite(e).all():
            raise ValueError("row has non-finite entries")
        object.__setattr__(self, "elements", _freeze(e))

    @property
    def n(self) -> int:
        return self.elements.shape[0]

    @property
    def d(self) -> int:
        return self.elements.shape[1]

    @cached_property
    def stats(self) -> RowStats:
        heads, runs = self._runs
        norms = np.repeat(op_norms(self.elements[heads]), runs)  # one norm per run
        return RowStats(mean=_freeze(self.elements.mean(axis=0)),
                        l1=float(norms.mean()), linf=float(norms.max()))

    def letters(self) -> tuple[np.ndarray, np.ndarray]:
        """(alphabet, letter_of) with elements == alphabet[letter_of] bit for bit:
        the distinct elements by their bytes (0.0 and -0.0 differ), in order of
        first occurrence, gathered on each call from the cached _letter_index.
        len(alphabet) is the count c_n."""
        return self.elements[self._letter_index[0]], self._letter_index[1]

    @cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray]:
        """(heads, lengths) of the runs of byte-equal neighbours, read-only: O(n)."""
        words = self.elements.reshape(self.n, -1).view(np.uint64)
        moved = words[1:] != words[:-1]
        if moved.shape[1] % 8 == 0:  # read the booleans 8 bytes at a time
            moved = moved.view(np.uint64)
        heads = np.flatnonzero(np.r_[True, moved.any(axis=1)])
        return _freeze(heads), _freeze(np.diff(np.r_[heads, self.n]))

    @cached_property
    def _letter_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(first positions, letter_of), read-only, from a sort of the run heads."""
        heads, runs = self._runs
        keys = self.elements[heads].reshape(len(heads), -1).view((np.void, 16 * self.d ** 2))
        _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
        order = np.argsort(first)  # sorted-bytes label -> first-occurrence label
        return _freeze(heads[first[order]]), _freeze(np.repeat(np.argsort(order)[inverse], runs))


def _alphabet(matrices) -> np.ndarray:
    """The letters as one stack (np.stack rejects letters of different shapes)."""
    return np.stack([as_matrix(m, "letter") for m in matrices])


def gen_two_letter(n: int, b, c, order: str = "first_half_b") -> ArrayRow:
    """Row with two letters, n/2 copies each, either contiguous or interleaved."""
    if n % 2 != 0 or n < 2:
        raise ValueError(f"n must be a positive even integer, got {n}")
    if order not in ("first_half_b", "interleaved"):
        raise ValueError(f"unknown order {order!r}")
    pair = _alphabet([b, c])
    return ArrayRow(np.repeat(pair, n // 2, axis=0) if order == "first_half_b"
                    else np.tile(pair, (n // 2, 1, 1)))


def gen_repeated(letters, n: int) -> ArrayRow:
    """Periodic row: position p < a*b carries letters[p mod a], b = floor(n/a), and
    the n - a*b leftover slots the zero matrix, whose exponential factor is the identity."""
    alphabet = _alphabet(letters)
    a = len(alphabet)
    if a > n:
        raise ValueError(f"more letters ({a}) than row slots ({n})")
    alphabet = np.concatenate([alphabet, np.zeros_like(alphabet[:1])])  # letter a: zero
    return ArrayRow(alphabet[np.r_[np.tile(np.arange(a), n // a), np.full(n % a, a)]])


REGIMES = ("prob_regime", "as_regime", "large_linf", "bounded_log", "intermediate")


@dataclass(frozen=True)
class RegimeSpec:
    """Parameters of a spiked-norm row regime.

    delta tunes the log-log corrections; alpha/beta/t shape the intermediate
    regime; linf is the free spike norm of the prob/as regimes (those two
    formulas determine the spike count from n and the norm, not the norm
    itself) and defaults to sqrt(n) when omitted.
    """

    regime: str
    delta: float = 0.1
    alpha: float = 0.5
    beta: float = 0.0
    t: float = 1.0
    linf: float | None = None

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}, expected one of {REGIMES}")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if self.regime == "intermediate":
            ok = 0 < self.t <= 1 and (0 < self.alpha < 1 or (self.alpha == 1 and self.beta <= 0))
            if not ok:
                raise ValueError("intermediate regime needs 0 < t <= 1 and "
                                 "0 < alpha < 1, or alpha = 1 with beta <= 0")
        if self.linf is not None and not self.linf > 0:
            raise ValueError("linf must be positive when given")


def spiked_parameters(n: int, spec: RegimeSpec) -> tuple[int, float]:
    """Spike count k_n and spike norm for a regime at row length n.

    Raises InfeasibleRegimeError when the formulas overflow or give a non-finite
    k_n, k_n < 1, k_n > n, or a non-positive or non-finite norm at this n.
    """
    if n < 2:
        raise InfeasibleRegimeError(f"row length n = {n} too small")
    ln = math.log(n)
    lln = math.log(ln)
    delta = spec.delta
    try:
        if spec.regime in ("prob_regime", "as_regime"):
            linf = spec.linf if spec.linf is not None else math.sqrt(n)
            ratio = n / linf
            if ratio <= math.e:
                raise InfeasibleRegimeError(f"{spec.regime} n/linf = {ratio:.6g} too small "
                                            f"for the log-log correction at n = {n}")
            lr = math.log(ratio)
            llr = math.log(lr)
            if spec.regime == "prob_regime":
                k_raw = (n / (3.0 * linf)) * (lr - (4.0 + 2.0 * delta) * llr)
            else:
                k_raw = (n / (3.0 * linf)) * (lr - lln - (3.0 + delta) * llr)
        elif spec.regime == "large_linf":
            if lln <= 0:  # a power 3 + 2 delta of a negative number is complex
                raise InfeasibleRegimeError(f"large_linf needs log log n > 0, got n = {n}")
            scale = ln * lln ** (3.0 + 2.0 * delta)
            linf = n / scale
            k_raw = scale / 3.0
        elif spec.regime == "bounded_log":
            linf = (ln - (5.0 + delta) * lln) / 3.0
            k_raw = float(n)
        else:  # intermediate
            linf = (1.0 / (3.0 * spec.t)) * n ** (1.0 - spec.alpha) * ln ** (1.0 - spec.beta)
            k_raw = spec.alpha * spec.t * n ** spec.alpha * ln ** spec.beta
    except OverflowError as exc:  # a float power past the largest double
        raise InfeasibleRegimeError(f"{spec.regime} formulas overflow at n = {n}") from exc
    if linf <= 0 or not math.isfinite(linf):
        raise InfeasibleRegimeError(f"{spec.regime} spike norm formula gives {linf!r} at n = {n}")
    if not math.isfinite(k_raw):
        raise InfeasibleRegimeError(f"{spec.regime} spike count formula gives {k_raw!r} at n = {n}")
    k = math.floor(k_raw + 0.5)
    if k < 1:
        raise InfeasibleRegimeError(
            f"{spec.regime} spike count formula gives {k_raw:.6g} (rounds to {k} < 1) at n = {n}")
    if k > n:
        raise InfeasibleRegimeError(
            f"{spec.regime} spike count formula gives {k_raw:.6g} > n = {n}")
    return k, float(linf)


def random_unit_hermitians(k: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """k independent Hermitian matrices with operator norm exactly 1."""
    g = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    h = (g + np.conj(np.swapaxes(g, -1, -2))) / 2.0
    return h / op_norms(h)[:, None, None]


def gen_spiked(n: int, spec: RegimeSpec, rng: np.random.Generator, d: int = 2) -> ArrayRow:
    """Spiked-norm row: k_n random unit-norm Hermitians scaled to norm linf, then
    n - k_n random unit-norm Hermitians, drawn from rng in that order."""
    k, linf = spiked_parameters(n, spec)
    spikes = random_unit_hermitians(k, d, rng)
    spikes *= linf
    return ArrayRow(np.concatenate([spikes, random_unit_hermitians(n - k, d, rng)]))


def gen_riemann(fn: Callable[[np.ndarray], np.ndarray], n: int, mode: str = "ordered",
                seed: int | tuple[int, ...] | np.random.Generator = 0) -> ArrayRow:
    """Row sampled from a matrix-valued function on [0, 1].

    fn maps an array of times, shape (n,), to the stack of its values, shape
    (n, d, d). ordered evaluates at the left endpoints i/n, i = 0..n-1;
    permuted evaluates the same grid through a uniform permutation; iid draws
    n independent uniform points.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode not in ("ordered", "permuted", "iid"):
        raise ValueError(f"unknown sampling mode {mode!r}")
    rng = np.random.default_rng(seed)
    if mode == "ordered":
        xs = np.arange(n) / n
    elif mode == "permuted":
        xs = rng.permutation(n) / n
    else:
        xs = rng.random(n)
    elements = np.asarray(fn(xs))
    if elements.ndim != 3 or elements.shape[0] != n or elements.shape[1] != elements.shape[2]:
        raise ValueError(f"fn must return shape ({n}, d, d), got {elements.shape}")
    return ArrayRow(elements)
