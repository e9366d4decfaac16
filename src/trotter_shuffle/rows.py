"""Construction of triangular-array rows and their summary statistics.

A row is the finite family {A_i : 1 <= i <= n} of d x d complex matrices used
at one discretization level. Generators build the structured rows the
experiments need: two-letter rows, periodically repeated letters, spiked-norm
ensembles, and Riemann samples of a matrix-valued function on [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import as_matrix, op_norms


class InfeasibleRegimeError(ValueError):
    """Spiked-regime parameters produce an unusable spike count or norm."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _own(a, dtype) -> np.ndarray:
    """Contiguous array of the right dtype that this object owns outright
    (never aliases caller storage, so freezing it cannot leak)."""
    arr = np.ascontiguousarray(np.asarray(a, dtype=dtype))
    if arr is a:
        arr = arr.copy()
    return arr


@dataclass(frozen=True, eq=False)
class ArrayRow:
    """One row of a triangular array.

    elements has shape (n, d, d). When the row is built from a small alphabet
    of letters, alphabet (m, d, d) and letter_of (n,) record the structure and
    elements[i] == alphabet[letter_of[i]] bit-exactly.
    """

    elements: np.ndarray
    alphabet: np.ndarray | None = None
    letter_of: np.ndarray | None = None

    def __post_init__(self):
        e = _own(self.elements, np.complex128)
        if e.ndim != 3 or e.shape[0] < 1 or e.shape[1] != e.shape[2] or e.shape[1] < 1:
            raise ValueError(f"elements must have shape (n, d, d), n,d >= 1; got {e.shape}")
        if not np.isfinite(e).all():
            raise ValueError("row has non-finite entries")
        object.__setattr__(self, "elements", _freeze(e))
        if (self.alphabet is None) != (self.letter_of is None):
            raise ValueError("alphabet and letter_of must be given together")
        if self.alphabet is not None:
            al = _own(self.alphabet, np.complex128)
            lo = _own(self.letter_of, np.int64)
            if al.ndim != 3 or al.shape[1:] != e.shape[1:]:
                raise ValueError("alphabet shape inconsistent with elements")
            if lo.shape != (e.shape[0],) or lo.min() < 0 or lo.max() >= al.shape[0]:
                raise ValueError("letter_of must map positions into the alphabet")
            if not np.array_equal(e, al[lo]):
                raise ValueError("elements do not match alphabet[letter_of]")
            object.__setattr__(self, "alphabet", _freeze(al))
            object.__setattr__(self, "letter_of", _freeze(lo))

    @property
    def n(self) -> int:
        return self.elements.shape[0]

    @property
    def d(self) -> int:
        return self.elements.shape[1]


@dataclass(frozen=True, eq=False)
class RowStats:
    """Row mean, per-element operator norms (n,), and the two norm
    statistics: L1 = mean norm, Linf = max norm."""

    mean: np.ndarray
    l1: float
    linf: float
    norms: np.ndarray


def row_stats(row: ArrayRow) -> RowStats:
    norms = _freeze(op_norms(row.elements))
    return RowStats(mean=_freeze(row.elements.mean(axis=0)),
                    l1=float(norms.mean()), linf=float(norms.max()), norms=norms)


def _unit_rescale(letters: np.ndarray) -> np.ndarray:
    top = float(op_norms(letters).max())
    return letters / top if top > 1.0 else letters


def gen_two_letter(n: int, b, c, order: str = "first_half_b",
                   unit_bound: bool = False) -> ArrayRow:
    """Row with two letters, n/2 copies each, either contiguous or interleaved."""
    if n % 2 != 0 or n < 2:
        raise ValueError(f"n must be a positive even integer, got {n}")
    bm = as_matrix(b, "b")
    cm = as_matrix(c, "c")
    if bm.shape != cm.shape:
        raise ValueError("b and c must have the same dimension")
    alphabet = np.stack([bm, cm])
    if unit_bound:
        alphabet = _unit_rescale(alphabet)
    if order == "first_half_b":
        letter_of = np.repeat(np.array([0, 1]), n // 2)
    elif order == "interleaved":
        letter_of = np.tile(np.array([0, 1]), n // 2)
    else:
        raise ValueError(f"unknown order {order!r}")
    return ArrayRow(alphabet[letter_of], alphabet=alphabet, letter_of=letter_of)


def gen_repeated(letters, n: int, tail: str = "identity_fill",
                 unit_bound: bool = False) -> ArrayRow:
    """Periodic row: position p < a*b carries letters[p mod a], b = floor(n/a).

    The n - a*b leftover slots are filled with the zero matrix (identity_fill,
    the exponential factor is then the identity) or with letters[0]
    (repeat_first).
    """
    alphabet = np.stack([as_matrix(m, "letter") for m in letters])
    a = alphabet.shape[0]
    if a > n:
        raise ValueError(f"more letters ({a}) than row slots ({n})")
    if unit_bound:
        alphabet = _unit_rescale(alphabet)
    b = n // a
    letter_of = np.tile(np.arange(a), b)
    rest = n - a * b
    if rest > 0:
        if tail == "identity_fill":
            alphabet = np.concatenate([alphabet, np.zeros((1,) + alphabet.shape[1:])])
            fill = np.full(rest, a)
        elif tail == "repeat_first":
            fill = np.zeros(rest, dtype=np.int64)
        else:
            raise ValueError(f"unknown tail mode {tail!r}")
        letter_of = np.concatenate([letter_of, fill])
    return ArrayRow(alphabet[letter_of], alphabet=alphabet, letter_of=letter_of)


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

    Raises InfeasibleRegimeError when the formulas give k_n < 1, k_n > n, or a
    non-positive norm at this n.
    """
    if n < 2:
        raise InfeasibleRegimeError(f"row length n = {n} too small")
    ln = math.log(n)
    lln = math.log(ln)
    delta = spec.delta
    if spec.regime in ("prob_regime", "as_regime"):
        linf = spec.linf if spec.linf is not None else math.sqrt(n)
        ratio = n / linf
        if ratio <= math.e:
            raise InfeasibleRegimeError(
                f"n/linf = {ratio:.6g} too small for the log-log correction")
        lr = math.log(ratio)
        llr = math.log(lr)
        if spec.regime == "prob_regime":
            k_raw = (n / (3.0 * linf)) * (lr - (4.0 + 2.0 * delta) * llr)
        else:
            k_raw = (n / (3.0 * linf)) * (lr - lln - (3.0 + delta) * llr)
    elif spec.regime == "large_linf":
        scale = ln * lln ** (3.0 + 2.0 * delta)
        linf = n / scale
        k_raw = scale / 3.0
    elif spec.regime == "bounded_log":
        linf = (ln - (5.0 + delta) * lln) / 3.0
        if linf <= 0:
            raise InfeasibleRegimeError(
                f"bounded_log norm formula gives {linf:.6g} <= 0 at n = {n}, delta = {delta}")
        k_raw = float(n)
    else:  # intermediate
        linf = (1.0 / (3.0 * spec.t)) * n ** (1.0 - spec.alpha) * ln ** (1.0 - spec.beta)
        k_raw = spec.alpha * spec.t * n ** spec.alpha * ln ** spec.beta
    if linf <= 0 or not math.isfinite(linf):
        raise InfeasibleRegimeError(f"spike norm formula gives {linf!r} at n = {n}")
    k = math.floor(k_raw + 0.5)
    if k < 1:
        raise InfeasibleRegimeError(
            f"spike count formula gives {k_raw:.6g} (rounds to {k} < 1) at n = {n}")
    if k > n:
        raise InfeasibleRegimeError(
            f"spike count formula gives {k_raw:.6g} > n = {n}")
    return k, float(linf)


def random_unit_hermitians(k: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """k independent Hermitian matrices with operator norm exactly 1."""
    g = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    h = (g + np.conj(np.swapaxes(g, -1, -2))) / 2.0
    return h / op_norms(h)[:, None, None]


def _fixed_direction(d: int) -> np.ndarray:
    return np.diag((-1.0) ** np.arange(d)).astype(np.complex128)


def gen_spiked(n: int, spec: RegimeSpec, rng: np.random.Generator, d: int = 2,
               remainder: str = "random_unit", fixed_direction: bool = False) -> ArrayRow:
    """Spiked-norm row: k_n spikes of norm linf, the rest bounded by 1.

    Spike directions are random unit-norm Hermitians (or one deterministic
    direction with fixed_direction); the n - k_n remaining elements are
    unit-norm random Hermitians or zero matrices per remainder mode.
    """
    k, linf = spiked_parameters(n, spec)
    if fixed_direction:
        spikes = np.broadcast_to(_fixed_direction(d), (k, d, d)).copy()
    else:
        spikes = random_unit_hermitians(k, d, rng)
    spikes *= linf
    rest = n - k
    if rest == 0:
        return ArrayRow(spikes)
    if remainder == "random_unit":
        others = random_unit_hermitians(rest, d, rng)
    elif remainder == "zero":
        others = np.zeros((rest, d, d), dtype=np.complex128)
    else:
        raise ValueError(f"unknown remainder mode {remainder!r}")
    return ArrayRow(np.concatenate([spikes, others]))


def gen_riemann(fn: Callable[[np.ndarray], np.ndarray], n: int, mode: str = "ordered",
                seed: int | tuple[int, ...] | np.random.Generator = 0,
                unit_bound: bool = False) -> ArrayRow:
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
    if unit_bound:
        elements = _unit_rescale(elements)
    return ArrayRow(elements)
