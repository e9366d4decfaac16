import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotter_shuffle.linalg import op_norm
from trotter_shuffle.rows import (ArrayRow, InfeasibleRegimeError, RegimeSpec,
                                  gen_repeated, gen_riemann, gen_spiked, gen_two_letter,
                                  row_stats, spiked_parameters)

from oracles import random_matrix, svd_norm

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)


def test_row_validation():
    with pytest.raises(ValueError):
        ArrayRow(np.zeros((0, 2, 2)))
    with pytest.raises(ValueError):
        ArrayRow(np.full((3, 2, 2), np.nan))
    with pytest.raises(ValueError):
        ArrayRow(np.zeros((3, 2, 2)), alphabet=np.ones((1, 2, 2)),
                 letter_of=np.zeros(3, dtype=int))


def test_row_stats_constant_row():
    a = random_matrix(np.random.default_rng(0), 2, 2.0)
    row = gen_repeated([a], 11)
    stats = row_stats(row)
    assert np.allclose(stats.mean, a)
    assert stats.l1 == pytest.approx(op_norm(a), rel=1e-12)
    assert stats.linf == pytest.approx(op_norm(a), rel=1e-12)


def test_row_stats_two_letters():
    row = gen_two_letter(10, E12, E21, "interleaved")
    stats = row_stats(row)
    assert np.allclose(stats.mean, (E12 + E21) / 2)
    assert stats.l1 == pytest.approx(1.0)
    assert stats.linf == pytest.approx(1.0)


def test_row_stats_against_resummation():
    rng = np.random.default_rng(1)
    elems = np.stack([random_matrix(rng, 2, 3.0) for _ in range(10)])
    stats = row_stats(ArrayRow(elems))
    mean = sum(elems[i] for i in range(10)) / 10
    l1 = sum(svd_norm(elems[i]) for i in range(10)) / 10
    linf = max(svd_norm(elems[i]) for i in range(10))
    assert svd_norm(stats.mean - mean) < 1e-12
    assert stats.l1 == pytest.approx(l1, abs=1e-12)
    assert stats.linf == pytest.approx(linf, abs=1e-12)


def test_gen_two_letter_orders():
    row = gen_two_letter(4, E12, E21, "first_half_b")
    assert np.array_equal(row.letter_of, [0, 0, 1, 1])
    row = gen_two_letter(4, E12, E21, "interleaved")
    assert np.array_equal(row.letter_of, [0, 1, 0, 1])
    with pytest.raises(ValueError):
        gen_two_letter(5, E12, E21)
    with pytest.raises(ValueError):
        gen_two_letter(4, E12, np.eye(3))


def test_gen_repeated_layout_and_tail():
    row = gen_repeated([E12, E21], 5, tail="repeat_first")
    assert np.array_equal(row.letter_of, [0, 1, 0, 1, 0])
    row = gen_repeated([E12], 7)
    assert np.array_equal(row.letter_of, np.zeros(7, dtype=int))
    row = gen_repeated([E12, E21, np.eye(2)], 10, tail="identity_fill")
    # first a*b = 9 slots are periodic, leftover slot holds the zero matrix
    assert np.array_equal(row.letter_of[:9] % 3, np.arange(9) % 3)
    assert np.array_equal(row.elements[9], np.zeros((2, 2)))
    with pytest.raises(ValueError):
        gen_repeated([E12] * 5, 3)


def test_gen_repeated_occurrence_counts():
    rng = np.random.default_rng(2)
    letters = [random_matrix(rng, 2, 1.0) for _ in range(4)]
    n = 23
    row = gen_repeated(letters, n)
    b = n // 4
    for i in range(4):
        count = sum(np.array_equal(row.elements[p], letters[i]) for p in range(4 * b))
        assert count == b


def test_unit_bound_rescale():
    row = gen_two_letter(6, 3 * E12, 2 * E21, unit_bound=True)
    assert row_stats(row).linf <= 1.0 + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 10**6))
def test_stats_chain_inequality(a, reps, seed):
    rng = np.random.default_rng(seed)
    elems = np.stack([random_matrix(rng, 2, 3.0) for _ in range(a)] * reps)
    stats = row_stats(ArrayRow(elems))
    assert op_norm(stats.mean) <= stats.l1 + 1e-12
    assert stats.l1 <= stats.linf + 1e-12


# -- spiked regimes ----------------------------------------------------------

def test_spiked_parameters_match_formulas():
    n = 10**6
    ln, lln = math.log(n), math.log(math.log(n))
    k, linf = spiked_parameters(n, RegimeSpec("large_linf", delta=1.0))
    scale = ln * lln**5
    assert linf == pytest.approx(n / scale, rel=1e-12)
    assert k == round(scale / 3)

    k, linf = spiked_parameters(n, RegimeSpec("prob_regime", delta=0.1, linf=10.0))
    lr = math.log(n / 10.0)
    assert linf == 10.0
    assert k == round((n / 30.0) * (lr - 4.2 * math.log(lr)))

    k, linf = spiked_parameters(n, RegimeSpec("as_regime", delta=0.1, linf=10.0))
    assert k == round((n / 30.0) * (lr - lln - 3.1 * math.log(lr)))

    k, linf = spiked_parameters(n, RegimeSpec("bounded_log", delta=0.1))
    assert linf == pytest.approx((ln - 5.1 * lln) / 3.0, rel=1e-12)
    assert k == n

    k, linf = spiked_parameters(n, RegimeSpec("intermediate", alpha=0.5, beta=0.0, t=1.0))
    assert linf == pytest.approx(math.sqrt(n) * ln / 3.0, rel=1e-12)
    assert k == round(0.5 * math.sqrt(n))


def test_spiked_infeasible_cases():
    # the norm formula goes negative at this n/delta
    with pytest.raises(InfeasibleRegimeError):
        spiked_parameters(10**6, RegimeSpec("bounded_log", delta=1.0))
    # spike count rounds to zero
    with pytest.raises(InfeasibleRegimeError):
        spiked_parameters(10**6, RegimeSpec("prob_regime", delta=1.0, linf=10.0))
    # spike count above n
    with pytest.raises(InfeasibleRegimeError):
        spiked_parameters(10**6, RegimeSpec("prob_regime", delta=0.01, linf=0.5))


def test_regime_spec_validation():
    with pytest.raises(ValueError):
        RegimeSpec("no_such_regime")
    with pytest.raises(ValueError):
        RegimeSpec("prob_regime", delta=0.0)
    with pytest.raises(ValueError):
        RegimeSpec("intermediate", alpha=1.0, beta=0.5)
    RegimeSpec("intermediate", alpha=1.0, beta=-0.5)  # allowed


def test_gen_spiked_structure():
    rng = np.random.default_rng(3)
    n = 4000
    spec = RegimeSpec("intermediate", alpha=0.5, beta=0.0, t=1.0)
    k, linf = spiked_parameters(n, spec)
    row = gen_spiked(n, spec, rng)
    assert row.n == n
    stats = row_stats(row)
    assert stats.linf == pytest.approx(linf, rel=1e-9)
    # spikes first, then unit-norm remainder
    assert svd_norm(row.elements[0]) == pytest.approx(linf, rel=1e-9)
    assert svd_norm(row.elements[-1]) == pytest.approx(1.0, rel=1e-9)
    # measured L1 close to (k/n) linf plus the unit remainder
    predicted = k / n * linf
    assert predicted / 2 <= stats.l1 <= 2 * predicted + 1
    # and equal to a direct re-summation of per-element norms
    direct = sum(svd_norm(row.elements[i]) for i in range(n)) / n
    assert stats.l1 == pytest.approx(direct, rel=1e-10)


def test_gen_spiked_zero_remainder_and_fixed_direction():
    rng = np.random.default_rng(4)
    spec = RegimeSpec("intermediate", alpha=0.5, beta=0.0, t=1.0)
    row = gen_spiked(1000, spec, rng, remainder="zero", fixed_direction=True)
    k, linf = spiked_parameters(1000, spec)
    assert np.array_equal(row.elements[0], linf * np.diag([1.0, -1.0]).astype(complex))
    assert np.array_equal(row.elements[-1], np.zeros((2, 2)))
    assert row_stats(row).l1 == pytest.approx(k * linf / 1000, rel=1e-9)


# -- riemann sampling --------------------------------------------------------

def test_gen_riemann_modes():
    const = lambda xs: np.broadcast_to(E12, (len(xs), 2, 2))
    row = gen_riemann(const, 5, "ordered")
    assert all(np.array_equal(row.elements[i], E12) for i in range(5))

    step = lambda xs: np.where((xs < 0.5)[:, None, None], E12, E21)
    row = gen_riemann(step, 4, "ordered")
    assert np.array_equal(row.elements[0], E12)
    assert np.array_equal(row.elements[1], E12)
    assert np.array_equal(row.elements[2], E21)
    assert np.array_equal(row.elements[3], E21)


def test_gen_riemann_permuted_multiset_and_determinism():
    fn = lambda xs: xs[:, None, None] * np.eye(2)
    ordered = gen_riemann(fn, 64, "ordered")
    permuted = gen_riemann(fn, 64, "permuted", seed=42)
    again = gen_riemann(fn, 64, "permuted", seed=42)
    assert np.array_equal(permuted.elements, again.elements)
    key = lambda row: sorted(row.elements[:, 0, 0].real.tolist())
    assert key(ordered) == key(permuted)
    iid = gen_riemann(fn, 64, "iid", seed=42)
    assert np.array_equal(iid.elements, gen_riemann(fn, 64, "iid", seed=42).elements)
    assert not np.array_equal(iid.elements, ordered.elements)


def test_gen_riemann_rejects_bad_fn():
    with pytest.raises(ValueError):
        gen_riemann(lambda xs: np.full((len(xs), 2, 2), np.nan), 4)
    # a family returns one (d, d) value per time: a single matrix, a stack of
    # the wrong length or non-square values are all rejected
    for bad in (lambda xs: np.eye(2), lambda xs: np.zeros((len(xs) - 1, 2, 2)),
                lambda xs: np.zeros((len(xs), 2, 3))):
        with pytest.raises(ValueError):
            gen_riemann(bad, 4)
