import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotter_shuffle import rows
from trotter_shuffle.evolution import step_family
from trotter_shuffle.linalg import op_norms
from trotter_shuffle.products import exp_factors
from trotter_shuffle.rows import (ArrayRow, InfeasibleRegimeError, RegimeSpec,
                                  gen_repeated, gen_riemann, gen_spiked, gen_two_letter,
                                  spiked_parameters)
from trotter_shuffle.tails import block_gaps, variance_proxy

from oracles import random_matrix, svd_norm

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)


def test_row_validation():
    with pytest.raises(ValueError):
        ArrayRow(np.zeros((0, 2, 2)))
    with pytest.raises(ValueError):
        ArrayRow(np.full((3, 2, 2), np.nan))


def test_row_owns_its_elements():
    # a C-contiguous complex128 stack: the input np.asarray would alias
    e = np.ascontiguousarray(np.stack([E12, E21, E12]))
    row = ArrayRow(e)
    assert e.flags.writeable  # freezing the row does not freeze the caller's array
    e[0, 0, 1] = 7.0
    assert row.elements[0, 0, 1] == 1.0  # nor does a later write reach the row
    assert not row.elements.flags.writeable
    with pytest.raises(ValueError):
        row.elements[0, 0, 1] = 2.0


def test_stats_constant_row():
    a = random_matrix(np.random.default_rng(0), 2, 2.0)
    row = gen_repeated([a], 11)
    stats = row.stats
    assert np.allclose(stats.mean, a)
    assert stats.l1 == pytest.approx(op_norms(a), rel=1e-12)
    assert stats.linf == pytest.approx(op_norms(a), rel=1e-12)


def test_stats_two_letters():
    row = gen_two_letter(10, E12, E21, "interleaved")
    stats = row.stats
    assert np.allclose(stats.mean, (E12 + E21) / 2)
    assert stats.l1 == pytest.approx(1.0)
    assert stats.linf == pytest.approx(1.0)


def test_stats_against_resummation():
    rng = np.random.default_rng(1)
    elems = np.stack([random_matrix(rng, 2, 3.0) for _ in range(10)])
    stats = ArrayRow(elems).stats
    mean = sum(elems[i] for i in range(10)) / 10
    l1 = sum(svd_norm(elems[i]) for i in range(10)) / 10
    linf = max(svd_norm(elems[i]) for i in range(10))
    assert svd_norm(stats.mean - mean) < 1e-12
    assert stats.l1 == pytest.approx(l1, abs=1e-12)
    assert stats.linf == pytest.approx(linf, abs=1e-12)


def test_gen_two_letter_orders():
    row = gen_two_letter(4, E12, E21, "first_half_b")
    assert np.array_equal(row.letters()[1], [0, 0, 1, 1])
    row = gen_two_letter(4, E12, E21, "interleaved")
    assert np.array_equal(row.letters()[1], [0, 1, 0, 1])
    with pytest.raises(ValueError):
        gen_two_letter(5, E12, E21)
    with pytest.raises(ValueError):
        gen_two_letter(4, E12, np.eye(3))
    with pytest.raises(ValueError, match="unknown order"):
        gen_two_letter(4, E12, E21, "reversed")


@pytest.mark.parametrize("build", [lambda b, c: gen_repeated([b, c], 4), step_family],
                         ids=["repeated", "step_family"])
def test_letter_builders_reject_mixed_shapes(build):
    with pytest.raises(ValueError):
        build(E12, np.eye(3))


def test_gen_repeated_occurrence_counts():
    rng = np.random.default_rng(2)
    letters = [random_matrix(rng, 2, 1.0) for _ in range(4)]
    n = 23
    row = gen_repeated(letters, n)
    b = n // 4
    for i in range(4):
        count = sum(np.array_equal(row.elements[p], letters[i]) for p in range(4 * b))
        assert count == b
    # the n - a*b leftover slots hold the zero matrix
    assert np.array_equal(row.elements[4 * b:], np.zeros((n - 4 * b, 2, 2)))
    with pytest.raises(ValueError, match="more letters"):
        gen_repeated(letters, 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 10**6))
def test_stats_chain_inequality(a, reps, seed):
    rng = np.random.default_rng(seed)
    elems = np.stack([random_matrix(rng, 2, 3.0) for _ in range(a)] * reps)
    stats = ArrayRow(elems).stats
    assert op_norms(stats.mean) <= stats.l1 + 1e-12
    assert stats.l1 <= stats.linf + 1e-12


# -- spiked regimes ----------------------------------------------------------

def _letter_rows():
    """A spiked d = 3 row (every element its own letter), an interleaved
    two-letter row, and a repeated row with a -0.0 letter beside a 0.0 one."""
    rng = np.random.default_rng(21)
    spiked = gen_spiked(300, RegimeSpec("large_linf", delta=1.0), rng, d=3)
    pair = gen_two_letter(300, random_matrix(rng, 2, 3.0), random_matrix(rng, 2, 3.0),
                          "interleaved")
    zero = np.zeros((2, 2))
    signed = gen_repeated([zero, -zero, random_matrix(rng, 2, 3.0)], 301)
    return {"spiked": (spiked, 300), "interleaved": (pair, 2), "signed_zeros": (signed, 3)}


@pytest.mark.parametrize("name", ["spiked", "interleaved", "signed_zeros"])
def test_letter_stats_are_the_elementwise_formulas_bit_for_bit(name):
    row, c_n = _letter_rows()[name]
    assert len(row.letters()[0]) == c_n
    norms = op_norms(row.elements)  # one norm per element, summed in row order
    mean = row.elements.mean(axis=0)
    assert row.stats.mean.tobytes() == mean.tobytes()
    assert (row.stats.l1, row.stats.linf) == (float(norms.mean()), float(norms.max()))
    for a in (1, 17, row.n):
        want = float(a / row.n * (op_norms(row.elements - mean) ** 2).sum())
        assert variance_proxy(row, a) == want


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_runs_are_the_any_over_words_bit_for_bit(d):
    rng = np.random.default_rng(d)
    # zero and the matrices equal to it by value but not by bytes in one part of one
    # entry (each of the 2 d^2 words in turn), -zero and two generic letters
    flips = np.zeros((2 * d * d, d, d), dtype=complex)
    flips.view(np.float64).reshape(2 * d * d, -1)[np.diag_indices(2 * d * d)] = -0.0
    letters = np.concatenate([np.zeros((1, d, d)), flips, -np.zeros((1, d, d)),
                              [random_matrix(rng, d, 1.0), random_matrix(rng, d, 1.0)]])
    k = len(letters)
    for n in (1, 2, 9, 4000):
        for elements in (letters[rng.integers(0, k, n)],  # runs of every length
                         letters[np.where(np.arange(n) % 2, 0, rng.integers(0, k, n))],
                         letters[np.repeat(rng.integers(0, k, n // 3 + 1), 3)[:n]]):
            row = ArrayRow(elements)
            words = row.elements.reshape(n, -1).view(np.uint64)
            heads = np.flatnonzero(np.r_[True, (words[1:] != words[:-1]).any(axis=1)])
            got_heads, got_runs = row._runs
            assert got_heads.tolist() == heads.tolist()
            assert got_runs.tolist() == np.diff(np.r_[heads, n]).tolist()


def test_letters_come_from_one_cached_read_only_index(monkeypatch):
    calls = []
    unique = np.unique
    monkeypatch.setattr(rows.np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    for row, _ in _letter_rows().values():
        calls.clear()
        (alphabet, letter_of), again = row.letters(), row.letters()
        assert np.array_equal(alphabet, again[0]) and np.array_equal(letter_of, again[1])
        assert not np.shares_memory(alphabet, again[0])  # gathered anew, not kept
        assert row.elements[row._letter_index[0]].tobytes() == alphabet.tobytes()
        for index in row._letter_index:
            assert not index.flags.writeable
            with pytest.raises(ValueError):
                index[0] = 1
        row.stats, exp_factors(row), variance_proxy(row, 10)
        block_gaps(row, [np.arange(row.n)], 10)
        assert len(calls) == 1  # the letter search ran once for this row


def test_stats_read_the_runs_and_leave_the_letter_search_to_letter_kernels(monkeypatch):
    calls = []
    unique = np.unique
    monkeypatch.setattr(rows.np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    contiguous = gen_two_letter(300, E12, E21, "first_half_b")
    for row in [row for row, _ in _letter_rows().values()] + [contiguous]:
        row = ArrayRow(row.elements)  # fresh: nothing cached yet
        calls.clear()
        row.stats
        assert calls == [] and "_letter_index" not in row.__dict__
        exp_factors(row)
        assert len(calls) == 1


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
    with pytest.raises(InfeasibleRegimeError, match="bounded_log spike norm formula gives -"):
        spiked_parameters(100, RegimeSpec("bounded_log", delta=0.1))
    # spike count rounds to zero
    with pytest.raises(InfeasibleRegimeError):
        spiked_parameters(10**6, RegimeSpec("prob_regime", delta=1.0, linf=10.0))
    # spike count above n
    with pytest.raises(InfeasibleRegimeError):
        spiked_parameters(10**6, RegimeSpec("prob_regime", delta=0.01, linf=0.5))
    with pytest.raises(InfeasibleRegimeError, match="too small"):
        spiked_parameters(1, RegimeSpec("bounded_log"))
    # n / linf = 2 < e: log log (n / linf) is undefined
    with pytest.raises(InfeasibleRegimeError, match="prob_regime n/linf = 2 too small for "
                                                     "the log-log correction at n = 10"):
        spiked_parameters(10, RegimeSpec("prob_regime", linf=5.0))
    # 1 / (3 t) overflows to inf without an exception
    with pytest.raises(InfeasibleRegimeError, match="spike norm formula gives inf"):
        spiked_parameters(1000, RegimeSpec("intermediate", t=1e-320))
    # (3 + delta) log log (n / linf) overflows to inf without an exception: k_n is -inf
    with pytest.raises(InfeasibleRegimeError,
                       match="as_regime spike count formula gives -inf at n = 378"):
        spiked_parameters(378, RegimeSpec("as_regime", delta=1.7e308, linf=2.44))
    # a float power past the largest double raises OverflowError, which names no regime
    for spec in (RegimeSpec("large_linf", delta=1000.0), RegimeSpec("intermediate", beta=800.0),
                 RegimeSpec("intermediate", beta=-800.0)):
        with pytest.raises(InfeasibleRegimeError, match=f"{spec.regime} formulas overflow"):
            spiked_parameters(1000, spec)


@pytest.mark.parametrize("delta", [0.1, 1.0])
def test_large_linf_infeasible_at_n_2(delta):
    # log log 2 < 0, and its power 3 + 2 delta is complex unless 2 delta is an integer
    with pytest.raises(InfeasibleRegimeError, match="large_linf needs log log n > 0"):
        spiked_parameters(2, RegimeSpec("large_linf", delta=delta))


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
    stats = row.stats
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


@pytest.mark.parametrize("d", [2, 3])
def test_gen_spiked_all_spikes_is_the_spike_draw_bit_for_bit(d):
    # k_n = n = 40: the remainder is empty, and drawing it leaves the generator alone
    spec = RegimeSpec("intermediate", alpha=1.0, beta=0.0, t=1.0)
    k, linf = spiked_parameters(40, spec)
    assert k == 40
    rng, ref = np.random.default_rng(6), np.random.default_rng(6)
    row = gen_spiked(40, spec, rng, d=d)
    assert row.elements.tobytes() == (linf * rows.random_unit_hermitians(40, d, ref)).tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


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
    with pytest.raises(ValueError, match="n must be >= 1"):
        gen_riemann(step_family(E12, E21), 0)
    with pytest.raises(ValueError, match="unknown sampling mode"):
        gen_riemann(step_family(E12, E21), 4, "reversed")
