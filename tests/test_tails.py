import itertools
import math
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotter_shuffle import linalg, tails
from trotter_shuffle.evolution import rotation_family
from trotter_shuffle.rows import (ArrayRow, RegimeSpec, gen_repeated, gen_riemann, gen_spiked,
                                  gen_two_letter)
from trotter_shuffle.tails import (bernstein_tail, block_bernstein_bound, block_gaps,
                                   choose_blocks, eps_grid, lemma_random_bound, variance_proxy)

from oracles import gathered_block_gaps, random_matrix, svd_norm, two_letter_tail

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)


def test_bernstein_vacuous_at_zero_eps():
    assert bernstein_tail(0.0, 1.0, 1.0, 3) == 6.0


def test_bernstein_value():
    assert bernstein_tail(1.0, 1.0, 1.0, 2) == pytest.approx(4 * math.exp(-0.375), rel=1e-12)


def test_bernstein_deterministic_sum():
    assert bernstein_tail(0.5, 0.0, 0.0, 2) == 0.0


@pytest.mark.parametrize("eps, L, v, d", [(-0.1, 1.0, 1.0, 2), (1.0, -1.0, 1.0, 2),
                                          (1.0, 1.0, -1.0, 2), (1.0, 1.0, 1.0, 0)])
def test_bernstein_rejects_negative_input(eps, L, v, d):
    with pytest.raises(ValueError, match="non-negative"):
        bernstein_tail(eps, L, v, d)


def test_bernstein_eps_doubling_with_pure_l_term():
    # with v = 0 the exponent magnitude is linear in eps
    q1 = bernstein_tail(1.0, 1.0, 0.0, 1)
    q2 = bernstein_tail(2.0, 1.0, 0.0, 1)
    e1 = -math.log(q1 / 2.0)
    e2 = -math.log(q2 / 2.0)
    assert e2 == pytest.approx(2 * e1, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.01, 5), st.floats(0.01, 5), st.floats(0, 5), st.integers(1, 8))
def test_bernstein_monotonicity(eps, L, v, d):
    base = bernstein_tail(eps, L, v, d)
    assert 0.0 <= base <= 2 * d
    assert bernstein_tail(eps * 1.5, L, v, d) <= base
    assert bernstein_tail(eps, L * 1.5, v, d) >= base
    assert bernstein_tail(eps, L, v + 1, d) >= base
    assert bernstein_tail(eps, L, v, d + 1) >= base


def test_variance_proxy_constant_row():
    a = random_matrix(np.random.default_rng(4), 2, 1.0)
    row = ArrayRow(np.stack([a] * 12))
    assert variance_proxy(row, 4) == pytest.approx(0.0, abs=1e-25)


def test_variance_proxy_two_letter_value():
    row = gen_two_letter(20, E12, E21)
    # every element sits at distance 1/2 from the mean
    assert variance_proxy(row, 10) == pytest.approx(10 * 0.25, rel=1e-12)


def test_variance_proxy_cap_and_linearity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        elems = np.stack([random_matrix(rng, 2, 2.0) for _ in range(8)])
        row = ArrayRow(elems)
        stats = row.stats
        v = variance_proxy(row, 4)
        direct = 0.5 * sum(svd_norm(elems[i] - stats.mean) ** 2 for i in range(8))
        assert v == pytest.approx(direct, rel=1e-10)
        assert v <= 4 * 4 * stats.l1 * stats.linf + 1e-12
    row = ArrayRow(np.stack([random_matrix(rng, 2, 1.0) for _ in range(10)]))
    assert variance_proxy(row, 8) == pytest.approx(2 * variance_proxy(row, 4), rel=1e-12)


def test_lemma_random_bound_values_and_errors():
    stats = gen_two_letter(10, E12, E21).stats
    val = lemma_random_bound(10**4, 100, 1.0, stats, 2)
    assert val == pytest.approx(400 * math.exp(-100 / 12), rel=1e-12)
    # eps -> 0+ gives the vacuous b*2d
    assert lemma_random_bound(10**4, 100, 1e-12, stats, 2) == pytest.approx(400.0)
    # monotone decreasing in a
    assert lemma_random_bound(10**4, 200, 1.0, stats, 2) < val
    with pytest.raises(ValueError, match="3 L1"):
        lemma_random_bound(10**4, 100, 3.0, stats, 2)
    # b = n // a = 0 when a > n
    for n, a, d in ((0, 100, 2), (10**4, 0, 2), (99, 100, 2), (10**4, 100, 0)):
        with pytest.raises(ValueError, match="must be >= 1"):
            lemma_random_bound(n, a, 1.0, stats, d)
    for eps in (0.0, -1.0):
        with pytest.raises(ValueError, match="eps must be positive"):
            lemma_random_bound(10**4, 100, eps, stats, 2)


# b = n // a blocks of size a: a < 1 and b < 1 (a > n) are refused by every block kernel
@pytest.mark.parametrize("kernel", [
    lambda row, a: block_gaps(row, [np.arange(row.n)], a),
    lambda row, a: block_bernstein_bound(row, a, [0.1]),
    lambda row, a: lemma_random_bound(row.n, a, 0.1, row.stats, row.d),
    variance_proxy,
], ids=["block_gaps", "block_bernstein_bound", "lemma_random_bound", "variance_proxy"])
@pytest.mark.parametrize("a", [-1, 0, 41], ids=["a_negative", "a_0", "b_0"])
def test_block_kernels_reject_a_outside_1_n(kernel, a):
    with pytest.raises(ValueError, match=f"block size a = {a} must be >= 1 and at most n = 40"):
        kernel(gen_two_letter(40, E12, E21), a)


# a block count b = n // a of 0 is a block size past n
@pytest.mark.parametrize("build", [lambda: block_gaps(ArrayRow(np.zeros((4, 2, 2))), [], 0),
                                   lambda: block_gaps(ArrayRow(np.zeros((3, 2, 2))), [], 4)],
                         ids=["block_size_0", "block_count_0"])
def test_block_gaps_reject_bad_input(build):
    with pytest.raises(ValueError, match="must be >= 1"):
        build()


def test_empirical_block_tail_constant_row():
    # every block of a constant row averages to the row mean and the row norm,
    # up to the roundoff of the two means
    a = random_matrix(np.random.default_rng(6), 2, 1.0)
    row = ArrayRow(np.stack([a] * 40))
    orders = (np.random.default_rng([1, t]).permutation(40) for t in range(50))
    mean_dev, norm_dev = block_gaps(row, orders, 10)
    assert mean_dev.max() <= 1e-12 and norm_dev.max() <= 1e-12


def test_empirical_block_tail_eps_above_2linf():
    # a block mean and the row mean both have norm <= Linf, so no gap exceeds 2 Linf
    row = gen_two_letter(40, E12, E21)
    orders = (np.random.default_rng([2, t]).permutation(40) for t in range(200))
    mean_dev, norm_dev = block_gaps(row, orders, 10)
    linf = row.stats.linf
    assert mean_dev.max() <= 2 * linf and norm_dev.max() <= 2 * linf


def test_empirical_block_tail_scalar_enumeration_n2():
    # d = 1 row (0, 2): the single block always averages to the mean
    row = ArrayRow(np.array([[[0.0]], [[2.0]]], dtype=complex))
    orders = (np.random.default_rng([3, t]).permutation(2) for t in range(10**4))
    mean_dev, norm_dev = block_gaps(row, orders, 2)
    assert (mean_dev > 0.5).mean() == 0.0  # exact: both permutations give gap 0
    assert (norm_dev > 0.5).mean() == 0.0


def test_empirical_block_tail_scalar_enumeration_n4():
    # d = 1 row (0, 0, 2, 2) with two blocks of two; enumerate all 24 sigmas
    vals = np.array([0.0, 0.0, 2.0, 2.0])
    row = ArrayRow(vals.reshape(4, 1, 1).astype(complex))
    eps = 0.5
    mean = 1.0
    violate = 0
    for perm in itertools.permutations(range(4)):
        bm = [(vals[perm[0]] + vals[perm[1]]) / 2, (vals[perm[2]] + vals[perm[3]]) / 2]
        if any(abs(x - mean) > eps for x in bm):
            violate += 1
    exact = violate / 24
    orders = (np.random.default_rng([4, t]).permutation(4) for t in range(10**4))
    mean_dev, norm_dev = block_gaps(row, orders, 2)
    assert abs((mean_dev > eps).mean() - exact) < 0.02
    assert abs((norm_dev > eps).mean() - exact) < 0.02  # norms equal values here


def test_block_gaps_deterministic_and_thresholding():
    row = gen_two_letter(100, E12, E21)
    m1, n1 = block_gaps(row, (np.random.default_rng([9, t]).permutation(100)
                              for t in range(25)), 10)
    m2, n2 = block_gaps(row, (np.random.default_rng([9, t]).permutation(100)
                              for t in range(25)), 10)
    assert np.array_equal(m1, m2) and np.array_equal(n1, n2)
    # each order's gaps depend on that order alone, whatever the length of the stream
    m3, n3 = block_gaps(row, (np.random.default_rng([9, t]).permutation(100)
                              for t in range(5)), 10)
    assert np.array_equal(m3, m1[:5]) and np.array_equal(n3, n1[:5])


@pytest.mark.parametrize("orders", [[], iter([np.arange(40)])], ids=["list", "exhausted_iterator"])
def test_block_gaps_of_no_orders_are_two_empty_arrays(orders):
    row = gen_two_letter(40, E12, E21)
    list(itertools.islice(orders, 1))  # an iterator is drawn dry first
    mean_dev, norm_dev = block_gaps(row, orders, 10)
    for gaps in (mean_dev, norm_dev):
        assert gaps.dtype == np.float64 and gaps.shape == (0,)


def test_block_gaps_standard_layout_exact_zero():
    # power-of-two sizes make the block and row means bit-identical
    letters = [E12, E21, E12 + E21, np.eye(2, dtype=complex)]
    row = gen_repeated(letters, 32)
    mean_gap, norm_gap = block_gaps(row, [np.arange(32)], 4)
    assert mean_gap[0] == 0.0
    assert norm_gap[0] == 0.0


def test_block_gaps_constant_row():
    a = random_matrix(np.random.default_rng(7), 2, 1.0)
    row = gen_repeated([a], 24)
    order = np.random.default_rng(8).permutation(24)
    assert np.max(block_gaps(row, [order], 4)) * math.exp(row.stats.l1) <= 1e-12


def test_block_gaps_against_resummation():
    rng = np.random.default_rng(9)
    n, a = 1000, 50
    elems = np.stack([random_matrix(rng, 2, 1.0) for _ in range(n)])
    row = ArrayRow(elems)
    sigma = rng.permutation(n)
    stats = row.stats
    scale = math.exp(stats.l1)
    worst_mean_gap, worst_norm_gap = (g[0] * scale for g in block_gaps(row, [sigma], a))
    mean_gap = norm_gap = 0.0
    for j in range(n // a):
        block = [row.elements[sigma[j * a + i]] for i in range(a)]
        bmean = sum(block) / a
        mean_gap = max(mean_gap, svd_norm(bmean - stats.mean) * scale)
        bnorm = sum(svd_norm(m) for m in block) / a
        norm_gap = max(norm_gap, abs(bnorm - stats.l1) * scale)
    assert worst_mean_gap == pytest.approx(mean_gap, abs=1e-12)
    assert worst_norm_gap == pytest.approx(norm_gap, abs=1e-12)


def _orders(n, trials, seed):
    return [np.random.default_rng([seed, t]).permutation(n) for t in range(trials)]


def _gathered(row, orders, a):
    return np.array([gathered_block_gaps(row, o, a) for o in orders]).T


# Integer entries and integer letter norms make every block sum exact in both
# paths, so the letter counts must reproduce the gathered means bit for bit.
# Row lengths are not multiples of 7 or 25, so a*b < n leaves an ignored tail.
@pytest.mark.parametrize("row", [
    gen_two_letter(604, E12, E21, "first_half_b"),
    gen_two_letter(604, E12, E21, "interleaved"),
    gen_repeated([E12, E21, 2 * np.eye(2), E12 + E21], 603),
    # 201 periods of three letters, then the first letter in the two leftover slots
    ArrayRow(np.stack([2 * np.eye(2), E12, -3 * E21])[np.r_[np.tile(np.arange(3), 201), 0, 0]]),
], ids=["first_half_b", "interleaved", "identity_fill", "repeat_first"])
@pytest.mark.parametrize("a", [1, 7, 25])
def test_block_gaps_letter_counts_match_gathered_means_exactly(row, a):
    orders = _orders(row.n, 40, a)
    got = block_gaps(row, orders, a)
    want = _gathered(row, orders, a)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _complex_letters(n):
    rng = np.random.default_rng(31)
    alphabet = np.stack([random_matrix(rng, 2, 2.0) for _ in range(3)])
    letter_of = rng.integers(0, 3, size=n)
    return ArrayRow(alphabet[letter_of])


def _riemann(n):
    return gen_riemann(rotation_family(0.7), n, "permuted", seed=4)


def _spiked(n):
    return gen_spiked(n, RegimeSpec("large_linf", delta=1.0), np.random.default_rng(5), d=3)


# Sums taken in another order move the gaps by a few roundings of Linf (at most
# 3.1 u Linf at this block size and these seeds).
@pytest.mark.parametrize("make", [_complex_letters, _riemann, _spiked])
def test_block_gaps_match_gathered_means_to_roundoff(make):
    row = make(1200)
    stats = row.stats
    orders = _orders(row.n, 60, 2)
    got = block_gaps(row, orders, 30)
    want = _gathered(row, orders, 30)
    tol = 4 * (np.finfo(float).eps / 2) * stats.linf
    assert np.abs(got[0] - want[0]).max() <= tol
    assert np.abs(got[1] - want[1]).max() <= tol


@pytest.mark.parametrize("make", [_complex_letters, _spiked])
def test_block_gaps_chunks_equal_per_trial_calls(make):
    row = make(400)
    chunk = tails._CHUNK_BLOCKS // (row.n // 10)
    for trials in (1, chunk, chunk + 1, 2 * chunk + 3):
        orders = _orders(row.n, trials, trials)
        got = block_gaps(row, iter(orders), 10)
        one = [block_gaps(row, [o], 10) for o in orders]
        assert got[0].shape == got[1].shape == (trials,)
        assert np.array_equal(got[0], np.concatenate([m for m, _ in one]))
        assert np.array_equal(got[1], np.concatenate([g for _, g in one]))
    with pytest.raises(ValueError, match="block size a = 410 must be >= 1 and at most n = 400"):
        block_gaps(row, _orders(row.n, 1, 0), 410)


def _started_threads(monkeypatch):
    started, thread = [], threading.Thread

    def counted(*args, **kwargs):
        started.append(thread(*args, **kwargs))
        return started[-1]
    monkeypatch.setattr(linalg.threading, "Thread", counted)
    return started


# three letters (counts times the table) and a spiked d = 3 row (add.reduceat), drawn in
# slices of at least one trial, `cores` chunks of trials at a time
@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("make", [_complex_letters, _spiked])
def test_drawn_block_gaps_are_block_gaps_bit_for_bit(monkeypatch, make, cores):
    row = make(400)
    chunk = tails._CHUNK_BLOCKS // (row.n // 10)
    monkeypatch.setattr(tails, "_SLICE_POSITIONS", row.n)
    monkeypatch.setattr(linalg, "_CORES", cores)
    started = _started_threads(monkeypatch)
    for trials in (0, 1, chunk, cores * chunk + 3):
        orders = _orders(row.n, trials, trials)
        got = tails.drawn_block_gaps(row, orders.__getitem__, trials, 10)
        want = block_gaps(row, orders, 10)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert bool(started) == (cores > 1) and not any(t.is_alive() for t in started)
    with pytest.raises(ValueError, match="permutation size 399 != row length 400"):
        tails.drawn_block_gaps(row, lambda t: np.arange(row.n - (t > 0)), 2 * cores, 10)


@pytest.mark.parametrize("order", [np.arange(45) % 40, np.arange(36)], ids=["long", "short"])
def test_block_gaps_requires_matching_sizes(order):
    with pytest.raises(ValueError, match=f"permutation size {len(order)} != row length 40"):
        block_gaps(gen_two_letter(40, E12, E21), [order], 6)


def test_choose_blocks():
    stats = gen_two_letter(10, E12, E21).stats
    a = choose_blocks(10000, stats, mode="sqrt_default")
    assert (a, 10000 // a) == (100, 100)
    a = choose_blocks(10**6, stats, mode="probability")
    assert a == math.ceil(math.sqrt(10**6 * math.e**2))
    for n in (10, 100, 5000):
        for mode in ("sqrt_default", "probability"):
            a = choose_blocks(n, stats, mode=mode)
            assert 1 <= a <= n // 2
            assert a * (n // a) <= n
    with pytest.raises(ValueError):
        choose_blocks(3, stats)
    with pytest.raises(ValueError, match="unknown block mode"):
        choose_blocks(100, stats, mode="cube_root")


def test_choose_blocks_saturates_at_large_l1():
    # L1 = 400.5: e^{2 L1} overflows a float, but any scale >= n gives a = n // 2
    stats = gen_two_letter(400, np.array([[0, 800], [0, 0]]), E21).stats
    assert choose_blocks(400, stats, mode="probability") == 200


def test_domination_small_scale():
    # Monte Carlo frequencies stay under the union tail bound on the eps grid
    rng = np.random.default_rng(10)
    row = gen_two_letter(400, E12, E21)
    stats = row.stats
    trials = 2000
    orders = (np.random.default_rng([11, t]).permutation(400) for t in range(trials))
    mean_dev, norm_dev = block_gaps(row, orders, 20)
    for eps in eps_grid(stats.l1):
        bound = lemma_random_bound(400, 20, float(eps), stats, 2)
        p = min(1.0, bound)
        slack = 3 * math.sqrt(p * (1 - p) / trials)
        assert (mean_dev > eps).mean() <= p + slack
        assert (norm_dev > eps).mean() <= min(1.0, lemma_random_bound(
            400, 20, float(eps), stats, 1)) + slack
    del rng


def test_block_bernstein_bound_grid_equals_scalar_formula():
    rng = np.random.default_rng(12)
    row = ArrayRow(np.stack([random_matrix(rng, 2, 1.0) for _ in range(400)]))
    grid = eps_grid(row.stats.l1)
    v = variance_proxy(row, 25)
    want = [16 * bernstein_tail(25 * e, 2 * row.stats.linf, v, 2) for e in grid]
    assert block_bernstein_bound(row, 25, grid) == want


def test_eps_grid():
    g = eps_grid(1.0)
    assert len(g) == 12
    assert g[0] == pytest.approx(0.05)
    assert g[-1] < 3.0
    assert np.all(np.diff(g) > 0)
    with pytest.raises(ValueError):
        eps_grid(0.01)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("l1", [float("inf"), 1e308])
def test_eps_grid_of_an_overflowed_l1_raises_without_a_warning(l1):
    # geomspace up to inf warns and returns [floor, inf, ...]: refused before it runs
    message = f"3 L1 = inf overflows a float (the row's L1 is {l1})"
    with pytest.raises(OverflowError, match=re.escape(message)):
        eps_grid(l1)


@pytest.mark.parametrize("n, a", [(10, 3), (12, 5), (8, 8), (12, 1)])
def test_two_letter_tail_law_is_the_frequency_over_every_placement(n, a):
    # a uniform order puts the n/2 copies of B at each set of n/2 positions equally often
    row, orders = gen_two_letter(n, E12, E21), []
    for first in itertools.combinations(range(n), n // 2):
        order = np.empty(n, dtype=np.int64)
        order[list(first)] = np.arange(n // 2)  # the first half of the row holds B
        order[sorted(set(range(n)) - set(first))] = np.arange(n // 2, n)
        orders.append(order)
    mean_dev, _ = block_gaps(row, orders, a)
    eps = [g * (1 + s) for g in np.unique(mean_dev) for s in (1e-9, -1e-9)] + [0.01, 0.7]
    assert two_letter_tail(n, a, 1.0, eps) == pytest.approx(
        [float((mean_dev > e).mean()) for e in eps], abs=1e-12)
