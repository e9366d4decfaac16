import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.linalg import expm

from trotter_shuffle import products
from trotter_shuffle.evolution import rotation_family, step_family
from trotter_shuffle.linalg import exp_stack, op_norms
from trotter_shuffle.products import (exp_factors, path_deviations, prefix_products,
                                      prop_uniform_bound, reference_path)
from trotter_shuffle.rows import (ArrayRow, RegimeSpec, gen_repeated, gen_riemann,
                                  gen_spiked, gen_two_letter, random_unit_hermitians)
from trotter_shuffle.tails import block_gaps, choose_blocks

from oracles import (e12_e21_limit, mp_exp, mp_product_path, random_matrix, sequential_products,
                     svd_norm)

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)

V_STAR = 0.1293935159197811  # ||e^{B/2} e^{C/2} - e^{(B+C)/2}||, 2x2 closed form


@pytest.mark.parametrize("build", [lambda: reference_path(E12, 0)], ids=["reference_path_n_0"])
def test_products_reject_bad_input(build):
    with pytest.raises(ValueError, match="must be >= 1"):
        build()


def test_permutation_n1_and_determinism():
    rng = np.random.default_rng(0)
    assert rng.permutation(1).tolist() == [0]
    a = np.random.default_rng(77).permutation(20)
    b = np.random.default_rng(77).permutation(20)
    assert np.array_equal(a, b)


def test_permutation_chi_square():
    rng = np.random.default_rng(2024)
    counts = {}
    for _ in range(60000):
        key = tuple(rng.permutation(3).tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    freqs = np.array(list(counts.values())) / 60000
    assert np.abs(freqs - 1 / 6).max() < 0.01
    chi2 = ((np.array(list(counts.values())) - 10000.0) ** 2 / 10000.0).sum()
    assert sps.chi2.sf(chi2, df=5) > 0.001


def test_prefix_products_zero_row():
    row = ArrayRow(np.zeros((6, 2, 2)))
    prods = prefix_products(exp_factors(row), np.arange(6))
    assert np.allclose(prods, np.eye(2), atol=1e-15)


def test_prefix_products_constant_row():
    a = random_matrix(np.random.default_rng(1), 2, 2.0)
    n = 40
    row = gen_repeated([a], n)
    prods = prefix_products(exp_factors(row), np.random.default_rng(2).permutation(n))
    assert svd_norm(prods[-1] - expm(a)) <= n * 1e-12 * np.exp(svd_norm(a))


def test_prefix_products_all_permutations_vs_mp_oracle():
    mats = [E12, E12, E21, E21]
    row = gen_two_letter(4, E12, E21, "first_half_b")
    for perm in itertools.permutations(range(4)):
        prods = prefix_products(exp_factors(row), np.array(perm))
        oracle = mp_product_path([mats[p] for p in perm], 4)
        assert svd_norm(prods[-1] - oracle[-1]) < 1e-10


def test_prefix_products_relabeling_invariance():
    # swapping positions holding identical matrices changes nothing, bit for bit
    row = gen_two_letter(8, E12, E21, "first_half_b")
    s1 = np.array([0, 1, 4, 5, 2, 3, 6, 7])
    s2 = np.array([1, 0, 5, 4, 3, 2, 7, 6])  # swaps within letter classes
    factors = exp_factors(row)
    assert np.array_equal(prefix_products(factors, s1), prefix_products(factors, s2))


def test_path_deviations_requires_matching_sizes():
    row = gen_two_letter(4, E12, E21)
    with pytest.raises(ValueError, match="permutation size 6 != row length 4"):
        next(path_deviations(row, [np.arange(6)], [row.stats.mean]))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 4096), d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       near_identity=st.booleans())
def test_prefix_products_matches_sequential_loop(n, d, seed, near_identity):
    # blocked scan vs the plain loop, within n d u prod ||F_i|| (u = 2^-53)
    rng = np.random.default_rng(seed)
    m = min(max(n, 1), 64)
    g = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
    g /= op_norms(g)[:, None, None]
    if near_identity:
        factors = np.eye(d) + g * (rng.uniform(0.0, 2.0) / max(n, 1))
    else:
        factors = g * np.exp(rng.uniform(-1.0, 1.0, size=(m, 1, 1)) / max(n, 1))
    order = rng.integers(0, m, size=n)
    got = prefix_products(factors, order)
    want = sequential_products(factors, order)
    assert got.shape == want.shape == (n + 1, d, d)
    assert np.array_equal(got[:2], want[:2])
    growth = np.cumprod(op_norms(factors)[order]).max() if n else 1.0
    assert op_norms(got - want).max() <= n * d * 2.0**-53 * growth


def test_prefix_products_real_factors_and_empty_order():
    path = prefix_products(np.array([[[2.0]], [[3.0]]]), np.array([0, 1, 1, 0]))
    assert path[:, 0, 0].tolist() == [1, 2, 6, 18, 36]
    assert np.array_equal(prefix_products(np.eye(3)[None], np.arange(0)), np.eye(3)[None])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 48, 49, 50, 8000])
@pytest.mark.parametrize("real", [False, True])
def test_prefix_products_2x2_matches_sequential_loop(n, real):
    # the entry-plane scan at block edges (m^2 - 1, m^2, m^2 + 1 for m = 7)
    # and at benchmark size, within n d u prod ||F_i|| (u = 2^-53)
    rng = np.random.default_rng(n)
    g = rng.standard_normal((16, 2, 2)) + (0 if real else 1j) * rng.standard_normal((16, 2, 2))
    factors = np.eye(2) + g / op_norms(g)[:, None, None] * (rng.uniform(0.0, 2.0) / n)
    order = rng.integers(0, 16, size=n)
    got = prefix_products(factors, order)
    want = sequential_products(factors, order)
    assert got.shape == want.shape == (n + 1, 2, 2)
    assert np.array_equal(got[:2], want[:2])
    growth = np.cumprod(op_norms(factors)[order]).max()
    assert op_norms(got - want).max() <= n * 2 * 2.0**-53 * growth


def _exp_factors_axis0(row):
    # the former dedupe: np.unique over rows of the flattened elements
    uniq, inverse = np.unique(row.elements.reshape(row.n, -1), axis=0, return_inverse=True)
    return exp_stack(uniq.reshape(-1, row.d, row.d) / row.n)[inverse.ravel()]


def _general_rows():
    # rows without a builder alphabet, with 2, 300, 500 and 3 distinct elements
    rows = [gen_riemann(step_family(E12, E21), 400, "permuted", seed=3),
            gen_riemann(rotation_family(), 300, "iid", seed=4),
            gen_spiked(500, RegimeSpec(regime="large_linf", delta=1.0),
                       np.random.default_rng(5), d=3)]
    signed = np.tile(np.array([[1, 0], [0, -1]], dtype=complex), (60, 1, 1))
    signed[::3] = np.array([[1, -0.0], [0, -1]])
    signed[1::3] = np.array([[1, 0], [complex(0, -0.0), -1]])
    return rows + [ArrayRow(signed)]


def test_letters_are_the_builders_or_the_distinct_elements_by_bytes():
    row = gen_repeated([E12, E21, E12 + E21], 10)
    alphabet, letter_of = row.letters()
    assert alphabet.tobytes() == np.stack([E12, E21, E12 + E21, np.zeros_like(E12)]).tobytes()
    assert letter_of.tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2, 3]
    for row, distinct in zip(_general_rows(), (2, 300, 500, 3)):
        alphabet, letter_of = row.letters()
        assert alphabet[letter_of].tobytes() == row.elements.tobytes()
        # one letter per byte pattern, so 0.0 and -0.0 entries stay apart
        assert len({m.tobytes() for m in alphabet}) == len(alphabet) == distinct
        # first-occurrence order: the letters first seen are 0, 1, 2, ...
        _, first = np.unique(letter_of, return_index=True)
        assert letter_of[np.sort(first)].tolist() == list(range(distinct))


def test_letters_keep_adjacent_runs_of_signed_zeros_apart():
    # the run of +0.0 matrices ends where the -0.0 run starts: equal by value,
    # not by bytes, so a run check by value would merge them into one letter
    row = ArrayRow(np.concatenate([np.zeros((3, 2, 2)), np.full((4, 2, 2), -0.0)]))
    alphabet, letter_of = row.letters()
    assert len(alphabet) == 2 and letter_of.tolist() == [0, 0, 0, 1, 1, 1, 1]
    assert alphabet[letter_of].tobytes() == row.elements.tobytes()


def test_letters_do_not_depend_on_the_arrangement():
    rng = np.random.default_rng(8)
    b, c = random_matrix(rng, 2, 1.0), random_matrix(rng, 2, 1.0)
    contiguous = gen_two_letter(40, b, c)
    rows = [contiguous, gen_two_letter(40, b, c, "interleaved"),
            ArrayRow(contiguous.elements[rng.permutation(40)])]
    spiked = _general_rows()[2]
    rows += [spiked, ArrayRow(spiked.elements[rng.permutation(spiked.n)])]
    for group in (rows[:3], rows[3:]):
        alphabets = [row.letters()[0] for row in group]
        sets = [{m.tobytes() for m in alphabet} for alphabet in alphabets]
        # the same letters, each listed once, so the same c_n
        assert all(s == sets[0] and len(al) == len(s) for s, al in zip(sets, alphabets))


def test_builder_letters_given_twice_are_exponentiated_once(monkeypatch):
    row = gen_two_letter(4, E12, E12)
    alphabet, letter_of = row.letters()
    assert alphabet.tobytes() == E12.tobytes() and letter_of.tolist() == [0, 0, 0, 0]
    stacks = []
    monkeypatch.setattr(products, "exp_stack", lambda b: stacks.append(b.shape) or exp_stack(b))
    exp_factors(row)
    assert stacks == [(1, 2, 2)]
    # first occurrences keep their order; distinct letters are left as given
    row = gen_repeated([E21, E12, E21, E12 + E21], 8)
    alphabet, letter_of = row.letters()
    assert alphabet.tobytes() == np.stack([E21, E12, E12 + E21]).tobytes()
    assert letter_of.tolist() == [0, 1, 0, 2, 0, 1, 0, 2]
    assert gen_repeated([E12, E21], 5).letters()[1].tolist() == [0, 1, 0, 1, 2]


def test_exp_factors_byte_dedupe_matches_axis0_unique():
    for row in _general_rows():
        got = exp_factors(row)
        assert got.shape == (row.n, row.d, row.d)
        # equal up to the sign of zero entries, which array_equal ignores
        assert np.array_equal(got, _exp_factors_axis0(row))


@pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (3, 3), (7, 2), (16, 2), (17, 3)])
def test_reference_path_vs_mp_oracle(n, d):
    a = random_matrix(np.random.default_rng(20 + n), d, 2.0)
    path = reference_path(a, n)
    assert path.shape == (n + 1, d, d)
    assert np.array_equal(path[0], np.eye(d))
    for k in range(n + 1):
        assert svd_norm(path[k] - mp_exp(a * (k / n))) <= 1e-13 * math.exp(svd_norm(a))


def test_path_deviations_share_one_scan_per_permutation():
    for n in (300, 3000):  # 3001 > the closed-form norm chunk of op_norms
        row = gen_two_letter(n, E12, E21)
        sigmas = [np.random.default_rng(s).permutation(n) for s in range(3)]
        targets = [row.stats.mean, np.array([[0, 0.6], [0.4, 0]])]
        reports = list(path_deviations(row, sigmas, targets))
        assert len(reports) == 3
        for sigma, reps in zip(sigmas, reports):
            for target, rep in zip(targets, reps):
                (one,), = path_deviations(row, [sigma], [target])
                assert np.array_equal(rep.deviations, one.deviations)
                assert (rep.sup_dev, rep.slack) == (one.sup_dev, one.slack)


def _other_target(d):
    return random_matrix(np.random.default_rng(d), d, 1.0)


@pytest.mark.parametrize("n, d", [(49, 1), (49, 2), (49, 3), (50, 1), (50, 2), (50, 3),
                                  (8000, 1), (8000, 2), (8000, 3)])
def test_path_deviations_reused_workspace_keeps_no_state(n, d):
    # n = 49, 50 and 8000 pad the last block with identities, which each scan
    # overwrites; every trial reads the same workspace as a fresh call would
    row = gen_spiked(n, RegimeSpec(regime="large_linf", delta=1.0), np.random.default_rng(n), d=d)
    a, b = (np.random.default_rng(s).permutation(n) for s in (1, 2))
    targets = [row.stats.mean, _other_target(d)]
    for sigma, reps in zip([a, b, a], path_deviations(row, [a, b, a], targets), strict=True):
        for fresh, rep in zip(next(path_deviations(row, [sigma], targets)), reps, strict=True):
            assert rep.deviations.tobytes() == fresh.deviations.tobytes()
            assert (rep.sup_dev, rep.slack) == (fresh.sup_dev, fresh.slack)


@pytest.mark.parametrize("row", [
    gen_two_letter(8000, E12, E21),
    gen_spiked(2000, RegimeSpec(regime="large_linf", delta=1.0), np.random.default_rng(5), d=8),
], ids=["two_letter_d2", "spiked_d8"])
def test_a_trial_allocates_less_than_one_product_stack(row):
    n, d = row.n, row.d
    sigmas = [np.random.default_rng(s).permutation(n) for s in range(4)]
    trials = path_deviations(row, sigmas, [row.stats.mean, _other_target(d)])
    tracemalloc.start()
    try:
        next(trials)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for _ in range(3):
            next(trials)
        rise = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rise < (n + 1) * d * d * 16, rise / ((n + 1) * d * d * 16)


@pytest.mark.parametrize("real", [False, True], ids=["complex128", "float64"])
@pytest.mark.parametrize("d", [3, 8])
def test_a_path_pass_allocates_one_product_stack(d, real):
    # the steps are scanned and the blocks carried in the path buffer itself: a
    # separate step workspace, or a carry whose output overlaps its input,
    # would hold a second (n + 1, d, d) stack
    rng = np.random.default_rng(d)
    factors = exp_stack(rng.standard_normal((64, d, d)) / 7)
    factors = factors if real else factors.astype(complex)
    for n in (2000, 3001, 4000):
        order = rng.integers(0, 64, n)
        prefix_products(factors, order)  # first calls allocate numpy's own caches
        tracemalloc.start()
        try:
            prefix_products(factors, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = (n + 1) * d * d * factors.itemsize
        assert peak <= 1.25 * stack, (n, peak / stack)


def test_prefix_products_range_check_survives_the_unbuffered_take():
    factors = exp_stack(np.stack([E12, E21, E12 + E21]) / 3)
    with pytest.raises(IndexError):
        prefix_products(factors, np.array([0, 1, 3]))
    with pytest.raises(IndexError):
        prefix_products(factors, np.array([-4, 1, 2]))
    # a negative index counts from the end, as numpy indexing does
    assert np.array_equal(prefix_products(factors, np.array([0, -1])),
                          prefix_products(factors, np.array([0, 2])))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_products_are_the_last_prefix_bit_for_bit(monkeypatch, d):
    # n = 9 and 4 fill their last block, 10, 17, 101 and 3 pad it, 2 and 1 are one block
    rng = np.random.default_rng(d)
    k = 128
    factors = exp_stack((rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))) / 4)
    for n in [0, 1, 2, 3, 4, 9, 10, 17, 101]:
        orders = [rng.permutation(k)[:n], rng.integers(-k, k, n), rng.integers(0, 3, n),
                  rng.permutation(k)[:n], rng.integers(0, k, n)]
        # one pass; passes of two orders and a last one; one order per pass
        for steps in [products._PRODUCT_STEPS, 2 * n + 1, 1]:
            monkeypatch.setattr(products, "_PRODUCT_STEPS", steps)
            got = products._blocked(factors, (o for o in orders), n)  # read once
            for order, u in zip(orders, got, strict=True):
                assert u.tobytes() == prefix_products(factors, order)[-1].tobytes()


def _spiked(n):
    return gen_spiked(n, RegimeSpec("large_linf", delta=1.0), np.random.default_rng(5), d=3)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_real_scans_are_the_complex_scans_bit_for_bit(d):
    # float64 factors scan in float64 with the bits of the complex128 scan, in
    # the path-keeping scan and in the last-prefix products alike
    rng = np.random.default_rng(d)
    factors = exp_stack(rng.standard_normal((64, d, d)) / 7)
    assert factors.dtype == np.float64
    for n in (1, 50, 1000):
        orders = [rng.integers(0, 64, n) for _ in range(3)]
        for order in orders:
            path = prefix_products(factors, order)
            want = prefix_products(factors.astype(complex), order)
            assert path.dtype == np.float64 and path.tobytes() == want.real.tobytes()
        got = products._blocked(factors, orders, n)
        want = products._blocked(factors.astype(complex), orders, n)
        for u, w in zip(got, want, strict=True):
            assert u.dtype == np.float64 and u.tobytes() == w.real.tobytes()


def test_the_data_picks_the_dtype():
    # float64 when every imaginary part is exactly zero, else complex128
    n, target = 60, np.array([[0, 0.6], [0.4j, 0]])
    real, spiked = gen_two_letter(n, E12, E21), _spiked(n)
    assert exp_factors(real).dtype == np.float64
    assert exp_factors(spiked).dtype == np.complex128
    assert reference_path(real.stats.mean, n).dtype == np.float64
    assert reference_path(target, n).dtype == np.complex128
    # a complex target against a real row: the difference is complex, and the
    # deviations are those of the all-complex computation
    sigma = np.random.default_rng(3).permutation(n)
    (rep,), = path_deviations(real, [sigma], [target])
    prods = prefix_products(exp_factors(real).astype(complex), sigma)
    want = op_norms((prods - reference_path(target, n))[rep.ks])
    assert rep.deviations.tobytes() == want.tobytes()


def test_products_range_check_and_empty_orders():
    factors = exp_stack(np.stack([E12, E21, E12 + E21]) / 3)
    for bad in ([0, 1, 3], [-4, 1, 2]):
        with pytest.raises(IndexError):
            list(products._blocked(factors, [np.array([0, 1, 2]), np.array(bad)], 3))
    assert list(products._blocked(factors, [], 5)) == []
    empty = list(products._blocked(factors[:0], [np.arange(0)] * 2, 0))
    assert [u.tobytes() for u in empty] == [np.eye(2, dtype=complex).tobytes()] * 2


def test_products_memory_is_one_pass_not_the_order_count():
    factors = exp_stack(np.stack([1j * (E12 + E21), E12 - E21, np.diag([1j, -1j])]) / 3)  # unitary
    n = 8000
    per_pass = products._PRODUCT_STEPS // n

    def peak(count):
        orders = (np.random.default_rng(i).integers(0, 3, n) for i in range(count))
        tracemalloc.start()
        try:
            assert sum(1 for _ in products._blocked(factors, orders, n)) == count
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # first calls allocate numpy's own caches
    one = peak(per_pass)
    assert peak(10 * per_pass) < 1.1 * one
    # the pass's orders and their (m, orders * blocks) index table, 8 bytes a position each
    assert one < 32 * products._PRODUCT_STEPS, one / products._PRODUCT_STEPS


@pytest.mark.parametrize("row", [
    gen_two_letter(300, random_matrix(np.random.default_rng(1), 3, 1.0),
                   random_matrix(np.random.default_rng(2), 3, 1.0), "interleaved"),
    gen_spiked(301, RegimeSpec(regime="large_linf", delta=1.0), np.random.default_rng(3), d=3),
], ids=["two_letter", "spiked"])
def test_path_deviations_d3_grid_and_sup_match_all_step_norms(row):
    n = row.n
    sigma = np.random.default_rng(4).permutation(n)
    target = row.stats.mean
    (rep,), = path_deviations(row, [sigma], [target])
    every = op_norms(prefix_products(exp_factors(row), sigma) - reference_path(target, n))
    ks = sorted({round(m * n / 100) for m in range(101)})
    assert rep.ks.tolist() == ks and ks[0] == 0 and ks[-1] == n
    assert rep.deviations.tobytes() == every[ks].tobytes()
    assert rep.sup_dev == float(every.max()) + rep.slack


def test_reference_path():
    n = 50
    zero = reference_path(np.zeros((2, 2)), n)
    assert np.allclose(zero, np.eye(2), atol=1e-15)
    a = random_matrix(np.random.default_rng(3), 2, 2.0)
    path = reference_path(a, n)
    bound = 1e-9 * np.exp(svd_norm(a))
    assert svd_norm(path[-1] - expm(a)) <= bound
    rng = np.random.default_rng(4)
    for k in rng.integers(0, n + 1, size=20):
        assert svd_norm(path[k] - expm(a * (k / n))) <= bound


def test_path_deviations_constant_row():
    a = random_matrix(np.random.default_rng(5), 2, 1.5)
    n = 200
    row = gen_repeated([a], n)
    (rep,), = path_deviations(row, [np.random.default_rng(6).permutation(n)], [a])
    assert rep.deviations[0] == 0.0
    assert rep.sup_dev <= rep.slack + n * 1e-10 * np.exp(svd_norm(a))


def test_path_deviations_two_letter_identity_matches_oracle():
    n = 2000
    row = gen_two_letter(n, E12, E21, "first_half_b")
    (rep,), = path_deviations(row, [np.arange(n)], [(E12 + E21) / 2])
    assert abs(rep.deviations[-1] - V_STAR) < 1e-3


def test_path_deviations_exhaustive_n4_vs_oracle():
    mats = [E12, E12, E21, E21]
    row = gen_two_letter(4, E12, E21, "first_half_b")
    target = (E12 + E21) / 2
    slack = (nt := float(op_norms(target))) * math.exp(nt) / 4
    perms = list(itertools.permutations(range(4)))
    sigmas = [np.array(perm) for perm in perms]
    got = [rep.sup_dev for rep, in path_deviations(row, sigmas, [target])]
    want = []
    for perm in perms:
        oracle = mp_product_path([mats[p] for p in perm], 4)
        ref = [expm(target * (k / 4)) for k in range(5)]
        devs = [svd_norm(oracle[k] - ref[k]) for k in range(5)]
        want.append(max(devs) + slack)
    assert max(got) == pytest.approx(max(want), abs=1e-9)
    assert min(got) == pytest.approx(min(want), abs=1e-9)


def test_prop_uniform_bound_values():
    # eps = 0, L1 = ||A_n|| = 1, b = 100: (3/200) * 4 * e
    assert prop_uniform_bound(1.0, 1.0, 0.0, 100) == pytest.approx(0.06 * math.e, rel=1e-12)
    assert prop_uniform_bound(1.0, 1.0, 0.0, 100) == pytest.approx(0.1631, abs=5e-5)
    # vanishes like 1/b at eps = 0
    assert prop_uniform_bound(1.0, 0.5, 0.0, 10**7) < 2e-6
    ratio = prop_uniform_bound(1.0, 0.5, 0.0, 10**6) / prop_uniform_bound(1.0, 0.5, 0.0, 10**7)
    assert ratio == pytest.approx(10.0, rel=1e-5)
    # lower bound eps * e^eps
    for eps in (0.1, 0.7, 2.0):
        assert prop_uniform_bound(1.0, 0.3, eps, 50) >= eps * math.exp(eps)
    # monotone in eps and decreasing in b
    assert prop_uniform_bound(1.0, 0.5, 0.2, 50) <= prop_uniform_bound(1.0, 0.5, 0.4, 50)
    assert prop_uniform_bound(1.0, 0.5, 0.2, 100) <= prop_uniform_bound(1.0, 0.5, 0.2, 50)
    with pytest.raises(ValueError):
        prop_uniform_bound(1.0, 2.0, 0.1, 10)
    with pytest.raises(ValueError):
        prop_uniform_bound(-1.0, 0.0, 0.1, 10)


def test_prop_uniform_bound_allows_roundoff_relative_to_l1():
    # ||A_n|| = L1 in exact arithmetic; in floats the row mean's norm lands one ulp above
    a = np.array([[1, 2], [3, 4]])
    row = gen_two_letter(100, 3000 * a, 7000 * a)
    norm_mean = float(op_norms(row.stats.mean))
    assert norm_mean > row.stats.l1 + 1e-12
    assert prop_uniform_bound(row.stats.l1, norm_mean, 0.5, 10) == math.inf  # e^{L1} overflows
    l1 = 500.0  # 2e-12 above L1 = 500, past the absolute 1e-12, where the bound is finite
    assert prop_uniform_bound(l1, l1 * (1 + 4e-15), 0.5, 10) == pytest.approx(
        prop_uniform_bound(l1, l1, 0.5, 10), rel=1e-12)
    with pytest.raises(ValueError, match="cannot exceed L1"):
        prop_uniform_bound(l1, l1 * (1 + 1e-6), 0.5, 10)


def test_commuting_row_endpoint_independent_of_sigma():
    rng = np.random.default_rng(10)
    diag = np.stack([np.diag(rng.uniform(-1, 1, size=2)).astype(complex) for _ in range(30)])
    row = ArrayRow(diag)
    stats = row.stats
    factors = exp_factors(row)
    ends = [prefix_products(factors, np.random.default_rng(seed).permutation(30))[-1]
            for seed in range(5)]
    for e in ends:
        assert svd_norm(e - ends[0]) <= 1e-8
        assert svd_norm(e - expm(stats.mean)) <= 1e-8


def test_standard_ordering_deviation_bound():
    # periodic layout with unit-norm letters: sup deviation <= 6e/b + slack
    rng = np.random.default_rng(11)
    a, b = 8, 32
    n = a * b
    letters = random_unit_hermitians(a, 2, rng)
    row = gen_repeated(list(letters), n)
    stats = row.stats
    (rep,), = path_deviations(row, [np.arange(n)], [stats.mean])
    assert rep.sup_dev <= 6 * math.e / b + rep.slack + 1e-6


def test_block_conditions_imply_uniform_bound():
    # one spot instance of the deterministic chain; the acceptance suite
    # repeats this over 50 random instances
    rng = np.random.default_rng(12)
    n = 400
    elems = random_unit_hermitians(n, 2, rng) * rng.uniform(0.2, 0.5, size=(n, 1, 1))
    row = ArrayRow(elems)
    stats = row.stats
    a = choose_blocks(n, stats, mode="sqrt_default")
    sigma = rng.permutation(n)
    eps = float(np.max(block_gaps(row, [sigma], a))) * math.exp(stats.l1)
    assert (stats.l1**2) * math.exp(stats.l1) <= (n // a) / 10
    (path,), = path_deviations(row, [sigma], [stats.mean])
    bound = prop_uniform_bound(stats.l1, float(op_norms(stats.mean)), eps, n // a)
    assert path.sup_dev <= bound + 1e-6


def test_e12_e21_limit_is_the_sup_of_the_matrix_integral():
    # the oracle's two scalar integrals against the 2x2 matrix sum they reduce, on the same draws
    draws, steps, seed = 3, 400, 7
    dz = np.random.default_rng(seed).standard_normal((draws, steps))
    dz -= dz.mean(axis=1, keepdims=True)
    a, u = (E12 + E21).real / 2, np.arange(steps + 1) / steps
    e = expm(u[:, None, None] * a)
    j = (E12 - E21).real
    # G at t = (k + 1) / steps is the sum over i <= k of e^(u_i A) dZ_i J / 2 e^((t - u_i) A)
    terms = e[:-1] @ j @ np.linalg.inv(e[:-1]) / 2
    g = np.cumsum(dz[:, :, None, None] * terms, axis=1) @ e[1:]
    want = np.linalg.norm(g, 2, axis=(-2, -1)).max(axis=1) / math.sqrt(steps)
    np.testing.assert_allclose(e12_e21_limit(draws, steps, seed), want, rtol=1e-12)
