import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from trotter_shuffle.evolution import rotation_family, step_family
from trotter_shuffle.linalg import exp_stack, mat_exp, op_norm, op_norms
from trotter_shuffle.products import (BlockScheme, Permutation,
                                      check_block_conditions, choose_blocks,
                                      exp_factors, partial_products, path_deviation,
                                      path_deviations, prefix_products,
                                      prop_uniform_bound, reference_path,
                                      uniform_permutation)
from trotter_shuffle.rows import (ArrayRow, RegimeSpec, gen_repeated, gen_riemann,
                                  gen_spiked, gen_two_letter, random_unit_hermitians,
                                  row_stats)

from oracles import (mp_exp, mp_product_path, random_matrix, sequential_products,
                     svd_norm)

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)

V_STAR = 0.1293935159197811  # ||e^{B/2} e^{C/2} - e^{(B+C)/2}||, 2x2 closed form


def test_permutation_validation():
    Permutation(np.array([2, 0, 1]))
    with pytest.raises(ValueError):
        Permutation(np.array([0, 0, 1]))
    with pytest.raises(ValueError):
        Permutation(np.array([0, 3, 1]))
    with pytest.raises(ValueError):
        Permutation(np.array([-1, 0, 1]))


def test_uniform_permutation_n1_and_determinism():
    rng = np.random.default_rng(0)
    assert uniform_permutation(1, rng).order.tolist() == [0]
    a = uniform_permutation(20, np.random.default_rng(77)).order
    b = uniform_permutation(20, np.random.default_rng(77)).order
    assert np.array_equal(a, b)


def test_uniform_permutation_chi_square():
    rng = np.random.default_rng(2024)
    counts = {}
    for _ in range(60000):
        key = tuple(uniform_permutation(3, rng).order.tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    freqs = np.array(list(counts.values())) / 60000
    assert np.abs(freqs - 1 / 6).max() < 0.01
    chi2 = ((np.array(list(counts.values())) - 10000.0) ** 2 / 10000.0).sum()
    assert sps.chi2.sf(chi2, df=5) > 0.001


def test_partial_products_zero_row():
    row = ArrayRow(np.zeros((6, 2, 2)))
    prods = partial_products(row, Permutation.identity(6))
    assert np.allclose(prods, np.eye(2), atol=1e-15)


def test_partial_products_constant_row():
    a = random_matrix(np.random.default_rng(1), 2, 2.0)
    n = 40
    row = gen_repeated([a], n)
    sigma = uniform_permutation(n, np.random.default_rng(2))
    prods = partial_products(row, sigma)
    assert svd_norm(prods[-1] - mat_exp(a)) <= n * 1e-12 * np.exp(svd_norm(a))


def test_partial_products_all_permutations_vs_mp_oracle():
    mats = [E12, E12, E21, E21]
    row = gen_two_letter(4, E12, E21, "first_half_b")
    for perm in itertools.permutations(range(4)):
        sigma = Permutation(np.array(perm))
        prods = partial_products(row, sigma)
        oracle = mp_product_path([mats[p] for p in perm], 4)
        assert svd_norm(prods[-1] - oracle[-1]) < 1e-10


def test_partial_products_relabeling_invariance():
    # swapping positions holding identical matrices changes nothing, bit for bit
    row = gen_two_letter(8, E12, E21, "first_half_b")
    s1 = Permutation(np.array([0, 1, 4, 5, 2, 3, 6, 7]))
    s2 = Permutation(np.array([1, 0, 5, 4, 3, 2, 7, 6]))  # swaps within letter classes
    assert np.array_equal(partial_products(row, s1), partial_products(row, s2))


def test_partial_products_requires_matching_sizes():
    row = gen_two_letter(4, E12, E21)
    with pytest.raises(ValueError):
        partial_products(row, Permutation.identity(6))


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


def test_exp_factors_byte_dedupe_matches_axis0_unique():
    rows = [gen_riemann(step_family(E12, E21), 400, "permuted", seed=3),
            gen_riemann(rotation_family(), 300, "iid", seed=4),
            gen_spiked(500, RegimeSpec(regime="large_linf", delta=1.0),
                       np.random.default_rng(5), d=3)]
    signed = np.tile(np.array([[1, 0], [0, -1]], dtype=complex), (60, 1, 1))
    signed[::3] = np.array([[1, -0.0], [0, -1]])
    signed[1::3] = np.array([[1, 0], [complex(0, -0.0), -1]])
    rows.append(ArrayRow(signed))
    for row in rows:
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
    n = 300
    row = gen_two_letter(n, E12, E21)
    sigmas = [uniform_permutation(n, np.random.default_rng(s)) for s in range(3)]
    targets = [row_stats(row).mean, np.array([[0, 0.6], [0.4, 0]])]
    reports = list(path_deviations(row, sigmas, targets))
    assert len(reports) == 3
    for sigma, reps in zip(sigmas, reports):
        for target, rep in zip(targets, reps):
            one = path_deviation(row, sigma, target)
            assert np.array_equal(rep.deviations, one.deviations)
            assert (rep.sup_dev, rep.slack) == (one.sup_dev, one.slack)


def test_reference_path():
    n = 50
    zero = reference_path(np.zeros((2, 2)), n)
    assert np.allclose(zero, np.eye(2), atol=1e-15)
    a = random_matrix(np.random.default_rng(3), 2, 2.0)
    path = reference_path(a, n)
    bound = 1e-9 * np.exp(svd_norm(a))
    assert svd_norm(path[-1] - mat_exp(a)) <= bound
    rng = np.random.default_rng(4)
    for k in rng.integers(0, n + 1, size=20):
        assert svd_norm(path[k] - mat_exp(a * (k / n))) <= bound


def test_path_deviation_constant_row():
    a = random_matrix(np.random.default_rng(5), 2, 1.5)
    n = 200
    row = gen_repeated([a], n)
    rep = path_deviation(row, uniform_permutation(n, np.random.default_rng(6)), a)
    assert rep.deviations[0] == 0.0
    assert rep.sup_dev <= rep.slack + n * 1e-10 * np.exp(svd_norm(a))


def test_path_deviation_two_letter_identity_matches_oracle():
    n = 2000
    row = gen_two_letter(n, E12, E21, "first_half_b")
    rep = path_deviation(row, Permutation.identity(n), (E12 + E21) / 2)
    assert abs(rep.deviations[-1] - V_STAR) < 1e-3


def test_path_deviation_exhaustive_n4_vs_oracle():
    mats = [E12, E12, E21, E21]
    row = gen_two_letter(4, E12, E21, "first_half_b")
    target = (E12 + E21) / 2
    slack = op_norm(target) * math.exp(op_norm(target)) / 4
    got, want = [], []
    for perm in itertools.permutations(range(4)):
        rep = path_deviation(row, Permutation(np.array(perm)), target)
        got.append(rep.sup_dev)
        oracle = mp_product_path([mats[p] for p in perm], 4)
        ref = [mat_exp(target * (k / 4)) for k in range(5)]
        devs = [svd_norm(oracle[k] - ref[k]) for k in range(5)]
        want.append(max(devs) + slack)
    assert max(got) == pytest.approx(max(want), abs=1e-9)
    assert min(got) == pytest.approx(min(want), abs=1e-9)


def test_check_block_conditions_standard_layout_exact_zero():
    # power-of-two sizes make the block and row means bit-identical
    letters = [E12, E21, E12 + E21, np.eye(2, dtype=complex)]
    row = gen_repeated(letters, 32)
    rep = check_block_conditions(row, Permutation.identity(32), BlockScheme(4, 8), 0.0)
    assert rep.ok
    assert rep.worst_mean_gap == 0.0
    assert rep.worst_norm_gap == 0.0


def test_check_block_conditions_constant_row():
    a = random_matrix(np.random.default_rng(7), 2, 1.0)
    row = gen_repeated([a], 24)
    sigma = uniform_permutation(24, np.random.default_rng(8))
    rep = check_block_conditions(row, sigma, BlockScheme(4, 6), 1e-12)
    assert rep.ok


def test_check_block_conditions_against_resummation():
    rng = np.random.default_rng(9)
    n, a = 1000, 50
    elems = np.stack([random_matrix(rng, 2, 1.0) for _ in range(n)])
    row = ArrayRow(elems)
    sigma = uniform_permutation(n, rng)
    scheme = BlockScheme(a, n // a)
    rep = check_block_conditions(row, sigma, scheme, 0.3)
    stats = row_stats(row)
    scale = math.exp(stats.l1)
    mean_gap = norm_gap = 0.0
    for j in range(scheme.b):
        block = [row.elements[sigma.order[j * a + i]] for i in range(a)]
        bmean = sum(block) / a
        mean_gap = max(mean_gap, svd_norm(bmean - stats.mean) * scale)
        bnorm = sum(svd_norm(m) for m in block) / a
        norm_gap = max(norm_gap, abs(bnorm - stats.l1) * scale)
    assert rep.worst_mean_gap == pytest.approx(mean_gap, abs=1e-12)
    assert rep.worst_norm_gap == pytest.approx(norm_gap, abs=1e-12)


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


def test_choose_blocks():
    stats = row_stats(gen_two_letter(10, E12, E21))
    scheme = choose_blocks(10000, stats, mode="sqrt_default")
    assert (scheme.a, scheme.b) == (100, 100)
    scheme = choose_blocks(10**6, stats, mode="probability")
    assert scheme.a == math.ceil(math.sqrt(10**6 * math.e**2))
    for n in (10, 100, 5000):
        for mode in ("sqrt_default", "probability", "almost_sure"):
            s = choose_blocks(n, stats, mode=mode)
            assert 1 <= s.a <= n // 2
            assert s.a * s.b <= n
    with pytest.raises(ValueError):
        choose_blocks(3, stats)


def test_commuting_row_endpoint_independent_of_sigma():
    rng = np.random.default_rng(10)
    diag = np.stack([np.diag(rng.uniform(-1, 1, size=2)).astype(complex) for _ in range(30)])
    row = ArrayRow(diag)
    stats = row_stats(row)
    ends = []
    for seed in range(5):
        sigma = uniform_permutation(30, np.random.default_rng(seed))
        ends.append(partial_products(row, sigma)[-1])
    for e in ends:
        assert svd_norm(e - ends[0]) <= 1e-8
        assert svd_norm(e - mat_exp(stats.mean)) <= 1e-8


def test_standard_ordering_deviation_bound():
    # periodic layout with unit-norm letters: sup deviation <= 6e/b + slack
    rng = np.random.default_rng(11)
    a, b = 8, 32
    n = a * b
    letters = random_unit_hermitians(a, 2, rng)
    row = gen_repeated(list(letters), n)
    stats = row_stats(row)
    rep = path_deviation(row, Permutation.identity(n), stats.mean)
    assert rep.sup_dev <= 6 * math.e / b + rep.slack + 1e-6


def test_block_conditions_imply_uniform_bound():
    # one spot instance of the deterministic chain; the acceptance suite
    # repeats this over 50 random instances
    rng = np.random.default_rng(12)
    n = 400
    elems = random_unit_hermitians(n, 2, rng) * rng.uniform(0.2, 0.5, size=(n, 1, 1))
    row = ArrayRow(elems)
    stats = row_stats(row)
    scheme = choose_blocks(n, stats, mode="sqrt_default")
    sigma = uniform_permutation(n, rng)
    rep = check_block_conditions(row, sigma, scheme, np.inf)
    eps = max(rep.worst_mean_gap, rep.worst_norm_gap)
    assert (stats.l1**2) * math.exp(stats.l1) <= scheme.b / 10
    sup = path_deviation(row, sigma, stats.mean).sup_dev
    assert sup <= prop_uniform_bound(stats.l1, op_norm(stats.mean), eps, scheme.b) + 1e-6
