import math

import numpy as np
import pytest
from scipy.linalg import expm

from trotter_shuffle import evolution
from trotter_shuffle.evolution import (cocycle_check, constant_family,
                                       linear_diagonal_family, propagators,
                                       rotation_family, step_family)
from trotter_shuffle.experiments import riemann_reference
from trotter_shuffle.linalg import op_norms
from trotter_shuffle.products import exp_factors, prefix_products
from trotter_shuffle.rows import gen_riemann

from oracles import random_matrix, svd_norm

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)

# closed forms for the step family limits
EXP_HALF_B = np.array([[1, 0.5], [0, 1]], dtype=complex)
EXP_HALF_C = np.array([[1, 0], [0.5, 1]], dtype=complex)
EXP_MEAN = np.array([[math.cosh(0.5), math.sinh(0.5)],
                     [math.sinh(0.5), math.cosh(0.5)]], dtype=complex)


A2 = np.array([[0.3 - 0.2j, 1.1], [-0.7j, 0.4 + 0.9j]])

# family -> (array family, its value at one time x, written per point)
FAMILY_CASES = {
    "constant": (constant_family(A2), lambda x: A2),
    "linear_diagonal": (linear_diagonal_family([0.8, -0.3]),
                        lambda x: x * np.diag([0.8 + 0j, -0.3])),
    "step": (step_family(E12, E21, split=0.29), lambda x: E12 if x < 0.29 else E21),
    "rotation": (rotation_family(1.3), lambda x: np.array(
        [[0.0, 1.3 * np.exp(2j * np.pi * x)], [np.conj(1.3 * np.exp(2j * np.pi * x)), 0.0]])),
}


@pytest.mark.parametrize("name", sorted(FAMILY_CASES))
def test_family_arrays_match_pointwise_values(name):
    fn, value = FAMILY_CASES[name]
    rng = np.random.default_rng(4)
    for xs in (np.arange(200) / 200, rng.permutation(200) / 200, rng.random(200)):
        out = fn(xs)
        assert out.shape == (200, 2, 2)
        assert np.array_equal(out, np.stack([value(float(x)) for x in xs]))


def test_riemann_reference():
    a = random_matrix(np.random.default_rng(0), 2, 1.0)
    assert np.allclose(riemann_reference(constant_family(a), 7), a)
    fn = linear_diagonal_family([1.0, 2.0])
    est = riemann_reference(fn, 250)
    assert svd_norm(est - np.diag([0.5, 1.0])) <= 2.0 / 2000 + 1e-12
    step = step_family(E12, E21)
    assert np.allclose(riemann_reference(step, 3), (E12 + E21) / 2)
    # bit for bit the sequential left-endpoint sum over the 4n-point grid
    for fn, value in FAMILY_CASES.values():
        for n in (7, 250):
            acc = value(0.0).astype(complex)
            for i in range(1, 4 * n):
                acc = acc + value(i / (4 * n))
            assert np.array_equal(riemann_reference(fn, n), acc / (4 * n))


def _families_at(d: int) -> dict:
    """Each built-in family at dimension d; rotation is 2 x 2 only."""
    rng = np.random.default_rng(d)
    fams = {"constant": constant_family(random_matrix(rng, d, 1.0)),
            "linear_diagonal": linear_diagonal_family(rng.standard_normal(d)),
            "step": step_family(random_matrix(rng, d, 1.0), random_matrix(rng, d, 1.0), 0.37)}
    return fams | ({"rotation": rotation_family(1.3)} if d == 2 else {})


@pytest.mark.parametrize("d", [1, 2, 3])
def test_riemann_reference_is_the_axis_0_sum_bit_for_bit(d):
    assert set(_families_at(2)) == set(evolution.FAMILIES)
    for name, family in _families_at(d).items():
        # the complex stack and its real part, a float64 view (broadcast for constant)
        for fn in (family, lambda xs, family=family: family(xs).real):
            for n in (1, 7, 2000, 100000):
                want = fn(np.arange(4 * n) / (4 * n)).sum(axis=0) / (4 * n)
                got = riemann_reference(fn, n)
                assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), (name, n)


@pytest.mark.parametrize("split", [0.0, 0.37, 0.5, 1.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_step_family_is_the_where_form_bit_for_bit(d, split):
    rng = np.random.default_rng(int(10 * split) + d)
    b, c = random_matrix(rng, d, 1.0), -np.zeros((d, d))  # c with -0.0 entries
    xs = np.concatenate([rng.random(500), np.arange(101) / 100, [split, np.nan, -0.0, np.inf,
                                                              -np.inf, np.nextafter(split, 2)]])
    for times in (xs, rng.permutation(xs), xs[:0], xs[-5:-4]):
        want = np.where((times < split)[:, None, None], b.astype(complex), c.astype(complex))
        got = step_family(b, c, split)(times)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("name", sorted(FAMILY_CASES))
@pytest.mark.parametrize("mode", ["ordered", "permuted", "iid"])
def test_propagators_match_per_seed_propagators(name, mode):
    fn = FAMILY_CASES[name][0]
    seeds = [0, 3, (7, 1, 100, 2)]
    # grid slices [s n, t n) at n = 100, written out: 0.29 * 100 < 29 in floating point
    for (s, t), (i0, i1) in zip(((0.0, 1.0), (0.25, 0.75), (0.29, 0.58)),
                                ((0, 100), (25, 75), (29, 58))):
        spec = dict(fn=fn, s=s, t=t, n=100, mode=mode)
        for seed, u in zip(seeds, propagators(seeds=seeds, **spec), strict=True):
            assert u.tobytes() == next(propagators(seeds=[seed], **spec)).tobytes()
            # independent of the shared grid: the row this seed samples, scanned in place
            row = gen_riemann(fn, 100, mode, seed)
            ref = prefix_products(exp_factors(row), np.arange(i0, i1))[-1]
            assert u.tobytes() == ref.tobytes()


@pytest.mark.parametrize("mode", ["ordered", "permuted", "iid"])
def test_propagators_rotation_family_is_the_scanned_last_prefix(mode):
    # complex generators; slices of 6400 steps put five seeds in a pass, so seven take two
    fn = rotation_family(1.3)
    seeds = [(5, trial) for trial in range(7)]
    for seed, u in zip(seeds, propagators(fn, 8000, iter(seeds), 0.1, 0.9, mode), strict=True):
        ref = prefix_products(exp_factors(gen_riemann(fn, 8000, mode, seed)), np.arange(800, 7200))
        assert u.tobytes() == ref[-1].tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("mode", ["ordered", "permuted", "iid"])
def test_propagators_reused_workspace_keeps_no_state(mode, d):
    rng = np.random.default_rng(d)
    fn = step_family(random_matrix(rng, d, 1.0), random_matrix(rng, d, 1.0), split=0.4)
    # slices of 49, 50 and 8000 steps; each pads the last block of the scan
    for n, s, t in [(98, 0.0, 0.5), (100, 0.25, 0.75), (8000, 0.0, 1.0)]:
        spec = dict(fn=fn, s=s, t=t, n=n, mode=mode)
        for seed, u in zip([1, 2, 1], propagators(seeds=[1, 2, 1], **spec), strict=True):
            assert u.tobytes() == next(propagators(seeds=[seed], **spec)).tobytes()


def test_propagators_constant_family():
    a = random_matrix(np.random.default_rng(1), 2, 1.5)
    for mode in ("ordered", "permuted", "iid"):
        u = next(propagators(constant_family(a), 300, [3], mode=mode))
        assert svd_norm(u - expm(a)) <= 300 * 1e-12 * np.exp(svd_norm(a))


@pytest.mark.parametrize("t", [0.29, 0.57, 0.58])
def test_propagators_slices_at_exact_grid_index(t):
    # t * 100 is a hair below an integer in floating point; flooring it drops
    # the last factor and misses exp(t A) by about 1e-2
    a = random_matrix(np.random.default_rng(2), 2, 1.0)
    u = next(propagators(constant_family(a), 100, [0], t=t, mode="ordered"))
    assert svd_norm(u - expm(t * a)) <= 1e-12
    u = next(propagators(constant_family(a), 100, [0], s=t, t=1.0, mode="ordered"))
    assert svd_norm(u - expm((1.0 - t) * a)) <= 1e-12


def test_propagators_ordered_step_time_ordered_limit():
    u = next(propagators(step_family(E12, E21), 4000, [0], mode="ordered"))
    assert op_norms(u - EXP_HALF_B @ EXP_HALF_C) <= 1e-2


def test_propagators_permuted_step_converges_to_exp_mean():
    us = propagators(step_family(E12, E21), 4000, range(50), mode="permuted")
    hits = sum(op_norms(u - EXP_MEAN) < 0.05 for u in us)
    assert hits >= 45


def test_propagators_interval_and_empty_slice():
    fn = step_family(E12, E21)
    u = next(propagators(fn, 400, [0], s=0.25, t=0.25, mode="ordered"))
    assert np.array_equal(u, np.eye(2))
    # commuting family on an aligned subinterval: product = exp(mean * length)
    fn2 = linear_diagonal_family([1.0, -0.5])
    row = gen_riemann(fn2, 400, "ordered")
    i0, i1 = 100, 300
    mean = row.elements[i0:i1].mean(axis=0)
    u = next(propagators(fn2, 400, [0], s=0.25, t=0.75, mode="ordered"))
    assert svd_norm(u - expm(0.5 * mean)) <= 1e-8 * math.e


def test_propagators_commuting_family_all_modes():
    fn = linear_diagonal_family([0.8, -0.3])
    for mode in ("ordered", "permuted", "iid"):
        mean = gen_riemann(fn, 500, mode, 11).elements.mean(axis=0)
        u = next(propagators(fn, 500, [11], mode=mode))
        assert svd_norm(u - expm(mean)) <= 1e-8 * math.exp(1.0)


def test_sampled_linf_never_exceeds_family_sup():
    fn = rotation_family(scale=1.7)
    for mode in ("permuted", "iid"):
        stats = gen_riemann(fn, 256, mode, 5).stats
        assert stats.linf <= 1.7 + 1e-12


def test_rotation_family_permuted_approaches_identity():
    # time average is exactly zero, so the permuted product approaches I
    u = next(propagators(rotation_family(), 4000, [1], mode="permuted"))
    assert op_norms(u - np.eye(2)) < 0.1


def test_cocycle_check():
    fn = step_family(E12, E21)
    assert cocycle_check(fn, 400, 0.0) <= 1e-12
    assert cocycle_check(fn, 400, 1.0) <= 1e-12
    assert cocycle_check(fn, 400, 0.5) <= 1e-10
    with pytest.raises(ValueError):
        cocycle_check(fn, 400, 1.5)


@pytest.mark.parametrize("r, im", [(0.29, 29), (0.5, 50), (0.58, 58)])
def test_cocycle_check_matches_three_slice_construction(r, im):
    # U(0, r) U(r, 1) - U(0, 1) built from one ordered row at n = 100
    fn = step_family(E12, E21, split=0.29)
    factors = exp_factors(gen_riemann(fn, 100, "ordered"))
    left, right, whole = (prefix_products(factors, np.arange(a, b))[-1]
                          for a, b in ((0, im), (im, 100), (0, 100)))
    assert cocycle_check(fn, 100, r) == op_norms(left @ right - whole)


def test_propagators_validation(monkeypatch):
    # each bad argument raises on the call, before any row is built, in every mode
    built = []
    monkeypatch.setattr(evolution, "gen_riemann",
                        lambda *args: built.append(args) or gen_riemann(*args))
    fn = constant_family(E12)
    for mode in ("ordered", "permuted", "iid"):
        for bad in (dict(s=0.5, t=0.25), dict(n=0), dict(mode="shuffled")):
            with pytest.raises(ValueError):
                propagators(**(dict(fn=fn, n=100, seeds=[0, 1], mode=mode) | bad))
    assert built == []
    next(propagators(fn, 100, [0], mode="iid"))
    assert len(built) == 1


def test_permuted_deviation_median_nonincreasing():
    fn = step_family(E12, E21)
    medians = []
    for n in (500, 2000, 8000):
        target = expm(riemann_reference(fn, 4 * n))
        devs = [op_norms(u - target) for u in propagators(fn, n, range(101), mode="permuted")]
        medians.append(float(np.median(devs)))
    assert medians[0] >= medians[1] >= medians[2]
