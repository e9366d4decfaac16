import dataclasses
import math

import numpy as np
import pytest

from trotter_shuffle.evolution import (PropagatorSpec, cocycle_check,
                                       constant_family, linear_diagonal_family,
                                       propagate, propagators, rotation_family,
                                       sample_row, step_family)
from trotter_shuffle.experiments import riemann_reference
from trotter_shuffle.linalg import mat_exp, op_norm
from trotter_shuffle.rows import row_stats

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


def test_riemann_integral():
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


@pytest.mark.parametrize("name", sorted(FAMILY_CASES))
@pytest.mark.parametrize("mode", ["ordered", "permuted", "iid"])
def test_propagators_match_per_seed_propagate(name, mode):
    fn = FAMILY_CASES[name][0]
    seeds = [0, 3, (7, 1, 100, 2)]
    for s, t in ((0.0, 1.0), (0.25, 0.75), (0.29, 0.58)):
        spec = PropagatorSpec(fn=fn, s=s, t=t, n=100, mode=mode)
        for seed, u in zip(seeds, propagators(spec, seeds), strict=True):
            one = dataclasses.replace(spec, seed=seed)
            assert np.array_equal(u, propagate(one))
            assert np.array_equal(u, propagate(one, row=sample_row(one)))


def test_propagate_constant_family():
    a = random_matrix(np.random.default_rng(1), 2, 1.5)
    for mode in ("ordered", "permuted", "iid"):
        spec = PropagatorSpec(fn=constant_family(a), n=300, mode=mode, seed=3)
        u = propagate(spec)
        assert svd_norm(u - mat_exp(a)) <= 300 * 1e-12 * np.exp(svd_norm(a))


@pytest.mark.parametrize("t", [0.29, 0.57, 0.58])
def test_propagate_slices_at_exact_grid_index(t):
    # t * 100 is a hair below an integer in floating point; flooring it drops
    # the last factor and misses exp(t A) by about 1e-2
    a = random_matrix(np.random.default_rng(2), 2, 1.0)
    spec = PropagatorSpec(fn=constant_family(a), t=t, n=100, mode="ordered")
    assert svd_norm(propagate(spec) - mat_exp(t * a)) <= 1e-12
    spec = PropagatorSpec(fn=constant_family(a), s=t, t=1.0, n=100, mode="ordered")
    assert svd_norm(propagate(spec) - mat_exp((1.0 - t) * a)) <= 1e-12


def test_propagate_ordered_step_time_ordered_limit():
    spec = PropagatorSpec(fn=step_family(E12, E21), n=4000, mode="ordered")
    u = propagate(spec)
    assert op_norm(u - EXP_HALF_B @ EXP_HALF_C) <= 1e-2


def test_propagate_permuted_step_converges_to_exp_mean():
    hits = 0
    for seed in range(50):
        spec = PropagatorSpec(fn=step_family(E12, E21), n=4000, mode="permuted", seed=seed)
        if op_norm(propagate(spec) - EXP_MEAN) < 0.05:
            hits += 1
    assert hits >= 45


def test_propagate_interval_and_empty_slice():
    fn = step_family(E12, E21)
    spec = PropagatorSpec(fn=fn, s=0.25, t=0.25, n=400, mode="ordered")
    assert np.array_equal(propagate(spec), np.eye(2))
    # commuting family on an aligned subinterval: product = exp(mean * length)
    fn2 = linear_diagonal_family([1.0, -0.5])
    spec2 = PropagatorSpec(fn=fn2, s=0.25, t=0.75, n=400, mode="ordered")
    row = sample_row(spec2)
    i0, i1 = 100, 300
    mean = row.elements[i0:i1].mean(axis=0)
    u = propagate(spec2, row=row)
    assert svd_norm(u - mat_exp(0.5 * mean)) <= 1e-8 * math.e


def test_propagate_commuting_family_all_modes():
    fn = linear_diagonal_family([0.8, -0.3])
    for mode in ("ordered", "permuted", "iid"):
        spec = PropagatorSpec(fn=fn, n=500, mode=mode, seed=11)
        row = sample_row(spec)
        mean = row.elements.mean(axis=0)
        u = propagate(spec, row=row)
        assert svd_norm(u - mat_exp(mean)) <= 1e-8 * math.exp(1.0)


def test_sampled_linf_never_exceeds_family_sup():
    fn = rotation_family(scale=1.7)
    for mode in ("permuted", "iid"):
        spec = PropagatorSpec(fn=fn, n=256, mode=mode, seed=5)
        stats = row_stats(sample_row(spec))
        assert stats.linf <= 1.7 + 1e-12


def test_rotation_family_permuted_approaches_identity():
    # time average is exactly zero, so the permuted product approaches I
    spec = PropagatorSpec(fn=rotation_family(), n=4000, mode="permuted", seed=1)
    assert op_norm(propagate(spec) - np.eye(2)) < 0.1


def test_cocycle_check():
    fn = step_family(E12, E21)
    spec = PropagatorSpec(fn=fn, n=400, mode="ordered")
    assert cocycle_check(spec, 0.0) <= 1e-12
    assert cocycle_check(spec, 1.0) <= 1e-12
    assert cocycle_check(spec, 0.5) <= 1e-10
    with pytest.raises(ValueError):
        cocycle_check(spec, 1.5)
    with pytest.raises(ValueError):
        cocycle_check(PropagatorSpec(fn=fn, n=400, mode="permuted"), 0.5)


def test_propagator_spec_validation():
    fn = constant_family(E12)
    with pytest.raises(ValueError):
        PropagatorSpec(fn=fn, s=0.5, t=0.25)
    with pytest.raises(ValueError):
        PropagatorSpec(fn=fn, n=0)
    with pytest.raises(ValueError):
        PropagatorSpec(fn=fn, mode="shuffled")


def test_permuted_deviation_median_nonincreasing():
    fn = step_family(E12, E21)
    medians = []
    for n in (500, 2000, 8000):
        target = mat_exp(riemann_reference(fn, 4 * n))
        devs = [op_norm(propagate(PropagatorSpec(fn=fn, n=n, mode="permuted", seed=s))
                        - target)
                for s in range(101)]
        medians.append(float(np.median(devs)))
    assert medians[0] >= medians[1] >= medians[2]
