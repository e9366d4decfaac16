import numpy as np
import pytest

from trotter_shuffle.linalg import exp_stack, mat_exp, op_norm, op_norms

from oracles import mp_exp, random_matrix, series_exp, svd_norm

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)


def test_mat_exp_zero_is_identity():
    assert np.allclose(mat_exp(np.zeros((2, 2))), np.eye(2), atol=1e-15)


def test_mat_exp_diagonal():
    e = mat_exp(np.diag([1.0, 2.0]))
    assert np.allclose(e, np.diag([np.e, np.e**2]), rtol=1e-13)


def test_mat_exp_nilpotent():
    assert np.allclose(mat_exp(E12), np.eye(2) + E12, atol=1e-15)


def test_mat_exp_rejects_bad_input():
    with pytest.raises(ValueError):
        mat_exp(np.array([[np.nan, 0], [0, 0]]))
    with pytest.raises(ValueError):
        mat_exp(np.eye(2), tol=1e-3)
    with pytest.raises(ValueError):
        mat_exp(np.eye(2), tol=0.0)


def test_mat_exp_matches_series_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        d = int(rng.integers(2, 7))
        m = random_matrix(rng, d, 4.0)
        err = svd_norm(mat_exp(m) - series_exp(m))
        assert err <= 1e-10 * np.exp(svd_norm(m))


def test_mat_exp_inverse_identity():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = random_matrix(rng, 3, 5.0)
        prod = mat_exp(m) @ mat_exp(-m)
        assert svd_norm(prod - np.eye(3)) <= 1e-8 * np.exp(2 * svd_norm(m))


def test_mat_exp_norm_bound():
    rng = np.random.default_rng(4)
    for _ in range(30):
        m = random_matrix(rng, 2, 3.0)
        assert op_norm(mat_exp(m)) <= np.exp(op_norm(m)) + 1e-8


def test_exp_stack_matches_mat_exp():
    rng = np.random.default_rng(5)
    batch = np.stack([random_matrix(rng, 2, 0.4) for _ in range(20)])
    es = exp_stack(batch)
    for i in range(20):
        assert svd_norm(es[i] - mat_exp(batch[i])) < 1e-13
    big = np.stack([random_matrix(rng, 2, 3.0) for _ in range(4)])
    eb = exp_stack(big)
    for i in range(4):
        assert svd_norm(eb[i] - mat_exp(big[i])) < 1e-11


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_exp_stack_mixed_norms_vs_mp_oracle(d):
    # one batch: a zero matrix and norms from 1e-8 to 50, each with its own
    # number of squarings, against the 40-digit oracle
    rng = np.random.default_rng(40 + d)
    norms = np.geomspace(1e-8, 50.0, 12)
    mats = [random_matrix(rng, d, 1.0) for _ in norms]
    batch = np.stack([np.zeros((d, d))] + [m * (t / svd_norm(m)) for m, t in zip(mats, norms)])
    got = exp_stack(batch)
    assert got.shape == batch.shape
    assert np.array_equal(got[0], np.eye(d))
    for m, e in zip(batch, got):
        assert svd_norm(e - mp_exp(m)) <= 1e-13 * np.exp(svd_norm(m))
    assert exp_stack(np.zeros((0, d, d))).shape == (0, d, d)


def test_op_norm_examples():
    assert op_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-12)
    assert op_norm(np.diag([3.0, -1.0])) == pytest.approx(3.0, abs=1e-12)
    assert op_norm(2 * E12) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        op_norm(np.array([[np.inf, 0], [0, 0]]))


def test_op_norm_submultiplicative_and_triangle():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = random_matrix(rng, 3, 2.0)
        b = random_matrix(rng, 3, 2.0)
        assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-9
        assert op_norm(a + b) <= op_norm(a) + op_norm(b) + 1e-9


def test_op_norms_batch_agrees_with_scalar():
    rng = np.random.default_rng(7)
    batch = np.stack([random_matrix(rng, 2, 2.0) for _ in range(50)])
    got = op_norms(batch)
    for i in range(50):
        assert got[i] == pytest.approx(op_norm(batch[i]), rel=1e-10)
    # Hermitian inputs
    herm = (batch + np.conj(np.swapaxes(batch, -1, -2))) / 2
    got_h = op_norms(herm)
    for i in range(50):
        assert got_h[i] == pytest.approx(svd_norm(herm[i]), rel=1e-10)


@pytest.mark.parametrize("scale", [1e-200, 1e-8, 1.0, 1e150])
def test_op_norms_closed_form_2x2_matches_svd(scale):
    rng = np.random.default_rng(int(-np.log10(scale)) + 300)
    g = (rng.standard_normal((3000, 2, 2)) + 1j * rng.standard_normal((3000, 2, 2))) * scale
    g[:500, 0] *= 1e-9  # entries of very different size within one matrix
    g[500:800, :, 1] = g[500:800, :, 0] * (0.3 - 2j)  # rank one
    g[800:1100] = (g[800:1100] + np.conj(np.swapaxes(g[800:1100], -1, -2))) / 2  # Hermitian
    want = np.linalg.svd(g, compute_uv=False)[..., 0]
    got = op_norms(g)
    assert np.all(np.abs(got - want) <= 4e-15 * want)
    assert op_norms(np.zeros((3, 2, 2))).tolist() == [0.0, 0.0, 0.0]


def test_op_norm_delegates_to_op_norms():
    rng = np.random.default_rng(12)
    for d in (1, 2, 5):
        m = random_matrix(rng, d, 3.0)
        assert op_norm(m) == op_norms(m[None])[0]
