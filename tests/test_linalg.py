import tracemalloc

import numpy as np
import pytest

from trotter_shuffle import linalg
from trotter_shuffle.linalg import as_matrix, exp_stack, max_op_norm, op_norms
from trotter_shuffle.products import exp_factors, prefix_products, reference_path
from trotter_shuffle.rows import RegimeSpec, gen_spiked, gen_two_letter

from oracles import mp_exp, random_matrix, series_exp, svd_norm

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)


def mat_exp(m):
    """The exponential of one matrix: exp_stack on a stack of one, as the evolution target takes it."""
    return exp_stack(np.asarray(m, dtype=complex)[None], 1e-12)[0]


def test_mat_exp_zero_is_identity():
    assert np.array_equal(mat_exp(np.zeros((2, 2))), np.eye(2))


def test_mat_exp_diagonal():
    e = mat_exp(np.diag([1.0, 2.0]))
    assert np.allclose(e, np.diag([np.e, np.e**2]), rtol=1e-13)


def test_mat_exp_nilpotent():
    assert np.allclose(mat_exp(E12), np.eye(2) + E12, atol=1e-15)


def test_exp_stack_matches_series_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        d = int(rng.integers(2, 7))
        m = random_matrix(rng, d, 4.0)
        err = svd_norm(mat_exp(m) - series_exp(m))
        assert err <= 1e-10 * np.exp(svd_norm(m))


def test_exp_stack_inverse_identity():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = random_matrix(rng, 3, 5.0)
        prod = mat_exp(m) @ mat_exp(-m)
        assert svd_norm(prod - np.eye(3)) <= 1e-8 * np.exp(2 * svd_norm(m))


def test_exp_stack_norm_bound():
    rng = np.random.default_rng(4)
    for _ in range(30):
        m = random_matrix(rng, 2, 3.0)
        assert op_norms(mat_exp(m)) <= np.exp(op_norms(m)) + 1e-8


def test_exp_stack_batch_matches_one_matrix_stacks():
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


def test_op_norms_examples():
    assert op_norms(np.eye(5)) == pytest.approx(1.0, abs=1e-12)
    assert op_norms(np.diag([3.0, -1.0])) == pytest.approx(3.0, abs=1e-12)
    assert op_norms(2 * E12) == pytest.approx(2.0, abs=1e-12)
    # as_matrix, the check of every target: non-finite or non-square input
    for bad in (np.array([[np.inf, 0], [0, 0]]), np.zeros((2, 3)), np.zeros(2), np.zeros((0, 0))):
        with pytest.raises(ValueError):
            as_matrix(bad)


def test_op_norms_submultiplicative_and_triangle():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = random_matrix(rng, 3, 2.0)
        b = random_matrix(rng, 3, 2.0)
        assert op_norms(a @ b) <= op_norms(a) * op_norms(b) + 1e-9
        assert op_norms(a + b) <= op_norms(a) + op_norms(b) + 1e-9


def test_op_norms_batch_agrees_with_scalar():
    rng = np.random.default_rng(7)
    batch = np.stack([random_matrix(rng, 2, 2.0) for _ in range(50)])
    got = op_norms(batch)
    for i in range(50):
        assert got[i] == pytest.approx(op_norms(batch[i]), rel=1e-10)
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


def test_op_norms_chunk_boundaries_are_invisible():
    rng = np.random.default_rng(13)
    c = linalg._NORM_CHUNK
    g = rng.standard_normal((c + 1, 2, 2)) + 1j * rng.standard_normal((c + 1, 2, 2))
    g *= 10.0 ** rng.integers(-200, 150, size=(c + 1, 1, 1))
    one = np.array([op_norms(m) for m in g])
    for k in (c - 1, c, c + 1):
        assert op_norms(g[:k]).tobytes() == one[:k].tobytes()
    t = g[:c].reshape(2, c // 2, 2, 2)  # a (T, b, 2, 2) stack, as block_gaps passes
    got = op_norms(np.concatenate([t, t[:, :3]], axis=1))
    assert got.shape == (2, c // 2 + 3)
    assert got[:, :c // 2].tobytes() == one[:c].reshape(2, -1).tobytes()
    assert got[:, c // 2:].tobytes() == one[:c].reshape(2, -1)[:, :3].tobytes()


def test_op_norms_of_one_matrix_match_a_stack_of_one():
    rng = np.random.default_rng(12)
    for d in (1, 2, 5):
        m = random_matrix(rng, d, 3.0)
        assert op_norms(m) == op_norms(m[None])[0]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_op_norms_do_not_depend_on_the_layout_bit_for_bit(d):
    # numpy's complex abs rounds differently on a negative stride
    rng = np.random.default_rng(60 + d)
    g = rng.standard_normal((3000, d, d)) + 1j * rng.standard_normal((3000, d, d))
    want = op_norms(g).tobytes()
    assert op_norms(g[::-1])[::-1].tobytes() == want
    assert op_norms(g.swapaxes(1, 2).copy().swapaxes(1, 2)).tobytes() == want  # each matrix F-ordered


def _same_max(batch, at=None) -> bool:
    """max_op_norm, anchored at the indices at if given, is the SVD max; anchored,
    it is also the un-anchored max_op_norm."""
    want = float(op_norms(batch).max())
    if at is None:
        return max_op_norm(batch) == want
    return max_op_norm(batch, at, op_norms(batch[at])) == want == max_op_norm(batch)


def _grid(k):
    """The anchors path_deviations passes for a path of k matrices: its 101-point grid."""
    return np.array(sorted({round(m * (k - 1) / 100) for m in range(101)}))


def _rank_one(rng, k, d, scales):
    u = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    v = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    return np.asarray(scales)[:, None, None] * u[:, :, None] * v[:, None, :].conj()


def _screen_stacks(d, scale):
    """Random with the zero k = 0 difference of a path, rank one only, zeros, a tie
    everywhere (all kept) and ties every 50."""
    rng = np.random.default_rng(d)
    g = rng.standard_normal((600, d, d)) + 1j * rng.standard_normal((600, d, d))
    g *= rng.uniform(0.9, 1.1, size=(600, 1, 1)) * scale
    g[0] = 0.0
    g[100:300] = _rank_one(rng, 200, d, rng.uniform(0.5, 3.0, 200) * scale)
    ties = g.copy()
    ties[::50] = g[np.argmax(op_norms(g))]
    return [g, g[100:300], np.zeros((5, d, d)), np.broadcast_to(g[7], (700, d, d)), ties]


@pytest.mark.parametrize("d", [1, 2, 3, 8])
@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_max_op_norm_is_the_svd_max_bit_for_bit(d, scale):
    for batch in _screen_stacks(d, scale):
        assert _same_max(batch)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_max_op_norm_anchored_is_the_svd_max_bit_for_bit(d, scale):
    stacks = _screen_stacks(d, scale)
    for batch in stacks:
        k = len(batch)
        for at in (_grid(k), np.array([0, k - 1]), np.arange(k)):
            assert _same_max(batch, at)
    between = stacks[0].copy()
    between[5] = 2.0 * between[np.argmax(op_norms(between))]
    for tiny in (1.0, 1e-20):  # at 1e-170 the squared differences underflow unless scaled
        assert _same_max(between * tiny, np.arange(0, 600, 10))  # the maximum between anchors


@pytest.mark.parametrize("d", [3, 8])
def test_max_op_norm_margin_keeps_near_ties_of_tight_anchor_bounds(d):
    # sigma(A) + ||M - A||_F is tight for M = cA, A of rank one: M, a few ulps
    # from the anchor A at 0, can tie the other anchor, c I at 2, and rounding
    # in the bound alone could then drop M when it is the larger
    rng = np.random.default_rng(50 + d)
    at = np.array([0, 2])
    for _ in range(16):
        r = _rank_one(rng, 1, d, [1.0])[0]
        r /= op_norms(r)
        for j in range(-4, 5):
            for k in range(-4, 5):
                c = (1.0 + k * np.spacing(1.0)) * np.eye(d)
                assert _same_max(np.stack([r, (1.0 + j * np.spacing(1.0)) * r, c]), at)


def test_max_op_norm_margin_keeps_near_ties_of_tight_brackets():
    # A rank-one matrix has a tight upper bound and the identity a loose one,
    # so at norms a few ulps apart the identity has the larger bound and gives
    # the exact lower bound: rounding in the bound alone could then drop the
    # rank-one matrix when it is the larger. At d = 2 the bound is the
    # Frobenius norm, at d >= 3 the Schatten bracket.
    rng = np.random.default_rng(0)
    for d in (2, 3, 8):
        for _ in range(64):
            r = _rank_one(rng, 1, d, [1.0])[0]
            r /= op_norms(r)
            for k in range(-6, 7):
                c = (1.0 + k * np.spacing(1.0)) * np.eye(d)
                assert _same_max(np.stack([r, c])) and _same_max(np.stack([c, r]))


@pytest.mark.parametrize("d", [2, 3, 8])
def test_max_op_norm_largest_bound_need_not_be_the_maximum(monkeypatch, d):
    # the identity's bound is sqrt(2) (d = 2) or d^(1/32) (d >= 3) times its
    # norm 1, above the bound of a rank-one matrix of norm 1.01: the lower
    # bound comes from the identity and the maximum from the screen
    rng = np.random.default_rng(30 + d)
    r = _rank_one(rng, 3, d, [1.0, 1.0, 1.0])
    r *= (np.array([0.5, 1.01, 0.9]) / op_norms(r))[:, None, None]
    batch = np.concatenate([r, np.eye(d)[None]])
    want, top = float(op_norms(batch).max()), int(op_norms(batch).argmax())
    seen = []
    monkeypatch.setattr(linalg, "op_norms", lambda b: seen.append(b) or op_norms(b))
    assert max_op_norm(batch) == want and top == 1
    assert np.array_equal(seen[0], np.eye(d)[None])  # the largest bound's matrix: the lower bound


@pytest.mark.parametrize("dtype", [float, complex])
def test_max_op_norm_one_2x2_pass_spans_the_exponent_range(dtype):
    # one screening pass, one power-of-two scale: the 1e-200 entries vanish
    # when squared, and the 1e150 ones neither overflow nor lose the maximum
    rng = np.random.default_rng(2)

    def stack(k, scales):
        g = rng.standard_normal((k, 2, 2)).astype(dtype)
        g += 1j * rng.standard_normal((k, 2, 2)) if dtype is complex else 0.0
        return g * scales[:, None, None]

    g = stack(700, 10.0 ** rng.uniform(-200, 150, 700))
    g[np.argsort(op_norms(g))[-5:]] = g[op_norms(g).argmax()]  # a tie at the top
    assert g.nbytes <= linalg._SCREEN_BYTES and _same_max(g)
    assert _same_max(g[op_norms(g) < 1e-100])  # only the small ones
    for scale in (1e-170, 1e200):  # squares that under- or overflow unless scaled
        assert _same_max(stack(700, rng.uniform(0.5, 2.0, 700) * scale))


def _deviation_stack(row, seed):
    """P_k - exp(k A_n / n) for k = 0..n along one seeded uniform order."""
    order = np.random.default_rng(seed).permutation(row.n)
    return prefix_products(exp_factors(row), order) - reference_path(row.stats.mean, row.n)


def test_max_op_norm_svds_only_the_screened_matrices(monkeypatch):
    rng = np.random.default_rng(9)
    g = rng.standard_normal((2001, 8, 8)) + 1j * rng.standard_normal((2001, 8, 8))
    letters = _deviation_stack(gen_two_letter(8000, E12, E21), 11)
    spiked = _deviation_stack(gen_spiked(2000, RegimeSpec("large_linf", delta=1.0),
                                         np.random.default_rng(12), d=8), 13)
    want = [float(op_norms(b).max()) for b in (g, letters, spiked)]
    seen = []
    monkeypatch.setattr(linalg, "op_norms", lambda b: seen.append(len(b)) or op_norms(b))
    assert max_op_norm(g) == want[0]
    assert seen and seen[-1] < len(g) // 2
    seen.clear()
    assert max_op_norm(letters) == want[1]
    assert sum(seen) < len(letters) / 3  # the 2x2 closed form on under a third of the path
    seen.clear()
    assert max_op_norm(spiked) == want[2]
    assert sum(seen) < 20  # SVDs of a d = 8 path of 2001 matrices
    # anchored on its grid's exact norms, under a quarter of the path gets a bracket
    ks = _grid(len(spiked))
    norms, bracketed = op_norms(spiked[ks]), []
    bracket = linalg._bracket
    monkeypatch.setattr(linalg, "_bracket", lambda m: bracketed.append(len(m)) or bracket(m))
    seen.clear()
    assert max_op_norm(spiked, ks, norms) == want[2]
    assert 0 < sum(bracketed) < len(spiked) / 4 and sum(seen) < 20


def test_max_op_norm_anchored_builds_no_stack_sized_temporary():
    # passes of _SCREEN_BYTES and O(k) bounds and indices: a difference of the
    # whole stack from its anchors would alone take the stack's 2 MB
    spiked = _deviation_stack(gen_spiked(2000, RegimeSpec("large_linf", delta=1.0),
                                         np.random.default_rng(12), d=8), 13)
    ks = _grid(len(spiked))
    norms = op_norms(spiked[ks])
    max_op_norm(spiked, ks, norms)  # first calls allocate numpy's own caches
    tracemalloc.start()
    try:
        max_op_norm(spiked, ks, norms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spiked.nbytes == 2001 * 8 * 8 * 16 and peak < spiked.nbytes / 4, peak


def _real_stack(rng, k, d):
    """k real d x d matrices with entries that are no dyadic fractions, at
    norms from 1e-2 to 5 (the exponential scales some and squares them back)."""
    return rng.standard_normal((k, d, d)) * rng.choice([0.01, 0.3, 1.0, 5.0], (k, 1, 1))


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_real_kernels_are_the_complex_kernels_bit_for_bit(d):
    # float64 in, float64 out, with the bits of the complex128 result on the
    # same data: exp_stack divides by k as complex128 does (by 1/k), and the
    # SVD of d >= 3 runs in complex arithmetic either way
    rng = np.random.default_rng(40 + d)
    x = _real_stack(rng, 300, d)
    e, ez = exp_stack(x), exp_stack(x.astype(complex))
    assert (e.dtype, ez.dtype) == (np.float64, np.complex128)
    assert e.tobytes() == ez.real.tobytes() and not ez.imag.any()
    g = _real_stack(rng, 3000, d)  # more than one chunk of the 2x2 closed form
    g[:100] *= 1e-200
    g[100:200] *= 1e150
    g[200] = 0.0
    assert op_norms(g).tobytes() == op_norms(g.astype(complex)).tobytes()
    for batch in (g[300:], g[:100], g[100:200], e):
        assert max_op_norm(batch) == max_op_norm(batch.astype(complex))
