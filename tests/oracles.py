"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: the series oracle sums the
exponential power series to machine saturation with compensated addition, the
mpmath oracles work at 40 significant digits, and recompute checks every record
of an experiment report against the same records rebuilt from its config.
"""

from __future__ import annotations

import math

import numpy as np
import mpmath as mp
from scipy.linalg import expm

from trotter_shuffle.experiments import (COLUMNS, FAMILY_DEFAULTS, GENERATOR_DEFAULTS, KINDS,
                                         parse_matrix)


def svd_norm(m) -> float:
    """Operator norm via the eigenvalues of M* M (independent of np SVD path)."""
    a = np.asarray(m, dtype=np.complex128)
    w = np.linalg.eigvalsh(a.conj().T @ a)
    return float(np.sqrt(max(w.max(), 0.0)))


def series_exp(m) -> np.ndarray:
    """exp(M) by scaling 2^-s until norm < 1/2, compensated Taylor summation to
    machine saturation, then s squarings."""
    a = np.asarray(m, dtype=np.complex128)
    d = a.shape[0]
    norm = np.linalg.norm(a, 2)
    s = 0
    while norm / 2**s >= 0.5:
        s += 1
    x = a / 2**s
    acc = np.eye(d, dtype=np.complex128)
    comp = np.zeros_like(acc)
    term = np.eye(d, dtype=np.complex128)
    for k in range(1, 80):
        term = term @ x / k
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        if np.abs(term).max() < 1e-40:
            break
    for _ in range(s):
        acc = acc @ acc
    return acc


def to_mp(a) -> mp.matrix:
    a = np.asarray(a, dtype=np.complex128)
    m = mp.matrix(a.shape[0], a.shape[1])
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            m[i, j] = mp.mpc(a[i, j].real, a[i, j].imag)
    return m


def from_mp(m) -> np.ndarray:
    out = np.empty((m.rows, m.cols), dtype=np.complex128)
    for i in range(m.rows):
        for j in range(m.cols):
            z = m[i, j]
            out[i, j] = complex(float(mp.re(z)), float(mp.im(z)))
    return out


def mp_exp(a, dps: int = 40) -> np.ndarray:
    with mp.workdps(dps):
        return from_mp(mp.expm(to_mp(a)))


def mp_product_path(matrices, n: int, dps: int = 40) -> list[np.ndarray]:
    """Partial products of expm(A_i / n) at high precision; returns n+1 arrays."""
    with mp.workdps(dps):
        d = np.asarray(matrices[0]).shape[0]
        acc = mp.eye(d)
        out = [from_mp(acc)]
        for a in matrices:
            acc = acc * mp.expm(to_mp(np.asarray(a) / n))
            out.append(from_mp(acc))
        return out


def random_matrix(rng: np.random.Generator, d: int, norm_cap: float) -> np.ndarray:
    """Dense complex matrix scaled to a uniformly random norm in (0, norm_cap]."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    target = rng.uniform(0.05, 1.0) * norm_cap
    return g * (target / svd_norm(g))


def random_hermitian(rng: np.random.Generator, d: int, norm: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2
    return h * (norm / svd_norm(h))


def sequential_products(factors, order) -> np.ndarray:
    """P_0 = I, P_k = P_{k-1} @ factors[order[k-1]] by a plain left-to-right
    loop: the slow path the blocked prefix scan replaces."""
    f = np.asarray(factors, dtype=np.complex128)
    d = f.shape[-1]
    out = np.empty((len(order) + 1, d, d), dtype=np.complex128)
    p = np.eye(d, dtype=np.complex128)
    out[0] = p
    for k, i in enumerate(order):
        p = p @ f[i]
        out[k + 1] = p
    return out


def gathered_block_gaps(row, order, a) -> tuple[float, float]:
    """Largest ||block mean - A_n|| and |block norm-mean - L1| over the b = n // a
    blocks of size a of one order, by gathering all a*b elements and averaging each block: the
    slow path the per-block sums of tails.block_gaps replace. It shares
    op_norms with the kernel so that exact sums give bit-identical gaps."""
    from trotter_shuffle.linalg import op_norms

    b = row.n // a
    idx, stats = order[: a * b], row.stats
    blocks = row.elements[idx].reshape(b, a, row.d, row.d)
    mean_gap = float(op_norms(blocks.mean(axis=1) - stats.mean).max())
    norms = op_norms(row.elements)[idx].reshape(b, a)
    return mean_gap, float(np.abs(norms.mean(axis=1) - stats.l1).max())


def two_letter_tail(n: int, a: int, gap: float, eps) -> list[float]:
    """P(some size-a block mean strays more than e from the row mean), for each e of eps, over
    uniform orders of a row of n/2 copies each of B and C with gap = ||B - C||, exactly: a block
    of k copies of B strays by |k/a - 1/2| gap. The counts of the b = n // a blocks and of the
    n - a b positions left over are independent binomials conditioned on their sum n/2, so no
    block strays with [x^(n/2)] of the product of their pmfs, each block's cut to the counts
    that do not stray, over P(Bin(n, 1/2) = n/2). Exact to roundoff, about 1e-14 absolute."""
    b, half, rest = n // a, n // 2, n % a
    pmf = np.array([math.comb(a, k) / 2**a for k in range(a + 1)])
    strays = np.abs(np.arange(a + 1) / a - 0.5) * gap

    def none_stray(f):  # f^b times the leftover pmf, by squaring, cut at degree n/2
        out, k = np.array([math.comb(rest, j) / 2**rest for j in range(rest + 1)]), b
        while k:
            out = np.convolve(out, f)[:half + 1] if k & 1 else out
            f, k = np.convolve(f, f)[:half + 1] if k > 1 else f, k >> 1
        return out[half] if len(out) > half else 0.0

    cuts = [tuple(strays <= e) for e in eps]
    law = {cut: max(0.0, 1.0 - none_stray(np.where(cut, pmf, 0.0)) / (math.comb(n, half) / 2**n))
           for cut in set(cuts)}
    return [law[cut] for cut in cuts]


def two_letter_tau_tail(b: int, p: float) -> float:
    """P(tau > p / sqrt(b)) over uniform words of two letters, each b times, exactly. The gap
    between the letters' prefix counts is a +-1 bridge S of length 2b and tau = (max|S| + 1) / b,
    so this is P(max|S| >= h), h the least count with (h + 1) / b > p / sqrt(b): the two-sample
    Kolmogorov-Smirnov law (Gnedenko and Korolyuk, 1951), 2 sum_j (-1)^(j-1) C(2b, b - j h)
    / C(2b, b) over j >= 1."""
    h = next((m for m in range(b + 1) if (m + 1.0) / b > p / math.sqrt(b)), b + 1)
    if h == 0:
        return 1.0
    hits = sum((-1) ** (j - 1) * math.comb(2 * b, b - j * h) for j in range(1, b // h + 1))
    return 2 * hits / math.comb(2 * b, b)


def e12_e21_limit(draws: int, steps: int, seed: int) -> np.ndarray:
    """Draws of the limit in law of sqrt(n) max_k ||P_k - e^(kA/n)|| over uniform orders of the
    row of n/2 copies each of B = E12 and C = E21, the products taken as P_k = P_(k-1) e^(X/n)
    (ROADMAP item 13). Centred, the row's partial sums over sqrt(n) tend to W(u) = Z(u) J / 2,
    J = B - C and Z a standard Brownian bridge, and the limit is sup_t ||G(t)|| with
    G(t) = int_0^t e^(uA) dW(u) e^((t-u)A). A = sigma_x / 2 anticommutes with J, an orthogonal
    matrix, so ||G(t)|| = ||int_0^t e^((u - t/2) sigma_x) dZ(u)|| / 2
    = max(e^(-t/2) |int_0^t e^u dZ|, e^(t/2) |int_0^t e^(-u) dZ|) / 2: two scalar integrals,
    each a left-point sum over a grid of the given steps, 250 draws at a time."""
    u = np.arange(steps) / steps
    rng, out = np.random.default_rng(seed), []
    for lo in range(0, draws, 250):
        dz = rng.standard_normal((min(250, draws - lo), steps))
        dz -= dz.mean(axis=1, keepdims=True)  # the bridge: increments that sum to 0
        up = np.abs(np.cumsum(dz * np.exp(u), axis=1)) * np.exp(-(u + 1 / steps) / 2)
        down = np.abs(np.cumsum(dz * np.exp(-u), axis=1)) * np.exp((u + 1 / steps) / 2)
        out.append(np.maximum(up, down).max(axis=1))
    return np.concatenate(out) / (2 * math.sqrt(steps))


# The golden oracle: every record of a report recomputed from the config alone. The draws
# are data, taken from the runners' keyed streams; everything computed from them is done
# here without the package's kernels: scipy's expm, sequential products, svd_norm, dense
# block means, an O(L^2) inversion count and the regime and bound formulas written out.

def _norms(stack) -> np.ndarray:
    return np.array([svd_norm(m) for m in stack])


def _family(g: dict):
    """The family of a generator with an "fn" key (defaults filled in): values at times xs."""
    fn = g["fn"]
    if fn == "constant":
        m = parse_matrix(g["matrix"], "matrix")
        return lambda xs: np.broadcast_to(m, (len(xs), *m.shape))
    if fn == "linear_diagonal":
        return lambda xs: xs[:, None, None] * np.diag(np.asarray(g["diag"], dtype=complex))
    if fn == "step":
        b, c = parse_matrix(g["b"], "b"), parse_matrix(g["c"], "c")
        return lambda xs: np.where((xs < g["split"])[:, None, None], b, c)

    def rotation(xs):  # [[0, z], [conj z, 0]] with z = scale e^{2 pi i x}
        z = g["scale"] * np.exp(2j * np.pi * xs)
        out = np.zeros((len(xs), 2, 2), dtype=complex)
        out[:, 0, 1], out[:, 1, 0] = z, z.conj()
        return out
    return rotation


def _spiked_parameters(n: int, g: dict) -> tuple[int, float]:
    """(k_n, linf) of a spiked regime (defaults filled in), from its formulas written out."""
    ln, delta, regime = math.log(n), g["delta"], g["regime"]
    lln = math.log(ln)
    if regime in ("prob_regime", "as_regime"):
        linf = math.sqrt(n) if g["linf"] is None else g["linf"]
        lr = math.log(n / linf)
        loss = ((4 + 2 * delta) * math.log(lr) if regime == "prob_regime"
                else lln + (3 + delta) * math.log(lr))
        k = n / (3 * linf) * (lr - loss)
    elif regime == "large_linf":
        k = ln * lln ** (3 + 2 * delta) / 3
        linf = n / (3 * k)
    elif regime == "bounded_log":
        k, linf = n, (ln - (5 + delta) * lln) / 3
    else:  # intermediate
        alpha, beta, t = g["alpha"], g["beta"], g["t"]
        k = alpha * t * n ** alpha * ln ** beta
        linf = n ** (1 - alpha) * ln ** (1 - beta) / (3 * t)
    return math.floor(k + 0.5), linf


def _row(g: dict, n: int, rng: np.random.Generator, d: int) -> np.ndarray:
    """The (n, d, d) elements of the row of a generator (defaults filled in)."""
    name = g["name"]
    if name == "two_letter":
        pair = np.stack([parse_matrix(g["b"], "b"), parse_matrix(g["c"], "c")])
        return pair[np.arange(n) // (n // 2) if g["order"] == "first_half_b" else np.arange(n) % 2]
    if name == "repeated":
        letters = [parse_matrix(m, "letter") for m in g["letters"]]
        a = len(letters)
        out = np.zeros((n, *letters[0].shape), dtype=complex)
        out[:n - n % a] = np.stack(letters * (n // a))
        return out
    if name == "spiked":
        k, linf = _spiked_parameters(n, g)
        parts = []
        for count, scale in ((k, linf), (n - k, 1.0)):  # drawn in this order
            x = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
            h = (x + x.conj().transpose(0, 2, 1)) / 2
            parts.append(h / _norms(h)[:, None, None] * scale)
        return np.concatenate(parts)
    xs = {"ordered": lambda: np.arange(n) / n, "permuted": lambda: rng.permutation(n) / n,
          "iid": lambda: rng.random(n)}[g["mode"]]()
    return np.asarray(_family(g)(xs), dtype=complex)  # riemann


def _path_norms(elements, orders, targets) -> list[list[np.ndarray]]:
    """For each order, for each target A, ||P_k - expm(k A / n)|| for k = 0..n, P_k the
    sequential products of expm factors."""
    n = len(elements)
    factors = expm(elements / n)
    refs = [expm(np.arange(n + 1)[:, None, None] / n * a) for a in targets]
    return [[_norms(sequential_products(factors, o) - ref) for ref in refs] for o in orders]


def _slack(target, n: int) -> float:
    nt = svd_norm(target)
    return nt * math.exp(nt) / n


def _merged(g: dict) -> dict:
    merged = {**GENERATOR_DEFAULTS[g["name"]], **g}
    return {**FAMILY_DEFAULTS.get(merged.get("fn"), {}), **merged}


def _cell(cfg, g: dict, n: int, *cell: int):
    """The row of a cell and its orders, drawn from the streams _cell keys as (seed, kind, n,
    *cell) and (*key, trial)."""
    key = (cfg.seed, KINDS.index(cfg.kind) + 1, n, *cell)
    orders = [np.arange(n) if cfg.sigma_mode == "identity"
              else np.random.default_rng((*key, t)).permutation(n) for t in range(cfg.trials)]
    return _row(g, n, np.random.default_rng(key), cfg.d), orders


def _converge_records(cfg):
    g = _merged(cfg.generator)
    for n in cfg.n_list:
        elements, orders = _cell(cfg, g, n)
        mean = elements.mean(axis=0)
        targets = [] if cfg.target is None else [parse_matrix(cfg.target, "target")]
        ks = sorted({round(m * n / 100) for m in range(101)})
        slack = _slack(mean, n)
        for trial, (devs, *devs_t) in enumerate(_path_norms(elements, orders, [mean, *targets])):
            for k in ks:
                yield n, trial, k, devs[k], devs_t[0][k] if devs_t else None, None, None
            yield n, trial, None, None, None, devs.max() + slack, slack  # the max over all n + 1


def _tail_records(cfg):
    g = _merged(cfg.generator)
    for n in cfg.n_list:
        elements, orders = _cell(cfg, g, n)
        d, mean, norms = elements.shape[-1], elements.mean(axis=0), _norms(elements)
        l1, linf = norms.mean(), norms.max()
        a = g.get("a")
        if a is None:  # block_mode's size: sqrt(n), or sqrt(n) grown by the concentration scale
            scale = 1.0 if cfg.block_mode == "sqrt_default" else max(
                1.0, l1 * linf * math.exp(min(2 * l1, 709)))
            a = max(1, min(math.ceil(math.sqrt(min(n * scale, n * n))), n // 2))
        b = n // a
        gaps = np.array([_norms(elements[o[:a * b]].reshape(b, a, d, d).mean(axis=1) - mean).max()
                         for o in orders])
        v = a / n * (_norms(elements - mean) ** 2).sum()
        floor = cfg.eps or 0.05
        for i in range(12):
            eps = floor * (3 * l1 / floor) ** (i / 12)
            band = tuple((gaps > eps + s * 1e-9).mean() for s in (1, -1))
            tail = 2 * d * math.exp(-(a * eps) ** 2 / 2 / (v + 2 * linf * a * eps / 3))
            yield (n, eps, band, b * min(tail, 2 * d),
                   b * 2 * d * math.exp(-a * eps ** 2 / 12 / (l1 * linf)), cfg.trials)


def _regime_records(cfg):
    gen = _merged(cfg.generator)
    for n in cfg.n_list:
        for ri, r in enumerate(cfg.generator.get("regimes") or [{}]):
            g = {**gen, **r}
            k_n, linf = _spiked_parameters(n, g)
            elements, orders = _cell(cfg, g, n, ri)
            mean = elements.mean(axis=0)
            l1, slack = _norms(elements).mean(), _slack(mean, n)
            for trial, (devs,) in enumerate(_path_norms(elements, orders, [mean])):
                yield (n, g["regime"], trial, k_n, linf, l1, svd_norm(mean),
                       devs.max() + slack, slack)


def _words_records(cfg):
    a, b = (_merged(cfg.generator)[k] for k in "ab")
    for trial in range(cfg.trials):
        rng = np.random.default_rng((cfg.seed, KINDS.index(cfg.kind) + 1, trial))
        word = rng.permutation(np.tile(np.arange(a), b))
        counts = np.cumsum(word[:, None] == np.arange(a), axis=0)  # [p, l]: l in word[:p + 1]
        ranks = (counts[np.arange(a * b), word] - 1) * a + word  # the m-th l goes to slot m a + l
        distance = int(np.triu(ranks[:, None] > ranks[None, :]).sum())  # inversions
        tau = (int((counts.max(axis=1) - counts.min(axis=1)).max()) + 1) / b
        yield trial, tau, distance, (a * b) ** 2 * tau


def _evolution_records(cfg):
    g = _merged(cfg.generator)
    s, t, mode, fn = g["s"], g["t"], g["mode"], _family(g)

    def grid_index(x, n):  # floor(x n), snapped to an integer within 1e-9 relative of it
        k = round(x * n)
        return k if abs(x * n - k) <= 1e-9 * max(1.0, x * n) else math.floor(x * n)

    for n in cfg.n_list:
        target = expm((t - s) * np.asarray(fn(np.arange(4 * n) / (4 * n))).mean(axis=0))
        i0, i1 = grid_index(s, n), grid_index(t, n)
        for trial in range(cfg.trials):  # the family's riemann row in this mode
            row = _row({**g, "name": "riemann"}, n, np.random.default_rng(
                (cfg.seed, KINDS.index(cfg.kind) + 1, n, trial)), cfg.d)
            u = sequential_products(expm(row / n)[i0:i1], range(i1 - i0))[-1]
            yield n, trial, svd_norm(u - target)


_RECORDS = {"converge": _converge_records, "tail": _tail_records, "regime": _regime_records,
            "words": _words_records, "evolution": _evolution_records}

# (rtol, atol) of each float column; every other column matches exactly, tau and bound too,
# each one correctly rounded operation on exact integers. On the ten goldens the largest
# disagreements are 3e-15 absolute on a deviation (7e-12 relative, near 0) and 2e-13 relative
# on every other column: these sit far above them and below the 1e-9 by which a reference
# path scaled by 1 + 1e-9 moves a deviation.
# empirical_freq is recomputed as the band (lo, hi) that gaps within 1e-9 of eps allow.
TOLERANCES = {"deviation": (1e-9, 1e-12), "deviation_target": (1e-9, 1e-12),
              "sup_dev": (1e-9, 1e-12), "slack": (1e-12, 0.0), "eps": (1e-12, 0.0),
              "bernstein_bound": (1e-9, 0.0), "lemma_bound": (1e-9, 0.0),
              "linf": (1e-12, 0.0), "l1": (1e-12, 0.0), "norm_mean": (1e-9, 0.0)}


def _agrees(got, want, column: str) -> bool:
    if isinstance(want, tuple):
        return want[0] <= got <= want[1]
    if want is None or got is None or column not in TOLERANCES:
        return got == want
    rtol, atol = TOLERANCES[column]
    return abs(got - want) <= atol + rtol * abs(want)


def recompute(cfg, report) -> list[str]:
    """Each disagreement between the records of report, a run of cfg, and the same
    records recomputed here, column by column, within TOLERANCES."""
    want = list(_RECORDS[cfg.kind](cfg))
    if len(want) != len(report.records):
        return [f"{len(report.records)} records, recomputed {len(want)}"]
    return [f"record {i}, {c}: report {rec[c]!r}, recomputed {w!r}"
            for i, (rec, row) in enumerate(zip(report.records, want))
            for c, w in zip(COLUMNS[cfg.kind], row) if not _agrees(rec[c], w, c)]
