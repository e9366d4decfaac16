"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
from scipy.stats import ks_2samp

from trotter_shuffle.evolution import cocycle_check, propagators, step_family
from trotter_shuffle.experiments import GENERATOR_DEFAULTS, ExperimentConfig, parse_matrix, run
from trotter_shuffle.linalg import exp_stack, op_norms
from trotter_shuffle.products import path_deviations, prop_uniform_bound
from trotter_shuffle.rows import (ArrayRow, RegimeSpec, gen_repeated,
                                  gen_spiked, gen_two_letter,
                                  random_unit_hermitians,
                                  spiked_parameters)
from trotter_shuffle.tails import block_bernstein_bound, block_gaps, eps_grid, lemma_random_bound
from trotter_shuffle.words import (apply_transpositions, prefix_counts,
                                   random_word, restrict_word, standard_word,
                                   tau_tail_bound, tau_tail_empirical,
                                   transpositions_to_standard, word_statistics)

from oracles import (e12_e21_limit, random_matrix, series_exp, svd_norm, two_letter_tail,
                     two_letter_tau_tail)
from test_goldens import GOLDENS

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)

# ||e^{B/2} e^{C/2} - e^{(B+C)/2}|| for B = E12, C = E21, computed once from
# the closed forms [[1,1/2],[0,1]] [[1,0],[1/2,1]] and cosh/sinh(1/2) at 50
# significant digits.
V_STAR = 0.1293935159197811


def _verdict(num: int, name: str, ok: bool, t0: float, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {name}{extra} [{time.time() - t0:.1f}s]")
    return ok


def test_criterion_1_exponential_oracle():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 7))
        m = random_matrix(rng, d, 4.0)
        err = svd_norm(exp_stack(m[None], 1e-12)[0] - series_exp(m)) / math.exp(svd_norm(m))
        worst = max(worst, err)
    ok = worst <= 1e-10
    assert _verdict(1, "exponential vs series oracle", ok, t0, f"worst rel err {worst:.2e}")


def test_criterion_2_commuting_exactness():
    t0 = time.time()
    rng = np.random.default_rng(102)
    n = 5000
    rows = [
        gen_repeated([random_matrix(rng, 2, 2.0)], n),
        gen_repeated([np.diag(rng.uniform(-1.5, 1.5, size=2)).astype(complex)], n),
    ]
    worst = 0.0
    ok = True
    for row in rows:
        sigmas = [rng.permutation(n) for _ in range(50)]
        for rep, in path_deviations(row, sigmas, [row.stats.mean]):
            excess = rep.sup_dev - rep.slack
            worst = max(worst, excess)
            ok = ok and excess <= 1e-8
    assert _verdict(2, "constant rows track exp(tA) exactly", ok, t0,
                    f"worst excess {worst:.2e}")


def test_criterion_3_ordered_non_convergence():
    t0 = time.time()
    n = 2000
    row = gen_two_letter(n, E12, E21, "first_half_b")
    (rep,), = path_deviations(row, [np.arange(n)], [(E12 + E21) / 2])
    gap = abs(float(rep.deviations[-1]) - V_STAR)
    ok = gap < 1e-3
    assert _verdict(3, "ordered two-letter product misses exp(A) by v*", ok, t0,
                    f"|final - v*| = {gap:.2e}")


def test_criterion_4_randomized_convergence():
    t0 = time.time()
    medians = []
    for n in (500, 2000, 8000):
        row = gen_two_letter(n, E12, E21, "first_half_b")
        sigmas = [np.random.default_rng([104, n, trial]).permutation(n)
                  for trial in range(101)]
        sups = [rep.sup_dev for rep, in path_deviations(row, sigmas, [row.stats.mean])]
        medians.append(float(np.median(sups)))
    ok = medians[0] > medians[1] > medians[2] and medians[2] <= 0.08
    assert _verdict(4, "median sup-deviation shrinks with n", ok, t0,
                    "medians " + ", ".join(f"{m:.4f}" for m in medians))


def test_criterion_5_prop_uniform_consistency():
    t0 = time.time()
    rng = np.random.default_rng(105)
    a = b = 45
    n = a * b
    ok = True
    margin = np.inf
    for _ in range(50):
        scales = rng.uniform(0.2, 0.6, size=(n, 1, 1))
        row = ArrayRow(random_unit_hermitians(n, 2, rng) * scales)
        stats = row.stats
        sigma = rng.permutation(n)
        eps = float(np.max(block_gaps(row, [sigma], a))) * math.exp(stats.l1)
        assert (stats.l1**2) * math.exp(stats.l1) <= b / 10
        (path,), = path_deviations(row, [sigma], [stats.mean])
        sup = path.sup_dev
        bound = prop_uniform_bound(stats.l1, float(op_norms(stats.mean)), eps, b)
        ok = ok and sup <= bound + 1e-6
        margin = min(margin, bound - sup)
    assert _verdict(5, "block conditions imply the deterministic bound", ok, t0,
                    f"min bound margin {margin:.3f}")


def test_criterion_6_tail_domination():
    t0 = time.time()
    n, a, trials = 10**4, 100, 10**4
    rng = np.random.default_rng(106)
    mixed = random_unit_hermitians(n, 2, rng)
    mixed[1::2] *= 0.5  # second row exercises the norm condition nontrivially
    cases = [gen_two_letter(n, E12, E21, "first_half_b"), ArrayRow(mixed)]
    ok = True
    worst_gap = np.inf
    for idx, row in enumerate(cases):
        stats = row.stats
        orders = (np.random.default_rng([106, idx, t]).permutation(n) for t in range(trials))
        mean_dev, norm_dev = block_gaps(row, orders, a)
        for eps in eps_grid(stats.l1):
            for dev, d in ((mean_dev, row.d), (norm_dev, 1)):
                bound = lemma_random_bound(n, a, float(eps), stats, d)
                p = min(1.0, bound)
                slack = 3 * math.sqrt(p * (1 - p) / trials)
                freq = float((dev > eps).mean())
                ok = ok and freq <= p + slack
                worst_gap = min(worst_gap, p + slack - freq)
    assert _verdict(6, "block-violation frequency under the union tail bound",
                    ok, t0, f"min slack margin {worst_gap:.3f}")


def test_criterion_7_word_layer():
    t0 = time.time()
    rng = np.random.default_rng(107)
    a, b = 5, 8
    length = a * b
    std = standard_word(a, b)
    ok = True
    for _ in range(1000):
        w = random_word(a, b, rng)
        _, dist = word_statistics(w, a)
        pc = prefix_counts(w, a)
        disc = int((pc.max(axis=0) - pc.min(axis=0)).max())
        # distance <= (ab)^2 tau(w), in exact integer arithmetic
        ok = ok and dist * b <= length * length * (disc + 1)
        swaps = transpositions_to_standard(w, a)
        ok = ok and len(swaps) == dist
        ok = ok and np.array_equal(apply_transpositions(w, swaps), std)
    # tau tail domination on a 6-point p grid
    trials = 10**5
    for p in (0.75, 1.2, 1.65, 2.1, 2.55, 3.0):
        emp = tau_tail_empirical(a, b, p, trials=trials, seed=1071)
        bound = min(1.0, tau_tail_bound(a, b, p))
        ok = ok and emp <= bound + 3 * math.sqrt(0.25 / trials)
    # exhaustive uniformity of induced words at a = b = 2
    import itertools
    counts = {}
    for perm in itertools.permutations(range(4)):
        w = restrict_word(np.array(perm), 2, 2)
        key = tuple(w.tolist())
        counts[key] = counts.get(key, 0) + 1
    ok = ok and len(counts) == 6 and all(c == 4 for c in counts.values())
    assert _verdict(7, "word statistics, replay, and tau tail bound", ok, t0)


def test_criterion_8_evolution_family():
    t0 = time.time()
    fn = step_family(E12, E21)
    exp_half_b = np.array([[1, 0.5], [0, 1]], dtype=complex)
    exp_half_c = np.array([[1, 0], [0.5, 1]], dtype=complex)
    exp_mean = np.array([[math.cosh(0.5), math.sinh(0.5)],
                         [math.sinh(0.5), math.cosh(0.5)]], dtype=complex)
    ordered = next(propagators(fn, 4000, [0], mode="ordered"))
    ok = op_norms(ordered - exp_half_b @ exp_half_c) <= 1e-2
    permuted = propagators(fn, 4000, range(50), mode="permuted")
    hits = sum(op_norms(u - exp_mean) < 0.05 for u in permuted)
    ok = ok and hits >= 45
    residual = cocycle_check(fn, 4000, 0.5)
    ok = ok and residual <= 1e-10
    assert _verdict(8, "evolution family limits and cocycle", ok, t0,
                    f"{hits}/50 permuted seeds close, cocycle {residual:.1e}")


def test_criterion_9_regime_feasibility():
    t0 = time.time()
    n = 10**6
    ln, lln = math.log(n), math.log(math.log(n))
    lr10 = math.log(n / 10.0)

    def k_int(x):
        return math.floor(x + 0.5)

    cases = [
        (RegimeSpec("prob_regime", delta=0.1, linf=10.0),
         k_int((n / 30.0) * (lr10 - 4.2 * math.log(lr10))), 10.0),
        (RegimeSpec("as_regime", delta=0.1, linf=10.0),
         k_int((n / 30.0) * (lr10 - lln - 3.1 * math.log(lr10))), 10.0),
        (RegimeSpec("large_linf", delta=1.0),
         k_int(ln * lln**5 / 3.0), n / (ln * lln**5)),
        (RegimeSpec("bounded_log", delta=0.1),
         n, (ln - 5.1 * lln) / 3.0),
        (RegimeSpec("intermediate", alpha=0.5, beta=0.0, t=1.0),
         k_int(0.5 * math.sqrt(n)), math.sqrt(n) * ln / 3.0),
    ]
    ok = True
    rng = np.random.default_rng(109)
    for spec, k_expect, linf_expect in cases:
        k, linf = spiked_parameters(n, spec)
        ok = ok and k == k_expect and abs(linf - linf_expect) <= 1e-9 * linf_expect
        row = gen_spiked(n, spec, rng)
        stats = row.stats
        predicted = k / n * linf
        ok = ok and predicted / 2 <= stats.l1 <= 2 * predicted + 1
    assert _verdict(9, "spiked regimes reproduce their formulas at n = 1e6", ok, t0)


def test_criterion_10_second_order_limit():
    t0 = time.time()
    limit = e12_e21_limit(2000, 4000, 1101)
    # P(a 200-draw median <= the q-quantile) is P(Bin(200, q) >= 100), so the quantiles at
    # 1/2 -+ 1/(2 sqrt(200)) lie one standard error either side of the median
    h = 0.5 / math.sqrt(200)
    low, mid, high = np.quantile(limit, [0.5 - h, 0.5, 0.5 + h])
    se = (high - low) / 2
    ok, details = True, []
    for n in (2000, 8000):
        row = gen_two_letter(n, E12, E21, "first_half_b")
        orders = (np.random.default_rng([110, n, t]).permutation(n) for t in range(200))
        scaled = [math.sqrt(n) * (rep.sup_dev - rep.slack)
                  for rep, in path_deviations(row, orders, [row.stats.mean])]
        median, p = float(np.median(scaled)), float(ks_2samp(scaled, limit).pvalue)
        ok = ok and abs(median - mid) <= 3 * se and p > 0.01
        details.append(f"n = {n}: median / limit {median / mid:.3f}, KS p {p:.2f}")
    assert _verdict(10, "sqrt(n) sup-deviation against its Brownian-bridge limit", ok, t0,
                    f"limit median {mid:.3f}, se {se:.4f}; " + "; ".join(details))


def _within(freq: float, band, trials: int) -> bool:
    """freq within 4 binomial sd of the exact probabilities band (its least and largest)."""
    sd = max(math.sqrt(p * (1 - p) / trials) for p in band)
    return min(band) - 4 * sd <= freq <= max(band) + 4 * sd


def test_criterion_13_exact_two_letter_laws():
    t0 = time.time()
    cases = []  # (n, a, gap ||B - C||, eps grid, frequencies, trials, Bernstein bounds)
    for n, a, trials in ((400, 20, 4000), (10**4, 100, 1000)):
        row = gen_two_letter(n, E12, E21, "first_half_b")
        grid = eps_grid(row.stats.l1).tolist()
        orders = (np.random.default_rng([113, n, t]).permutation(n) for t in range(trials))
        mean_dev, _ = block_gaps(row, orders, a)
        cases.append((n, a, float(op_norms(E12 - E21)), grid,
                      [float((mean_dev > e).mean()) for e in grid], trials,
                      block_bernstein_bound(row, a, grid)))
    for name in ("tail", "tail_probability"):  # the two tail goldens, both two-letter rows
        report = run(ExperimentConfig(**GOLDENS[name][0]))
        g = {**GENERATOR_DEFAULTS["two_letter"], **report.config.generator}
        gap = float(op_norms(parse_matrix(g["b"], "b") - parse_matrix(g["c"], "c")))
        for n in report.config.n_list:
            recs = [r for r in report.records if r["n"] == n]
            cases.append((n, report.summary[str(n)]["a"], gap, [r["eps"] for r in recs],
                          [r["empirical_freq"] for r in recs], report.config.trials,
                          [r["bernstein_bound"] for r in recs]))
    ok, ratio = True, math.inf
    for n, a, gap, grid, freqs, trials, bounds in cases:
        # a gap within 1e-9 of e may fall on either side of it in floats: the laws at e (1 +- 1e-9)
        law = two_letter_tail(n, a, gap, [e * (1 + s) for s in (1e-9, -1e-9) for e in grid])
        for band, freq, bound in zip(zip(law[:len(grid)], law[len(grid):]), freqs, bounds):
            # the concentration half of the proof, checked exactly: the bound is at least the law
            ok = ok and _within(freq, band, trials) and bound >= max(band) - 1e-12
            ratio = min(ratio, bound / max(band)) if max(band) > 1e-9 else ratio
    for b, ps in ((50, (0.5, 1.0, 1.5, 2.0)), (400, (1.0, 2.0))):
        for p in ps:
            exact = two_letter_tau_tail(b, p)
            ok = ok and _within(tau_tail_empirical(2, b, p, 4000, 1131), [exact], 4000)
            ok = ok and tau_tail_bound(2, b, p) >= exact
    assert _verdict(13, "two-letter tails and a = 2 words against their exact laws", ok, t0,
                    f"least Bernstein bound / exact {ratio:.1f}")
