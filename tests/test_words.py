import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotter_shuffle.linalg import op_norms
from trotter_shuffle.products import exp_factors, prefix_products
from trotter_shuffle.experiments import KINDS, ExperimentConfig, run
from trotter_shuffle.rows import ArrayRow, random_unit_hermitians
from trotter_shuffle.words import (apply_transpositions, batch_word_statistics, prefix_counts,
                                   random_word, restrict_word, standard_word,
                                   tau_tail_bound, tau_tail_empirical,
                                   transpositions_to_standard, word_statistics)

from oracles import two_letter_tau_tail


def brute_inversions(ranks):
    return sum(1 for i in range(len(ranks)) for j in range(i + 1, len(ranks))
               if ranks[i] > ranks[j])


def brute_distance(w: np.ndarray, a: int) -> int:
    # pairwise-comparison inversion count of the stable-matching ranks
    seen = {}
    ranks = []
    for letter in w.tolist():
        m = seen.get(letter, 0)
        seen[letter] = m + 1
        ranks.append(m * a + letter)
    return brute_inversions(ranks)


def test_word_validation():
    for kernel in (word_statistics, transpositions_to_standard):
        with pytest.raises(ValueError):
            kernel(np.array([0, 0, 1]), 2)
        with pytest.raises(ValueError):
            kernel(np.array([0, 0, 1, 2]), 2)
        with pytest.raises(ValueError, match="exactly 2 times"):
            kernel(np.array([0, 0, 0, 1]), 2)
        kernel(np.array([1, 0, 0, 1]), 2)


# one case per condition of a word of shape (a, b), checked by both word kernels
@pytest.mark.parametrize("kernel", [word_statistics, transpositions_to_standard],
                         ids=["statistics", "transpositions"])
@pytest.mark.parametrize("letters, a, match", [
    ([0, 1], 0, "length must be a\\*b"),
    ([], 2, "length must be a\\*b"),
    ([[0, 1], [1, 0]], 2, "length must be a\\*b"),
    ([0, 1, 0], 2, "length must be a\\*b"),
    ([0, 1, -1, 0], 2, "in \\[0, 2\\)"),
    ([0, 1, 2, 0], 2, "in \\[0, 2\\)"),
    ([0, 0, 0, 1], 2, "exactly 2 times"),
], ids=["a_0", "b_0", "two_d", "length_not_a_multiple", "negative_letter", "letter_past_a",
        "letter_count"])
def test_word_kernels_reject_what_is_not_a_word(kernel, letters, a, match):
    with pytest.raises(ValueError, match=match):
        kernel(np.array(letters, dtype=np.int64), a)


def test_restrict_word_identity_gives_standard():
    sigma = np.arange(12)
    w = restrict_word(sigma, 3, 4)
    assert np.array_equal(w, standard_word(3, 4))


def test_restrict_word_reversal():
    sigma = np.arange(11, -1, -1)
    w = restrict_word(sigma, 3, 4)
    assert np.array_equal(w, standard_word(3, 4)[::-1])


def test_restrict_word_drops_leftovers():
    # n = 6, a*b = 4: positions 4, 5 are dropped during restriction
    sigma = np.array([4, 0, 5, 1, 2, 3])
    w = restrict_word(sigma, 2, 2)
    assert np.array_equal(w, [0, 1, 0, 1])
    with pytest.raises(ValueError):
        restrict_word(sigma, 3, 3)


def test_restrict_word_uniform_from_uniform_permutations():
    # exhaustive: each of the 6 words arises from exactly 4 of the 24 sigmas
    counts = {}
    for perm in itertools.permutations(range(4)):
        w = restrict_word(np.array(perm), 2, 2)
        counts[tuple(w.tolist())] = counts.get(tuple(w.tolist()), 0) + 1
    assert len(counts) == 6
    assert all(c == 4 for c in counts.values())
    # with leftovers: n = 5, each word from (b!)^a n!/(ab)! = 20 permutations
    counts5 = {}
    for perm in itertools.permutations(range(5)):
        w = restrict_word(np.array(perm), 2, 2)
        counts5[tuple(w.tolist())] = counts5.get(tuple(w.tolist()), 0) + 1
    assert all(c == 20 for c in counts5.values())


def test_prefix_counts_standard():
    pc = prefix_counts(standard_word(2, 2), 2)
    assert np.array_equal(pc[0], [0, 1, 1, 2, 2])
    assert np.array_equal(pc[1], [0, 0, 1, 1, 2])


def test_prefix_counts_partition_and_recount():
    rng = np.random.default_rng(1)
    words = [random_word(4, 5, rng) for _ in range(20)]
    pcs = prefix_counts(np.stack(words), 4)  # one batch of 20 rows
    assert pcs.shape == (20, 4, 21)
    for w, pc in zip(words, pcs):
        assert np.array_equal(pc.sum(axis=0), np.arange(len(w) + 1))
        for i in range(4):
            for j in range(len(w) + 1):
                assert pc[i, j] == int((w[:j] == i).sum())


def test_tau_values():
    assert word_statistics(standard_word(3, 8), 3)[0] == pytest.approx(2 / 8)
    sorted_word = np.repeat(np.arange(3), 8)
    assert word_statistics(sorted_word, 3)[0] == pytest.approx((8 + 1) / 8)
    assert word_statistics(standard_word(1, 6), 1)[0] == pytest.approx(1 / 6)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 10**6))
def test_tau_range_and_distance_bound(a, b, seed):
    w = random_word(a, b, np.random.default_rng(seed))
    t, dist = word_statistics(w, a)
    assert 1 / b <= t <= (b + 1) / b
    n = a * b
    assert dist <= n * n * t


def test_word_statistics_basics():
    w = standard_word(4, 6)
    assert word_statistics(w, 4)[1] == 0
    assert transpositions_to_standard(w, 4) == []
    w1 = w.copy()
    w1[0], w1[1] = w1[1], w1[0]
    assert word_statistics(w1, 4)[1] == 1
    assert transpositions_to_standard(w1, 4) == [0]


@pytest.mark.parametrize("a, b", [(1, 6), (6, 1), (5, 8), (3, 40)])
def test_word_statistics_vs_quadratic_oracle_and_replay(a, b):
    rng = np.random.default_rng(2)
    std = standard_word(a, b)
    for _ in range(300):
        w = random_word(a, b, rng)
        _, dist = word_statistics(w, a)
        assert dist == brute_distance(w, a)
        swaps = transpositions_to_standard(w, a)
        assert len(swaps) == dist
        assert np.array_equal(apply_transpositions(w, swaps), std)


@pytest.mark.parametrize("a, b", [(1, 6), (6, 1), (5, 8), (3, 40)])
def test_word_statistics_vs_quadratic_oracle(a, b):
    rng = np.random.default_rng(4)
    for _ in range(100):
        w = random_word(a, b, rng)
        counts, disc = [0] * a, 0  # the largest prefix-count gap between two letters
        for letter in w.tolist():
            counts[letter] += 1
            disc = max(disc, max(counts) - min(counts))
        assert word_statistics(w, a) == ((disc + 1) / b, brute_distance(w, a))


def test_single_transposition_product_perturbation():
    # swapping adjacent exponential factors of unit-norm letters moves the
    # full product by at most 2e/n^2
    rng = np.random.default_rng(3)
    a, b = 3, 4
    n = a * b

    def word_product(letters, letter_seq):
        return prefix_products(exp_factors(ArrayRow(letters[letter_seq])), np.arange(n))[-1]

    for _ in range(20):
        letters = random_unit_hermitians(a, 2, rng)
        w = random_word(a, b, rng)
        swaps = transpositions_to_standard(w, a)
        if not swaps:
            continue
        before = word_product(letters, w)
        after = word_product(letters, apply_transpositions(w, swaps[:1]))
        assert op_norms(before - after) <= 2 * math.e / n**2 + 1e-12


def test_tau_tail_bound_values():
    # p sqrt(b) = 1 keeps the binomial unchanged: bound = 2 a^2
    b = 4
    p = 1 / math.sqrt(b)
    assert tau_tail_bound(3, b, p) == pytest.approx(18.0, rel=1e-12)
    assert tau_tail_bound(2, 4, 1.0) == pytest.approx(2 * 4 * (56 / 70), rel=1e-12)
    with pytest.raises(ValueError):
        tau_tail_bound(2, 4, 3.6)  # p sqrt(b) > b + 1


@pytest.mark.parametrize("b", [1, 2, 7, 60, 999, 5000])
def test_tau_tail_bound_is_the_fraction_rounded_once(b):
    # int / int is correctly rounded, so the ratio of binomials is the float of the Fraction
    for p in np.linspace(0.05, (b + 1) / math.sqrt(b), 25):
        m = math.ceil(b - p * math.sqrt(b) + 1)
        exact = float(Fraction(math.comb(2 * b, m), math.comb(2 * b, b)))
        assert tau_tail_bound(3, b, p) == 2.0 * 9 * exact


@pytest.mark.parametrize("call", [lambda: tau_tail_bound(0, 4, 0.5),
                                  lambda: tau_tail_bound(2, 0, 0.5),
                                  lambda: tau_tail_bound(2, 4, 0.0),
                                  lambda: tau_tail_empirical(2, 4, 0.5, 0, seed=1),
                                  lambda: tau_tail_empirical(0, 4, 0.5, 10, seed=1),
                                  lambda: tau_tail_empirical(2, 0, 0.5, 10, seed=1),
                                  lambda: tau_tail_empirical(2, 4, 0.0, 10, seed=1)],
                         ids=["bound_a_0", "bound_b_0", "bound_p_0", "empirical_trials_0",
                              "empirical_a_0", "empirical_b_0", "empirical_p_0"])
def test_tau_tail_rejects_bad_input(call):
    with pytest.raises(ValueError, match="need a, b >= 1 and p > 0|trials must be >= 1"):
        call()


def test_tau_tail_empirical_zero_at_max_p():
    b = 9
    p_max = (b + 1) / math.sqrt(b)
    assert tau_tail_empirical(3, b, p_max, trials=500, seed=4) == 0.0


def test_tau_tail_empirical_matches_enumeration():
    # a = 2, b = 2: six equally likely words; exact tail by enumeration
    words = set(itertools.permutations([0, 0, 1, 1]))
    assert len(words) == 6
    p = 1.2
    thr = p / math.sqrt(2)
    exact = sum(word_statistics(np.array(w), 2)[0] > thr for w in words) / 6
    emp = tau_tail_empirical(2, 2, p, trials=10**5, seed=5)
    assert abs(emp - exact) < 0.01


def test_tau_tail_empirical_is_the_frequency_over_successive_random_words():
    # in one batch; test_tau_tail_empirical_is_the_same_in_batches_of_any_size splits them
    a, b, p, trials, seed = 3, 4, 1.5, 5000, 11
    rng = np.random.default_rng(seed)
    hits = sum(word_statistics(random_word(a, b, rng), a)[0] > p / math.sqrt(b)
               for _ in range(trials))
    assert 0 < hits < trials
    assert tau_tail_empirical(a, b, p, trials, seed) == hits / trials


@pytest.mark.parametrize("batch", [1, 40, 1000, 5000])
def test_tau_tail_empirical_is_the_same_in_batches_of_any_size(monkeypatch, batch):
    # _BATCH // (a b) words a batch, at least one; the default takes each shape's trials in one
    shapes = [(3, 4, 1.5, 500, 11), (2, 50, 1.0, 300, 1), (20, 5, 1.2, 200, 3)]
    expected = [tau_tail_empirical(*shape) for shape in shapes]
    monkeypatch.setattr("trotter_shuffle.words._BATCH", batch)
    assert [tau_tail_empirical(*shape) for shape in shapes] == expected


def test_tau_tail_empirical_memory_follows_the_letters_drawn():
    # 512 words of 8,000 letters drawn as one batch took about 103 MB; batches of _BATCH letters
    # take about 7 MB, whatever the word length and the trial count
    tracemalloc.start()
    try:
        tau_tail_empirical(2, 4000, 1.0, 512, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("batch", [1, 2, 7, 64, 1000, 1 << 30])
def test_batch_word_statistics_is_the_same_in_passes_of_any_size(monkeypatch, batch):
    # _BATCH // (t a b) letters l' a pass, at least one; the default takes these in one pass
    rng = np.random.default_rng(4)
    shapes = [(1, 1, 5), (3, 2, 1), (4, 7, 3), (2, 20, 200), (5, 13, 9)]
    batches = [(np.stack([random_word(a, b, rng) for _ in range(t)]), a) for t, a, b in shapes]
    expected = [batch_word_statistics(*args) for args in batches]
    monkeypatch.setattr("trotter_shuffle.words._BATCH", batch)
    for args, (tau, dist) in zip(batches, expected):
        got = batch_word_statistics(*args)
        assert got[0].tobytes() == tau.tobytes() and got[1].tobytes() == dist.tobytes()


def test_one_long_word_takes_passes_of_bounded_memory():
    # one word's counts are t a (a b) entries: as one array about 32 MB at (4000, 1); in
    # passes of at most _BATCH counts, well under 4 MB
    word = random_word(4000, 1, np.random.default_rng(2))
    tracemalloc.start()
    try:
        _, dist = word_statistics(word, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist == np.triu(word[:, None] > word[None, :], 1).sum()  # b = 1: the inversions
    assert peak < 4e6


def test_tau_tail_empirical_dominated_by_exact_bound():
    trials = 20000
    for p in (1.0, 1.6, 2.2, 2.8):
        emp = tau_tail_empirical(5, 8, p, trials=trials, seed=6)
        bound = min(1.0, tau_tail_bound(5, 8, p))
        assert emp <= bound + 3 * math.sqrt(0.25 / trials)


def every_word(a: int, b: int) -> np.ndarray:
    """Every word of shape (a, b), each once: the b positions of each letter in turn among
    those still free."""
    out = []

    def place(word, letter):
        if letter == a:
            out.append(word.copy())
            return
        for spots in itertools.combinations(np.flatnonzero(word < 0).tolist(), b):
            word[list(spots)] = letter
            place(word, letter + 1)
            word[list(spots)] = -1

    place(np.full(a * b, -1, dtype=np.int64), 0)
    return np.array(out)


def running_count_tau(w: np.ndarray, a: int, b: int) -> float:
    counts, disc = [0] * a, 0  # the largest prefix-count gap between two letters
    for letter in w.tolist():
        counts[letter] += 1
        disc = max(disc, max(counts) - min(counts))
    return (disc + 1) / b


@pytest.mark.parametrize("a, b", [(1, 5), (5, 1), (2, 4), (3, 3), (4, 2)])
def test_batch_statistics_of_every_word_in_one_batch(a, b):
    words = every_word(a, b)
    assert len(words) == math.factorial(a * b) // math.factorial(b) ** a
    assert len({tuple(w) for w in words.tolist()}) == len(words)
    tau, distance = batch_word_statistics(words, a)
    assert tau.tolist() == [running_count_tau(w, a, b) for w in words]
    assert distance.tolist() == [brute_distance(w, a) for w in words]


def prefix_count_statistics(w: np.ndarray, a: int) -> tuple[float, int]:
    # tau and the inversion count read off the int32 prefix counts, summed in int64
    b = len(w) // a
    pc = prefix_counts(w, a).astype(np.int64)
    before = pc[:, :-1]
    gap = before - before[w, np.arange(len(w))] - (np.arange(a)[:, None] < w)
    disc = int((pc.max(axis=0) - pc.min(axis=0)).max())
    return (disc + 1) / b, int(np.maximum(gap, 0).sum())


# the counts switch from 16 to 32 bits past b = 2**15 - 1; a letter run of length b puts
# every count and every count difference at its extreme
@pytest.mark.parametrize("b", [2**15 - 1, 2**15])
@pytest.mark.parametrize("a", [1, 2])
def test_batch_statistics_at_the_count_type_boundary(a, b):
    rng = np.random.default_rng(b + a)
    words = np.stack([np.repeat(np.arange(a), b), np.repeat(np.arange(a)[::-1], b),
                      random_word(a, b, rng)])
    tau, distance = batch_word_statistics(words, a)
    assert list(zip(tau.tolist(), distance.tolist())) == [
        prefix_count_statistics(w, a) for w in words]


def test_words_run_across_chunks_equals_word_statistics_per_trial():
    # a = 20, b = 200: 80,000 counts a word, so three words a chunk of 2**18 counts
    a, b, trials, seed = 20, 200, 7, 5
    report = run(ExperimentConfig(kind="words", trials=trials, seed=seed,
                                  generator={"name": "multiset", "a": a, "b": b}))
    kind = KINDS.index("words") + 1
    expected = [word_statistics(random_word(a, b, np.random.default_rng((seed, kind, t))), a)
                for t in range(trials)]
    assert [(r["tau"], r["distance"]) for r in report.records] == expected
    assert [r["trial"] for r in report.records] == list(range(trials))


@pytest.mark.parametrize("bad, match", [
    ([0, 0, 0, 1], "exactly 2 times"),
    ([0, 1, 2, 0], "in \\[0, 2\\)"),
    ([0, 1, -1, 0], "in \\[0, 2\\)"),
], ids=["letter_count", "letter_past_a", "negative_letter"])
def test_batch_statistics_reject_a_malformed_row(bad, match):
    good = np.array([1, 0, 0, 1])
    for words in (np.stack([good, bad]), np.stack([bad, good, good])):
        with pytest.raises(ValueError, match=match):
            batch_word_statistics(words, 2)
    with pytest.raises(ValueError, match="length must be a\\*b"):
        batch_word_statistics(good, 2)  # one word is a batch only as a row


@pytest.mark.parametrize("a, b", [(1, 1), (2, 3)])
def test_batch_statistics_of_an_empty_batch_are_empty(a, b):
    tau, distance = batch_word_statistics(np.zeros((0, a * b), dtype=np.int64), a)
    assert tau.dtype == np.float64 and tau.shape == (0,)
    assert distance.dtype == np.int64 and distance.shape == (0,)
    with pytest.raises(ValueError, match="length must be a\\*b"):
        batch_word_statistics(np.zeros((0, 0), dtype=np.int64), a)  # no letters: b = 0


@pytest.mark.parametrize("b", [1, 2, 3, 5, 8])
def test_two_letter_tau_law_is_the_frequency_over_every_word(b):
    words = np.ones((math.comb(2 * b, b), 2 * b), dtype=np.int64)
    for w, zeros in zip(words, itertools.combinations(range(2 * b), b)):
        w[list(zeros)] = 0
    tau, _ = batch_word_statistics(words, 2)
    for p in np.linspace(0.05, math.sqrt(b) + 1, 40):
        assert two_letter_tau_tail(b, p) == float((tau > p / math.sqrt(b)).mean())
