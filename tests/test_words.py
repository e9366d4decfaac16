import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotter_shuffle.linalg import op_norm
from trotter_shuffle.products import Permutation, partial_products
from trotter_shuffle.rows import ArrayRow, random_unit_hermitians
from trotter_shuffle.words import (Word, apply_transpositions, prefix_counts,
                                   random_word, restrict_word, standard_word,
                                   tau, tau_tail_bound, tau_tail_empirical,
                                   transposition_distance,
                                   transpositions_to_standard, word_statistics)


def brute_inversions(ranks):
    return sum(1 for i in range(len(ranks)) for j in range(i + 1, len(ranks))
               if ranks[i] > ranks[j])


def brute_distance(w: Word) -> int:
    # pairwise-comparison inversion count of the stable-matching ranks
    seen = {}
    ranks = []
    for letter in w.letters.tolist():
        m = seen.get(letter, 0)
        seen[letter] = m + 1
        ranks.append(m * w.alphabet_size + letter)
    return brute_inversions(ranks)


def test_word_validation():
    with pytest.raises(ValueError):
        Word(np.array([0, 0, 1]), alphabet_size=2, multiplicity=2)
    with pytest.raises(ValueError):
        Word(np.array([0, 0, 1, 2]), alphabet_size=2, multiplicity=2)
    Word(np.array([1, 0, 0, 1]), alphabet_size=2, multiplicity=2)


def test_restrict_word_identity_gives_standard():
    sigma = Permutation.identity(12)
    w = restrict_word(sigma, 3, 4)
    assert np.array_equal(w.letters, standard_word(3, 4).letters)


def test_restrict_word_reversal():
    sigma = Permutation(np.arange(11, -1, -1))
    w = restrict_word(sigma, 3, 4)
    assert np.array_equal(w.letters, standard_word(3, 4).letters[::-1])


def test_restrict_word_drops_leftovers():
    # n = 6, a*b = 4: positions 4, 5 are dropped during restriction
    sigma = Permutation(np.array([4, 0, 5, 1, 2, 3]))
    w = restrict_word(sigma, 2, 2)
    assert np.array_equal(w.letters, [0, 1, 0, 1])
    with pytest.raises(ValueError):
        restrict_word(sigma, 3, 3)


def test_restrict_word_uniform_from_uniform_permutations():
    # exhaustive: each of the 6 words arises from exactly 4 of the 24 sigmas
    counts = {}
    for perm in itertools.permutations(range(4)):
        w = restrict_word(Permutation(np.array(perm)), 2, 2)
        counts[tuple(w.letters.tolist())] = counts.get(tuple(w.letters.tolist()), 0) + 1
    assert len(counts) == 6
    assert all(c == 4 for c in counts.values())
    # with leftovers: n = 5, each word from (b!)^a n!/(ab)! = 20 permutations
    counts5 = {}
    for perm in itertools.permutations(range(5)):
        w = restrict_word(Permutation(np.array(perm)), 2, 2)
        counts5[tuple(w.letters.tolist())] = counts5.get(tuple(w.letters.tolist()), 0) + 1
    assert all(c == 20 for c in counts5.values())


def test_prefix_counts_standard():
    w = standard_word(2, 2)
    pc = prefix_counts(w)
    assert np.array_equal(pc[0], [0, 1, 1, 2, 2])
    assert np.array_equal(pc[1], [0, 0, 1, 1, 2])


def test_prefix_counts_partition_and_recount():
    rng = np.random.default_rng(1)
    for _ in range(20):
        w = random_word(4, 5, rng)
        pc = prefix_counts(w)
        assert np.array_equal(pc.sum(axis=0), np.arange(w.length + 1))
        for i in range(4):
            for j in range(w.length + 1):
                assert pc[i, j] == int((w.letters[:j] == i).sum())


def test_tau_values():
    assert tau(standard_word(3, 8)) == pytest.approx(2 / 8)
    sorted_word = Word(np.repeat(np.arange(3), 8), alphabet_size=3, multiplicity=8)
    assert tau(sorted_word) == pytest.approx((8 + 1) / 8)
    assert tau(standard_word(1, 6)) == pytest.approx(1 / 6)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 10**6))
def test_tau_range_and_distance_bound(a, b, seed):
    w = random_word(a, b, np.random.default_rng(seed))
    t = tau(w)
    assert 1 / b <= t <= (b + 1) / b
    n = a * b
    assert transposition_distance(w) <= n * n * t


def test_transposition_distance_basics():
    w = standard_word(4, 6)
    assert transposition_distance(w) == 0
    assert transpositions_to_standard(w) == []
    swapped = w.letters.copy()
    swapped[0], swapped[1] = swapped[1], swapped[0]
    w1 = Word(swapped, alphabet_size=4, multiplicity=6)
    assert transposition_distance(w1) == 1
    assert transpositions_to_standard(w1) == [0]


@pytest.mark.parametrize("a, b", [(1, 6), (6, 1), (5, 8), (3, 40)])
def test_transposition_distance_vs_quadratic_oracle_and_replay(a, b):
    rng = np.random.default_rng(2)
    std = standard_word(a, b).letters
    for _ in range(300):
        w = random_word(a, b, rng)
        dist = transposition_distance(w)
        assert dist == brute_distance(w)
        swaps = transpositions_to_standard(w)
        assert len(swaps) == dist
        assert np.array_equal(apply_transpositions(w.letters, swaps), std)


@pytest.mark.parametrize("a, b", [(1, 6), (6, 1), (5, 8), (3, 40)])
def test_word_statistics_vs_quadratic_oracle(a, b):
    rng = np.random.default_rng(4)
    for _ in range(100):
        w = random_word(a, b, rng)
        assert word_statistics(w) == (tau(w), brute_distance(w))


def test_single_transposition_product_perturbation():
    # swapping adjacent exponential factors of unit-norm letters moves the
    # full product by at most 2e/n^2
    rng = np.random.default_rng(3)
    a, b = 3, 4
    n = a * b
    identity = Permutation.identity(n)

    def word_product(letters, letter_seq):
        return partial_products(ArrayRow(letters[letter_seq]), identity)[-1]

    for _ in range(20):
        letters = random_unit_hermitians(a, 2, rng)
        w = random_word(a, b, rng)
        swaps = transpositions_to_standard(w)
        if not swaps:
            continue
        before = word_product(letters, w.letters)
        after = word_product(letters, apply_transpositions(w.letters, swaps[:1]))
        assert op_norm(before - after) <= 2 * math.e / n**2 + 1e-12


def test_tau_tail_bound_values():
    # p sqrt(b) = 1 keeps the binomial unchanged: bound = 2 a^2
    b = 4
    p = 1 / math.sqrt(b)
    assert tau_tail_bound(3, b, p) == pytest.approx(18.0, rel=1e-12)
    assert tau_tail_bound(2, 4, 1.0) == pytest.approx(2 * 4 * (56 / 70), rel=1e-12)
    with pytest.raises(ValueError):
        tau_tail_bound(2, 4, 3.6)  # p sqrt(b) > b + 1


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
    exact = sum(tau(Word(np.array(w), alphabet_size=2, multiplicity=2)) > thr
                for w in words) / 6
    emp = tau_tail_empirical(2, 2, p, trials=10**5, seed=5)
    assert abs(emp - exact) < 0.01


def test_tau_tail_empirical_is_the_frequency_over_successive_random_words():
    # 5,000 trials cross the 4,096-word chunk boundary of tau_tail_empirical
    a, b, p, trials, seed = 3, 4, 1.5, 5000, 11
    rng = np.random.default_rng(seed)
    hits = sum(tau(random_word(a, b, rng)) > p / math.sqrt(b) for _ in range(trials))
    assert 0 < hits < trials
    assert tau_tail_empirical(a, b, p, trials, seed) == hits / trials


def test_tau_tail_empirical_dominated_by_exact_bound():
    trials = 20000
    for p in (1.0, 1.6, 2.2, 2.8):
        emp = tau_tail_empirical(5, 8, p, trials=trials, seed=6)
        bound = min(1.0, tau_tail_bound(5, 8, p))
        assert emp <= bound + 3 * math.sqrt(0.25 / trials)
