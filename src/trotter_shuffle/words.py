"""Repeated-letter words: restriction, prefix-count statistics,
and adjacent-transposition distance to the standard periodic word.

A word of shape (a, b) is an int64 array of length a*b over letters 0..a-1,
each appearing exactly b times; the kernels take it with a and read b off its
length. The standard word is (0, 1, ..., a-1) repeated b times, i.e. the
letter at position p is p mod a.
"""

from __future__ import annotations

import math

import numpy as np


def _multiplicity(letters: np.ndarray, a: int) -> int:
    """b = len(letters) // a, after checking that letters is a word of shape (a, b)."""
    if a < 1 or np.ndim(letters) != 1 or not len(letters) or len(letters) % a:
        raise ValueError(f"word length must be a*b with b >= 1, a = {a}; got {np.shape(letters)}")
    b = len(letters) // a
    if letters.min() < 0 or letters.max() >= a or (np.bincount(letters, minlength=a) != b).any():
        raise ValueError(f"every letter must be in [0, {a}) and appear exactly {b} times")
    return b


def standard_word(a: int, b: int) -> np.ndarray:
    return np.tile(np.arange(a), b)


def random_word(a: int, b: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform over all arrangements of the standard multiset."""
    return rng.permutation(np.tile(np.arange(a), b))


def restrict_word(order: np.ndarray, a: int, b: int) -> np.ndarray:
    """The word a permutation, as an index array, induces on the periodic row layout.

    The row is laid out with letter p mod a at position p for p < a*b; scanning
    positions order[0], ..., order[n-1] and keeping those below a*b yields the
    word. Uniform permutations induce uniform words.
    """
    if a * b > len(order):
        raise ValueError(f"a*b = {a * b} exceeds n = {len(order)}")
    return (order[order < a * b] % a).astype(np.int64, copy=False)


def prefix_counts(letters: np.ndarray, a: int) -> np.ndarray:
    """Prefix counts along the last axis of a (..., L) batch of letter rows:
    out[..., i, j] = occurrences of letter i among the first j letters;
    shape (..., a, L+1). int32: a count is at most the multiplicity b, and
    numpy sums int32 arrays in int64."""
    onehot = letters[..., None, :] == np.arange(a)[:, None]
    out = np.zeros(letters.shape[:-1] + (a, letters.shape[-1] + 1), dtype=np.int32)
    np.cumsum(onehot, axis=-1, dtype=np.int32, out=out[..., 1:])
    return out


def _tau(pc: np.ndarray, b: int):
    """(max prefix-count discrepancy between letters + 1) / b of each
    (a, L+1) prefix-count array in a (..., a, L+1) batch."""
    return ((pc.max(axis=-2) - pc.min(axis=-2)).max(axis=-1) + 1) / b


def word_statistics(letters: np.ndarray, a: int) -> tuple[float, int]:
    """(tau, distance) of the word letters over [0, a), from one prefix-count
    array: tau = (max prefix-count discrepancy between letters + 1) / b;
    distance = the adjacent transpositions to the standard word under stable
    matching of equal letters.

    The distance counts inversions from the prefix counts: the m-th occurrence
    of letter l is outranked by an earlier occurrence of l' when that is the
    m'-th with m' > m, or m' = m and l' > l. With c occurrences of l' so far,
    that makes max(0, c - m - [l' < l]) inversions.
    """
    b = _multiplicity(letters, a)
    pc = prefix_counts(letters, a)
    before = pc[:, :-1]
    gap = before - before[letters, np.arange(len(letters))]
    gap -= np.arange(a)[:, None] < letters
    return float(_tau(pc, b)), int(np.maximum(gap, 0, out=gap).sum())


def transpositions_to_standard(letters: np.ndarray, a: int) -> list[int]:
    """Explicit swap schedule: swapping positions (p, p+1) for each listed p,
    in order, transforms the word letters over [0, a) into the standard word.
    Its length is the distance of word_statistics(letters, a). Insertion sort:
    O(L^2) time and a list of up to L(L-1)/2 swaps for a word of length L = a*b."""
    _multiplicity(letters, a)
    # the rank of each position under the stable matching to the standard word:
    # the m-th occurrence of letter l is destined for slot m*a + l
    occurrence = prefix_counts(letters, a)[letters, np.arange(len(letters))]
    ranks = (occurrence * a + letters).tolist()
    swaps: list[int] = []
    for i in range(1, len(ranks)):
        j = i
        while j > 0 and ranks[j - 1] > ranks[j]:
            ranks[j - 1], ranks[j] = ranks[j], ranks[j - 1]
            swaps.append(j - 1)
            j -= 1
    return swaps


def apply_transpositions(letters: np.ndarray, swaps: list[int]) -> np.ndarray:
    out = np.array(letters, dtype=np.int64)
    for p in swaps:
        out[p], out[p + 1] = out[p + 1], out[p]
    return out


def tau_tail_bound(a: int, b: int, p: float) -> float:
    """Tail bound for tau exceeding p / sqrt(b) over uniform random words:
    2 a^2 C(2b, ceil(b - p sqrt(b) + 1)) / C(2b, b). Needs p sqrt(b) <= b + 1.
    """
    if a < 1 or b < 1 or p <= 0:
        raise ValueError("need a, b >= 1 and p > 0")
    if p * math.sqrt(b) > b + 1:
        raise ValueError(f"p sqrt(b) = {p * math.sqrt(b):.6g} exceeds b + 1 = {b + 1}")
    m = math.ceil(b - p * math.sqrt(b) + 1)
    return 2.0 * a * a * (math.comb(2 * b, m) / math.comb(2 * b, b))


_TRIAL_CHUNK = 4096  # random words drawn per batch in tau_tail_empirical


def tau_tail_empirical(a: int, b: int, p: float, trials: int, seed: int) -> float:
    """Frequency of tau(w) > p / sqrt(b) over trials successive random_word
    draws from default_rng(seed), drawn _TRIAL_CHUNK at a time."""
    if a < 1 or b < 1 or p <= 0:
        raise ValueError("need a, b >= 1 and p > 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng, base, hits = np.random.default_rng(seed), np.tile(np.arange(a), b), 0
    for done in range(0, trials, _TRIAL_CHUNK):
        c = min(_TRIAL_CHUNK, trials - done)
        letters = rng.permuted(np.tile(base, (c, 1)), axis=1)  # row i: the i-th random_word
        hits += int((_tau(prefix_counts(letters, a), b) > p / math.sqrt(b)).sum())
    return hits / trials
