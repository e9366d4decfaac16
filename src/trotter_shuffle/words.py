"""Repeated-letter words: restriction, occurrence-index statistics,
and adjacent-transposition distance to the standard periodic word.

A word of shape (a, b) is an int64 array of length a*b over letters 0..a-1,
each appearing exactly b times; the kernels take it with a and read b off its
length. The standard word is (0, 1, ..., a-1) repeated b times, i.e. the
letter at position p is p mod a.
"""

from __future__ import annotations

import math

import numpy as np


def _multiplicity(words: np.ndarray, a: int) -> int:
    """b = L // a, after checking each row of the (T, L) batch words is a word of shape (a, b)."""
    if a < 1 or np.ndim(words) != 2 or not words.shape[1] or words.shape[1] % a:
        raise ValueError(f"word length must be a*b with b >= 1, a = {a}; got {words.shape[1:]}")
    b = words.shape[1] // a
    rows = a * np.arange(len(words))[:, None]  # a bins a row; a letter short leaves one over
    in_range = words.min(initial=0) >= 0 and words.max(initial=0) < a  # initial: a (0, L) batch
    if not in_range or (np.bincount((words + rows).ravel()) != b).any():
        raise ValueError(f"every letter must be in [0, {a}) and appear exactly {b} times")
    return b


def standard_word(a: int, b: int) -> np.ndarray:
    return np.tile(np.arange(a), b)


def random_word(a: int, b: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform over all arrangements of the standard multiset."""
    return rng.permutation(standard_word(a, b))


def restrict_word(order: np.ndarray, a: int, b: int) -> np.ndarray:
    """The word a permutation, as an index array, induces on the periodic row layout: with
    letter p mod a at position p < a*b, scan positions order[0], ..., order[n-1] and keep
    those below a*b. Uniform permutations induce uniform words."""
    if a * b > len(order):
        raise ValueError(f"a*b = {a * b} exceeds n = {len(order)}")
    return (order[order < a * b] % a).astype(np.int64, copy=False)


def prefix_counts(letters: np.ndarray, a: int) -> np.ndarray:
    """Prefix counts along the last axis of a (..., L) batch of letter rows, shape (..., a, L+1):
    out[..., i, j] = occurrences of letter i among the first j letters (the tests' definition)."""
    onehot = letters[..., None, :] == np.arange(a)[:, None]
    out = np.zeros(letters.shape[:-1] + (a, letters.shape[-1] + 1), dtype=np.int32)
    np.cumsum(onehot, axis=-1, dtype=np.int32, out=out[..., 1:])
    return out


def _occurrences(words: np.ndarray, a: int):
    """The occurrence index (letters, pos, m) of a (T, L) batch of checked words: the words in
    the narrowest unsigned type (radix-sorted up to 16 bits); pos[t, l, k], the k-th position of
    l; m[t, p], how often p's letter occurs before p, in the narrowest signed type holding -b-1."""
    b = _multiplicity(words, a)
    letters = words.astype(np.min_scalar_type(a - 1))
    order = np.argsort(letters, axis=1, kind="stable")  # each letter's positions in order
    m = np.empty(words.shape, dtype=np.min_scalar_type(-b - 1))
    np.put_along_axis(m, order, np.tile(np.arange(b, dtype=m.dtype), a), axis=1)
    return letters, order.reshape(len(words), a, b), m


def _tau(pos: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(largest gap between two letters' prefix counts + 1) / b of each word. Round k ends at the
    last k-th occurrence R_k: the least count is k on the prefixes of lengths (R_{k-1}, R_k], and
    the largest never falls, so the gap peaks at length R_k."""
    most = np.zeros((len(m), m.shape[1] + 1), dtype=m.dtype)  # largest count per prefix length
    np.maximum.accumulate(m + 1, axis=1, out=most[:, 1:])
    gap = np.take_along_axis(most, pos.max(axis=1), axis=1) - np.arange(pos.shape[2], dtype=m.dtype)
    return (gap.max(axis=1) + 1.0) / pos.shape[2]


def batch_word_statistics(words: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """(tau, distance) of each row of a (T, L) batch of words over [0, a): _tau, and the adjacent
    transpositions to the standard word under stable matching of equal letters. The m-th l is
    outranked by an earlier m'-th l' when m' > m, or m' = m and l' > l: with c occurrences of l'
    so far, x = c - m - [l' < l] inversions if x > 0. The x sum to 0 (over l' to p - (m a + l),
    and the ranks m a + l run over the positions p), so the distance is half the sum of |x|."""
    letters, pos, m = _occurrences(words, a)
    t, _, b = pos.shape
    # a letter's count is k from just after its k-th occurrence through its (k+1)-th
    runs = np.diff(pos, axis=2, prepend=-1, append=a * b - 1)
    step, total = max(1, _BATCH // max(t * a * b, 1)), np.zeros(t, dtype=np.int64)
    for lo in range(0, a, step):  # the letters l' of one pass: at most _BATCH counts
        cut = runs[:, lo:lo + step]
        x = np.repeat(np.broadcast_to(np.arange(b + 1, dtype=m.dtype), cut.shape),
                      cut.ravel()).reshape(t, cut.shape[1], a * b)
        x -= m[:, None, :]
        x -= np.arange(a, dtype=letters.dtype)[lo:lo + step, None] < letters[:, None, :]
        total += np.abs(x, out=x).sum(axis=(1, 2), dtype=np.int64)
    return _tau(pos, m), total // 2


def word_statistics(letters: np.ndarray, a: int) -> tuple[float, int]:
    """(tau, distance) of the word letters over [0, a): batch_word_statistics on a batch of one."""
    return tuple(s.item() for s in batch_word_statistics(np.asarray(letters)[None], a))


def transpositions_to_standard(letters: np.ndarray, a: int) -> list[int]:
    """Explicit swap schedule: swapping positions (p, p+1) for each listed p,
    in order, transforms the word letters over [0, a) into the standard word.
    Its length is the distance of word_statistics(letters, a). The swaps of insertion
    sort: O(L^2) time and a list of up to L(L-1)/2 swaps for a word of length L = a*b."""
    # the m-th l goes to slot m*a + l; insertion swaps it at i-1, i-2, ... past each higher rank
    ranks = _occurrences(np.asarray(letters)[None], a)[2][0].astype(np.int64) * a + letters
    moves = np.tril(ranks[None, :] > ranks[:, None], -1).sum(axis=1).tolist()
    return [j for i, k in enumerate(moves) for j in range(i - 1, i - 1 - k, -1)]


def apply_transpositions(letters: np.ndarray, swaps: list[int]) -> np.ndarray:
    out = np.array(letters, dtype=np.int64)
    for p in swaps:
        out[p], out[p + 1] = out[p + 1], out[p]
    return out


def tau_tail_bound(a: int, b: int, p: float) -> float:
    """Tail bound for tau exceeding p / sqrt(b) over uniform random words:
    2 a^2 C(2b, ceil(b - p sqrt(b) + 1)) / C(2b, b). Needs p sqrt(b) <= b + 1."""
    if a < 1 or b < 1 or p <= 0:
        raise ValueError("need a, b >= 1 and p > 0")
    if p * math.sqrt(b) > b + 1:
        raise ValueError(f"p sqrt(b) = {p * math.sqrt(b):.6g} exceeds b + 1 = {b + 1}")
    m = math.ceil(b - p * math.sqrt(b) + 1)
    return 2.0 * a * a * (math.comb(2 * b, m) / math.comb(2 * b, b))


_BATCH = 1 << 18  # the entries a batch holds: letters drawn here, counts in a runner chunk or pass


def tau_tail_empirical(a: int, b: int, p: float, trials: int, seed: int) -> float:
    """Frequency of tau(w) > p / sqrt(b) over trials successive random_word
    draws from default_rng(seed), drawn _BATCH // (a b) at a time, at least one."""
    if a < 1 or b < 1 or p <= 0:
        raise ValueError("need a, b >= 1 and p > 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng, base, hits = np.random.default_rng(seed), standard_word(a, b), 0
    step = max(1, _BATCH // (a * b))
    for done in range(0, trials, step):
        c = min(step, trials - done)
        letters = rng.permuted(np.tile(base, (c, 1)), axis=1)  # row i: the i-th random_word
        hits += int((_tau(*_occurrences(letters, a)[1:]) > p / math.sqrt(b)).sum())
    return hits / trials
