"""Brute-force word enumeration over finite alphabets.

This module is the package's independent oracle: it counts words by
enumerating every word of a given length over {0, ..., A-1} and testing a
restriction predicate on each one, never by solving a recurrence.  Counts
stay exact because they are plain tallies.

Enumeration is vectorized with numpy in suffix blocks so the acceptance
sweeps (tens of millions of words) finish quickly.  The last letters of a
word, as many as fit in ``_CHUNK`` rows, form a block that is built once per
space; each chunk is one prefix of the remaining letters written over every
row of the block.  Mark counts split the same way: the block's counts are
taken once, and a chunk adds its prefix's count.  Each word is still
materialized and tested individually.  ``budget`` bounds A**length; larger
spaces raise EnumerationBudgetError instead of running forever.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .errors import EnumerationBudgetError
from .sequences import Preset

DEFAULT_BUDGET = 1 << 26
_CHUNK = 1 << 20

Word = tuple[int, ...]


class Restriction(Enum):
    """Predicates on words; letters are compared to 0, 1 and each other only."""

    NONE = "none"
    ISOLATED_ZEROS = "isolated_zeros"
    NO_ODD_ZERO_RUNS = "no_odd_zero_runs"
    AVOID_01 = "avoid_01"
    ISOLATED_NONZEROS = "isolated_nonzeros"
    ZERO_FRAMED_BOUNDED = "zero_framed_bounded"


def _zero_runs(word: Sequence[int]) -> Iterator[int]:
    for letter, run in itertools.groupby(word):
        if letter == 0:
            yield sum(1 for _ in run)


def check(word: Sequence[int], restriction: Restriction) -> bool:
    """True iff the word satisfies the restriction.

    NONE accepts everything.  ISOLATED_ZEROS forbids the factor 00.
    NO_ODD_ZERO_RUNS requires every maximal run of zeros to have even
    length.  AVOID_01 forbids the factor 01.  ISOLATED_NONZEROS forbids two
    adjacent nonzero letters.  ZERO_FRAMED_BOUNDED requires a nonempty word
    that starts and ends with 0, has zero runs of length at most 2, and has
    no two adjacent nonzero letters.
    """
    if restriction is Restriction.NONE:
        return True
    if restriction is Restriction.ISOLATED_ZEROS:
        return all(a != 0 or b != 0 for a, b in zip(word, word[1:]))
    if restriction is Restriction.NO_ODD_ZERO_RUNS:
        return all(run % 2 == 0 for run in _zero_runs(word))
    if restriction is Restriction.AVOID_01:
        return all(a != 0 or b != 1 for a, b in zip(word, word[1:]))
    if restriction is Restriction.ISOLATED_NONZEROS:
        return all(a == 0 or b == 0 for a, b in zip(word, word[1:]))
    if restriction is Restriction.ZERO_FRAMED_BOUNDED:
        if len(word) == 0 or word[0] != 0 or word[-1] != 0:
            return False
        if any(run > 2 for run in _zero_runs(word)):
            return False
        return all(a == 0 or b == 0 for a, b in zip(word, word[1:]))
    raise ValueError(f"unknown restriction {restriction!r}")


@dataclass(frozen=True)
class WordModel:
    """A word-counting problem: alphabet size, length, restriction, marking.

    ``marked_letter`` singles out one letter; ``marked_count`` then fixes how
    many times it must occur.  A marked letter without a count leaves the
    occurrence count free.
    """

    alphabet: int
    length: int
    restriction: Restriction = Restriction.NONE
    marked_letter: int | None = None
    marked_count: int | None = None

    def __post_init__(self) -> None:
        if self.alphabet < 1:
            raise ValueError("alphabet size must be >= 1")
        if self.length < 0:
            raise ValueError("length must be >= 0")
        if self.marked_letter is not None and not 0 <= self.marked_letter < self.alphabet:
            raise ValueError("marked letter must belong to the alphabet")
        if self.marked_count is not None:
            if self.marked_letter is None:
                raise ValueError("a marked count needs a marked letter")
            if self.marked_count < 0:
                raise ValueError("marked count must be >= 0")


def _check_budget(alphabet: int, length: int, budget: int) -> None:
    space = alphabet**length
    if space > budget:
        raise EnumerationBudgetError(
            f"{alphabet}**{length} = {space} words exceeds the budget {budget}"
        )


def _enumerate_chunks(
    alphabet: int, length: int
) -> Iterator[tuple[np.ndarray, tuple[int, ...], np.ndarray]]:
    """Every word of the space, as chunks of digit rows (most significant first).

    A chunk is one prefix followed by each row of a suffix block: the last
    ``width`` letters, where ``width`` is the widest with alphabet**width <=
    _CHUNK.  Yields ``(digits, prefix, suffix)``: ``digits`` is a buffer
    reused by every chunk of the block, with the constant ``prefix`` in its
    leading columns, and ``suffix`` is the view of its trailing columns,
    the same object while the block lasts.  An alphabet above _CHUNK has
    width 1, and its last letter's range is cut into blocks of _CHUNK rows.
    Digits use the smallest unsigned dtype that holds every letter.
    """
    dtype = np.min_scalar_type(alphabet - 1)
    if length == 0:
        empty = np.zeros((1, 0), dtype=dtype)
        yield empty, (), empty
        return
    width = 1
    while width < length and alphabet ** (width + 1) <= _CHUNK:
        width += 1
    head = length - width
    # rows per letter of the block's first column, and letters of that column per block
    rest = alphabet ** (width - 1)
    step = _CHUNK // rest
    for lo in range(0, alphabet, step):
        letters = np.arange(lo, min(lo + step, alphabet), dtype=dtype)
        # column-major, so each position is one contiguous column
        digits = np.empty((len(letters) * rest, length), dtype=dtype, order="F")
        for pos in range(head, length):
            cycle = letters if pos == head else np.arange(alphabet, dtype=dtype)
            column = digits[:, pos].reshape(-1, len(cycle), alphabet ** (length - 1 - pos))
            column[:] = cycle[:, None]
        suffix = digits[:, head:]
        for prefix in itertools.product(range(alphabet), repeat=head):
            digits[:, :head] = prefix
            yield digits, prefix, suffix


def _pass_mask(digits: np.ndarray, restriction: Restriction) -> np.ndarray:
    count, length = digits.shape
    if restriction is Restriction.NONE:
        return np.ones(count, dtype=bool)
    if length == 0:
        keep = restriction is not Restriction.ZERO_FRAMED_BOUNDED
        return np.full(count, keep, dtype=bool)
    zeros = digits == 0
    if restriction is Restriction.ISOLATED_ZEROS:
        return ~(zeros[:, :-1] & zeros[:, 1:]).any(axis=1)
    if restriction is Restriction.AVOID_01:
        return ~(zeros[:, :-1] & (digits[:, 1:] == 1)).any(axis=1)
    if restriction is Restriction.ISOLATED_NONZEROS:
        nonzeros = ~zeros
        return ~(nonzeros[:, :-1] & nonzeros[:, 1:]).any(axis=1)
    if restriction is Restriction.NO_ODD_ZERO_RUNS:
        # scan left to right tracking the parity of the current zero run
        odd = np.zeros(count, dtype=bool)
        bad = np.zeros(count, dtype=bool)
        for pos in range(length):
            col = zeros[:, pos]
            bad |= odd & ~col
            odd = np.where(col, ~odd, False)
        bad |= odd
        return ~bad
    if restriction is Restriction.ZERO_FRAMED_BOUNDED:
        ok = zeros[:, 0] & zeros[:, -1]
        nonzeros = ~zeros
        if length >= 2:
            ok &= ~(nonzeros[:, :-1] & nonzeros[:, 1:]).any(axis=1)
        if length >= 3:
            ok &= ~(zeros[:, :-2] & zeros[:, 1:-1] & zeros[:, 2:]).any(axis=1)
        return ok
    raise ValueError(f"unknown restriction {restriction!r}")


def mark_histogram(
    alphabet: int,
    length: int,
    restriction: Restriction,
    marked_letter: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, ...]:
    """Counts of restriction-passing words by occurrences of the marked letter.

    Entry j of the result counts passing words in which ``marked_letter``
    occurs exactly j times; there are length + 1 entries.  One enumeration
    of the whole space serves every j at once.
    """
    if not 0 <= marked_letter < alphabet:
        raise ValueError("marked letter must belong to the alphabet")
    _check_budget(alphabet, length, budget)
    hist = np.zeros(length + 1, dtype=np.int64)
    block = None
    for digits, prefix, suffix in _enumerate_chunks(alphabet, length):
        if suffix is not block:
            block = suffix
            marks = np.count_nonzero(suffix == marked_letter, axis=1)
        counts = np.bincount(marks[_pass_mask(digits, restriction)])
        shift = prefix.count(marked_letter)
        hist[shift : shift + len(counts)] += counts
    return tuple(int(v) for v in hist)


def count_words(model: WordModel, budget: int = DEFAULT_BUDGET) -> int:
    """Count the words the model accepts, by full enumeration."""
    _check_budget(model.alphabet, model.length, budget)
    if model.marked_count is not None and model.marked_count > model.length:
        return 0
    letter = 0 if model.marked_letter is None else model.marked_letter
    hist = mark_histogram(model.alphabet, model.length, model.restriction, letter, budget)
    return sum(hist) if model.marked_count is None else hist[model.marked_count]


def composition_to_word(parts: Sequence[int]) -> Word:
    """Encode a composition as a binary word: part p becomes 1 0^(p-1),
    the blocks are concatenated, and the leading 1 is dropped.

    A composition of n into k parts becomes a word of length n - 1 with
    k - 1 ones.
    """
    if not parts:
        raise ValueError("a composition needs at least one part")
    out: list[int] = []
    for p in parts:
        if p < 1:
            raise ValueError(f"parts must be positive, got {p}")
        out.append(1)
        out.extend([0] * (p - 1))
    return tuple(out[1:])


def word_to_composition(word: Sequence[int]) -> list[int]:
    """Decode a binary word back to a composition; inverse of composition_to_word."""
    parts: list[int] = []
    current = 1
    for letter in word:
        if letter == 1:
            parts.append(current)
            current = 1
        elif letter == 0:
            current += 1
        else:
            raise ValueError(f"binary words only, got letter {letter!r}")
    parts.append(current)
    return parts


def oracle_model(preset: Preset | str, m: int, n: int) -> WordModel:
    """The word-counting problem whose answers are the triangle row c(n, 1..n).

    Each preset pairs with one restriction; the marked letter tracks the
    number of parts, so c(n, k) counts the accepted words with k - 1 marks
    (see oracle_row).  GE2 is only covered for n > 3.
    """
    preset = Preset(preset)
    if m < 1:
        raise ValueError("depth m must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if preset is Preset.ONES:
        return WordModel(m + 1, n - 1, Restriction.NONE, m)
    if preset is Preset.FIB:
        return WordModel(m + 1, n - 1, Restriction.ISOLATED_ZEROS, m)
    if preset is Preset.ODD:
        return WordModel(m + 1, n - 1, Restriction.NO_ODD_ZERO_RUNS, m)
    if preset is Preset.NATURAL:
        return WordModel(m + 2, n - 1, Restriction.AVOID_01, m + 1)
    if preset is Preset.GE2:
        if n <= 3:
            raise ValueError("the GE2 word model needs n > 3")
        return WordModel(m + 1, n - 3, Restriction.ISOLATED_NONZEROS, 1)
    if preset is Preset.TWO_THREE:
        return WordModel(m + 1, n - 1, Restriction.ZERO_FRAMED_BOUNDED, 1)


def oracle_row(
    preset: Preset | str, m: int, n: int, budget: int = DEFAULT_BUDGET
) -> tuple[int, ...]:
    """c(n, 1..n) for a preset seed, from one enumeration of its word space."""
    model = oracle_model(preset, m, n)
    hist = mark_histogram(
        model.alphabet, model.length, model.restriction, model.marked_letter, budget
    )
    return tuple(hist[k - 1] if k - 1 <= model.length else 0 for k in range(1, n + 1))
