"""Brute-force word enumeration over finite alphabets.

This module is the package's independent oracle: it counts words by
enumerating every word of a given length over {0, ..., A-1} and testing a
restriction predicate on each one, never by solving a recurrence.  Counts
stay exact because they are plain tallies.

Every restriction compares letters only with 0 and 1, so for the predicate
a word of length L is at most two L-bit masks, or planes: letter p sets bit
L-1-p of the plane of letter c if it is c.  ``_READS`` declares the planes
each restriction reads: none for NONE, those of 0 and 1 for AVOID_01, and
that of 0 for the others.  A word carries only those planes through the
enumeration.  ``check`` is the readable spec; enumeration tests each word's
planes with a few whole-array uint ops, on the narrowest unsigned type that
holds bit L, the NO_ODD_ZERO_RUNS carry, of the call's longest L in budget.

The last letters of every word are grown letter by letter, with the rows
grouped by mark count: group j, the words with j marked letters, is one run
of rows, and a list of group offsets says where each run starts.  A new
letter other than the marked one keeps a row in its group; the marked letter
moves it up one.  ``mark_histograms`` grows these rows once for a run of
lengths that does not decrease, and every length reads them.  A space of at
most ``_TILE`` words is the grown rows of its length, tested whole and
counted group by group.  A larger space ends in a suffix block: the grown
rows of the letters below its leading letter, under every leading letter,
with as many letters as fit in ``_CHUNK`` mask words (planes times rows, a
word without planes counted as one), so every restriction's blocks have one
bound in bytes.  The leading letter is an axis of its own, the marked
letter last, so no row carries a mark count.  Each chunk is one prefix of
the remaining letters with its own mark count: it ORs its planes into the
block's, and the passing words of each group are counted with
``count_nonzero``, once under the other leading letters and once under the
marked one, into the histogram entries of their mark counts plus the
prefix's.  Prefixes run over the block one ``_TILE`` of rows at a time,
which stays in cache.  Each word is still built from its own letters
and tested on its own, once per length asked for; ``mark_histogram`` is the
one-length case.  A one-letter alphabet has one word, 0^L, tested with one
mask per plane, without the letter-by-letter growth.  ``budget`` bounds
A**length and the histogram's length + 1 entries, for each length before any
work on it; larger ones raise EnumerationBudgetError instead of running forever.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .errors import EnumerationBudgetError, check_integer, check_integers
from .records import Record, set_field
from .sequences import Preset

# numpy is imported by the functions that enumerate words, on first use:
# transform, triangle and the algebra suites never enumerate words, so they
# start without it

DEFAULT_BUDGET = 1 << 26
_CHUNK = 1 << 20
_TILE = 1 << 16

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


# The letters whose mask planes each restriction's test reads.  The plane of
# letter c has bit L-1-p set where letter p of a word of length L is c; every
# restriction compares letters only with 0 and 1, and only AVOID_01 reads the
# ones.  Words carry these planes and no others through the enumeration.
_READS = {
    Restriction.NONE: (),
    Restriction.ISOLATED_ZEROS: (0,),
    Restriction.NO_ODD_ZERO_RUNS: (0,),
    Restriction.AVOID_01: (0, 1),
    Restriction.ISOLATED_NONZEROS: (0,),
    Restriction.ZERO_FRAMED_BOUNDED: (0,),
}


def _passes(planes, count: int, length: int, restriction: Restriction):
    """Which of ``count`` words pass, from the planes the restriction reads; a few uint ops per word.

    ``planes[i]`` is the plane of letter ``_READS[restriction][i]``.
    """
    import numpy as np

    if restriction is Restriction.NONE:
        return np.ones(count, dtype=bool)
    zeros = planes[0]
    if restriction is Restriction.ISOLATED_ZEROS:
        return zeros & zeros >> 1 == 0
    if restriction is Restriction.AVOID_01:
        return zeros >> 1 & planes[1] == 0
    if restriction is Restriction.NO_ODD_ZERO_RUNS:
        # adding a zero run's lowest bit carries to the bit just above the run,
        # so the run is even iff that bit has the parity of its lowest bit
        even = (4 ** (length // 2 + 1) - 1) // 3
        lowest, above = zeros & ~(zeros << 1), ~zeros
        bad = (zeros + (lowest & even)) & above & even << 1
        bad |= (zeros + (lowest & even << 1)) & above & even
        return bad == 0
    nonzeros = zeros ^ (1 << length) - 1
    if restriction is Restriction.ISOLATED_NONZEROS:
        return nonzeros & nonzeros >> 1 == 0
    # ZERO_FRAMED_BOUNDED: both end bits; with no letters, bit 0 lies outside the word
    ends = 1 | (1 << length) >> 1
    ok = zeros & ends == ends
    ok &= nonzeros & nonzeros >> 1 == 0
    ok &= zeros & zeros >> 1 & zeros >> 2 == 0
    return ok


class WordModel(Record):
    """A word-counting problem: alphabet size, length, restriction, marking.

    ``marked_letter`` singles out one letter; ``marked_count`` then fixes how
    many times it must occur.  A marked letter without a count leaves the
    occurrence count free.  Instances are immutable and hashable.
    """

    __slots__ = ("alphabet", "length", "restriction", "marked_letter", "marked_count")

    def __init__(
        self,
        alphabet: int,
        length: int,
        restriction: Restriction = Restriction.NONE,
        marked_letter: int | None = None,
        marked_count: int | None = None,
    ) -> None:
        check_integer("alphabet size", alphabet, 1)
        check_integer("length", length, 0)
        if type(restriction) is not Restriction:
            raise ValueError(f"unknown restriction {restriction!r}")
        if marked_letter is not None:
            check_integer("marked letter", marked_letter)
            if not 0 <= marked_letter < alphabet:
                raise ValueError("marked letter must belong to the alphabet")
        if marked_count is not None:
            check_integer("marked count", marked_count, 0)
            if marked_letter is None:
                raise ValueError("a marked count needs a marked letter")
        set_field(self, "alphabet", alphabet)
        set_field(self, "length", length)
        set_field(self, "restriction", restriction)
        set_field(self, "marked_letter", marked_letter)
        set_field(self, "marked_count", marked_count)


def _fits(alphabet: int, length: int, budget: int) -> bool:
    # alphabet**length >= 2**((bits - 1) * length), past the budget from its bit length on, so a
    # large space is refused before its power is formed; only one letter has fewer words than length + 1
    bits = (alphabet.bit_length() - 1) * length
    return bits < budget.bit_length() and max(alphabet**length, length + 1) <= budget


def _check_budget(alphabet: int, length: int, budget: int) -> None:
    check_integer("budget", budget)
    if not _fits(alphabet, length, budget):  # the message never expands the power
        space = f"{alphabet}**{length} words" if alphabet > 1 else f"a histogram of {length + 1} entries"
        raise EnumerationBudgetError(f"{space} exceeds the budget {budget}")


def _lead(lo: int, hi: int, marked_letter: int, reads: tuple[int, ...], dtype):
    """The bit of each letter in lo..hi-1 on each plane of ``reads``, one column per letter.

    The letters other than the marked one keep their order and the marked
    letter, if it is among them, takes the last column; the second item says
    whether it is.
    """
    import numpy as np

    has_marked = lo <= marked_letter < hi
    bits = np.zeros((len(reads), hi - lo), dtype)
    for row, letter in enumerate(reads):
        if lo <= letter < hi:
            # a letter past the marked one moves back one column
            column = letter - lo - (has_marked and marked_letter < letter)
            bits[row, -1 if letter == marked_letter else column] = 1
    return bits, has_marked


def _add_letters(rows, lead, bit: int):
    """Each letter of ``lead`` at ``bit`` ahead of each row, the rows grouped by mark count.

    ``rows`` is (masks, offsets): ``masks`` stacks the planes, and group j,
    the rows with j marked letters, is ``masks[:, offsets[j] : offsets[j + 1]]``.
    Old group j under every letter fills one run of rows, the marked letter
    last, so the other letters keep those rows in group j and the marked
    letter moves them to the head of group j + 1.
    """
    import numpy as np

    (masks, offsets), (bits, has_marked) = rows, lead
    planes, n = bits.shape
    # every letter ahead of every row, then each old group's rows in one run
    full = bits[:, :, None] << bit | masks[:, None, :]
    out = np.empty((planes, n * masks.shape[1]), masks.dtype)
    for a, b in zip(offsets, offsets[1:]):
        out[:, n * a : n * b].reshape(planes, n, b - a)[...] = full[..., a:b]
    stay, up = n - has_marked, int(has_marked)
    return out, [0] + [stay * b + up * a for a, b in zip(offsets, offsets[1:])] + [n * offsets[-1]]


def _grouped_rows(
    bits: range, alphabet: int, marked_letter: int, reads: tuple[int, ...], dtype, rows=None
):
    """``rows``, by default the empty word's, with a letter added at each of ``bits``."""
    import numpy as np

    if rows is None:
        rows = np.zeros((len(reads), 1), dtype), [0, 1]
    # with no letters to add the alphabet may be any size, so it gets no table
    lead = _lead(0, alphabet, marked_letter, reads, dtype) if bits else None
    for bit in bits:
        rows = _add_letters(rows, lead, bit)
    return rows


def _suffix_blocks(below, alphabet: int, width: int, marked_letter: int, reads: tuple[int, ...]):
    """The rows of the last ``width`` letters of every word, in blocks.

    ``below`` is the grouped rows of the ``width - 1`` letters under the
    leading one.  A block is (masks, offsets, has_marked).  ``masks`` has
    shape (planes, n, N): the planes of ``reads`` of n leading letters, the
    marked letter last if ``has_marked``, ahead of the N words below, which
    ``offsets`` groups by mark count.  The leading letters are cut into
    blocks of at most _CHUNK mask words, counting a word without planes as
    one; above that many letters each block has one row below.
    """
    masks, offsets = below
    step = _CHUNK // (max(len(reads), 1) * masks.shape[1])
    for lo in range(0, alphabet, step):
        bits, has_marked = _lead(lo, min(lo + step, alphabet), marked_letter, reads, masks.dtype)
        yield bits[:, :, None] << width - 1 | masks[:, None, :], offsets, has_marked


def _count_blocks(hist: list[int], blocks, prefixes, length: int, restriction: Restriction) -> None:
    """Add the passing words of every prefix ahead of every block to ``hist``.

    A prefix is (its planes, its mark count), the planes a list of Python
    ints, one per plane of the blocks.  Every prefix runs over one _TILE of
    a block while it is in cache: a span of the rows below under every
    leading letter.
    """
    import numpy as np

    for masks, offsets, has_marked in blocks:
        n, below = masks.shape[1:]
        stay = n - has_marked
        span = max(1, _TILE // n)
        for lo in range(0, below, span):
            tile = list(masks[:, :, lo : lo + span])
            shape = n, min(span, below - lo)
            # each group's rows within the span
            ends = [min(max(end - lo, 0), span) for end in offsets]
            groups = [(j, a, b) for j, (a, b) in enumerate(zip(ends, ends[1:])) if a < b]
            for prefix, shift in prefixes:
                planes = [plane | bit for plane, bit in zip(tile, prefix)]
                ok = _passes(planes, shape[0] * shape[1], length, restriction).reshape(shape)
                for j, a, b in groups:
                    hist[j + shift] += int(np.count_nonzero(ok[:stay, a:b]))
                    if has_marked:
                        hist[j + shift + 1] += int(np.count_nonzero(ok[stay, a:b]))


def mark_histograms(
    alphabet: int,
    lengths: Iterable[int],
    restriction: Restriction,
    marked_letter: int,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[tuple[int, ...]]:
    """mark_histogram of each length in ``lengths``, in order, from one growth of the rows.

    The lengths must not decrease.  The grouped rows of the last letters are
    grown once, as far as the longest length needs, and serve every length.
    The arguments, the budget's type among them, are checked as WordModel
    checks them, at the call.  Each length's budget size is checked before
    any work on it, so the lengths that fit are yielded before
    EnumerationBudgetError is raised at the first that does not.
    """
    # WordModel would take None for no marked letter
    check_integer("marked letter", marked_letter)
    lengths = list(lengths)
    # each length's model checks the arguments, the empty word's if there is none
    for length in lengths or [0]:
        WordModel(alphabet, length, restriction, marked_letter)
    if any(a > b for a, b in zip(lengths, lengths[1:])):
        raise ValueError("lengths must not decrease")
    check_integer("budget", budget)
    return _histograms(alphabet, lengths, restriction, marked_letter, budget)


def _histograms(alphabet: int, lengths: list[int], restriction: Restriction, marked_letter: int, budget: int):
    """mark_histograms once its arguments are checked, one length at a time."""
    import numpy as np

    reads = _READS[restriction]
    # a suffix block holds at most _CHUNK mask words, a word without planes
    # counted as one, so every restriction's blocks have one bound in bytes
    block_words = _CHUNK // max(len(reads), 1)
    # masks hold bit L of the longest L within the budget, the NO_ODD_ZERO_RUNS
    # carry, in the narrowest unsigned type that holds it (uint8 below 8 letters
    # up to uint64 below 64); past 63 bits they are Python ints, which cannot wrap
    dtype = np.min_scalar_type(1 << max((n for n in lengths if _fits(alphabet, n, budget)), default=0))
    # the grouped rows of the last ``grown`` letters of every word
    rows, grown = None, 0
    for length in lengths:
        _check_budget(alphabet, length, budget)
        if alphabet == 1:
            # the one word, 0**length, is one mask per plane; growing it letter
            # by letter would copy its group once per letter
            planes = [np.array([(1 << length) - 1 if letter == 0 else 0], dtype) for letter in reads]
            yield (0,) * length + (int(_passes(planes, 1, length, restriction)[0]),)
            continue
        if alphabet**length <= _TILE:
            # a space within one tile is the grown rows, tested whole
            rows = _grouped_rows(range(grown, length), alphabet, marked_letter, reads, dtype, rows)
            grown = length
            masks, offsets = rows
            ok = _passes(masks, offsets[-1], length, restriction)
            yield tuple(int(np.count_nonzero(ok[a:b])) for a, b in zip(offsets, offsets[1:]))
            continue
        # the suffix block holds the most letters with alphabet**width words
        # within a block, at least one and at least one past the rows grown so far
        width = 1
        while width < length and alphabet ** (width + 1) <= block_words:
            width += 1
        width = max(width, grown + 1)
        rows = _grouped_rows(range(grown, width - 1), alphabet, marked_letter, reads, dtype, rows)
        grown = width - 1
        # (planes, mark count) of each prefix, the planes as Python ints
        heads, offsets = _grouped_rows(range(width, length), alphabet, marked_letter, reads, dtype)
        columns = heads.T.tolist()
        prefixes = [
            (columns[i], j) for j in range(len(offsets) - 1) for i in range(offsets[j], offsets[j + 1])
        ]
        hist = [0] * (length + 1)
        blocks = _suffix_blocks(rows, alphabet, width, marked_letter, reads)
        _count_blocks(hist, blocks, prefixes, length, restriction)
        yield tuple(hist)


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
    return next(mark_histograms(alphabet, [length], restriction, marked_letter, budget))


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
    parts = check_integers(parts, ValueError, "parts must be positive integers", 1)
    if not parts:
        raise ValueError("a composition needs at least one part")
    return tuple(itertools.chain.from_iterable((1,) + (0,) * (p - 1) for p in parts))[1:]


def word_to_composition(word: Sequence[int]) -> list[int]:
    """Decode a binary word back to a composition; inverse of composition_to_word."""
    parts: list[int] = []
    current = 1
    for letter in check_integers(word, ValueError, "letters must be integers"):
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
    check_integer("depth m", m, 1)
    check_integer("n", n, 1)
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


def oracle_rows(
    preset: Preset | str, m: int, ns: Iterable[int], budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[int, ...]]:
    """c(n, 1..n) for each n in ``ns``, in order, from one run of mark_histograms.

    The n must not decrease.  Every row of a preset and depth has the same
    alphabet, restriction and marked letter; only the word length changes.
    The arguments are checked at the call, as in mark_histograms, even
    when ``ns`` is empty.
    """
    ns = list(ns)
    models = [oracle_model(preset, m, n) for n in ns]
    # with no rows, a row that every preset's model covers checks the preset and m
    first = models[0] if models else oracle_model(preset, m, 4)
    lengths = [model.length for model in models]
    hists = mark_histograms(first.alphabet, lengths, first.restriction, first.marked_letter, budget)
    return (
        tuple(hist[k - 1] if k - 1 <= model.length else 0 for k in range(1, n + 1))
        for n, model, hist in zip(ns, models, hists)
    )


def oracle_row(
    preset: Preset | str, m: int, n: int, budget: int = DEFAULT_BUDGET
) -> tuple[int, ...]:
    """c(n, 1..n) for a preset seed, from one enumeration of its word space."""
    return next(oracle_rows(preset, m, [n], budget))
