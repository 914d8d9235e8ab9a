"""Restriction predicates, exhaustive counting, and the composition bijection."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from comptri import words
from comptri import (
    EnumerationBudgetError,
    Restriction,
    WordModel,
    check,
    composition_to_word,
    count_words,
    make_seed,
    mark_histogram,
    mark_histograms,
    oracle_model,
    oracle_row,
    oracle_rows,
    triangle_recurrence,
    word_to_composition,
)

R = Restriction

PREDICATE_CASES = [
    ((), R.NONE, True),
    ((), R.ISOLATED_ZEROS, True),
    ((), R.NO_ODD_ZERO_RUNS, True),
    ((), R.ZERO_FRAMED_BOUNDED, False),
    ((0,), R.ISOLATED_ZEROS, True),
    ((0, 0), R.ISOLATED_ZEROS, False),
    ((0, 1, 0), R.ISOLATED_ZEROS, True),
    ((2, 0, 0, 1), R.ISOLATED_ZEROS, False),
    ((0, 0, 1), R.NO_ODD_ZERO_RUNS, True),
    ((0,), R.NO_ODD_ZERO_RUNS, False),
    ((1, 0, 0, 1, 0, 0), R.NO_ODD_ZERO_RUNS, True),
    ((0, 0, 0, 1), R.NO_ODD_ZERO_RUNS, False),
    ((0, 1), R.AVOID_01, False),
    ((1, 0), R.AVOID_01, True),
    ((0, 2), R.AVOID_01, True),
    ((2, 0, 1), R.AVOID_01, False),
    ((1, 1), R.ISOLATED_NONZEROS, False),
    ((1, 0, 2), R.ISOLATED_NONZEROS, True),
    ((0, 2, 2), R.ISOLATED_NONZEROS, False),
    ((0,), R.ZERO_FRAMED_BOUNDED, True),
    ((0, 0), R.ZERO_FRAMED_BOUNDED, True),
    ((0, 0, 0), R.ZERO_FRAMED_BOUNDED, False),
    ((0, 1, 0), R.ZERO_FRAMED_BOUNDED, True),
    ((0, 1, 1, 0), R.ZERO_FRAMED_BOUNDED, False),
    ((0, 0, 1, 0), R.ZERO_FRAMED_BOUNDED, True),
    ((1, 0), R.ZERO_FRAMED_BOUNDED, False),
    ((0, 1), R.ZERO_FRAMED_BOUNDED, False),
    ((0, 2, 0, 0, 1, 0), R.ZERO_FRAMED_BOUNDED, True),
]


@pytest.mark.parametrize(("word", "restriction", "expected"), PREDICATE_CASES)
def test_predicates(word, restriction, expected):
    assert check(word, restriction) is expected


def reads_only(verdicts, letters):
    """Whether the verdicts depend only on the positions of ``letters`` in each word."""
    by_planes = {}
    for word, verdict in verdicts.items():
        key = tuple(letter if letter in letters else None for letter in word)
        if by_planes.setdefault(key, verdict) != verdict:
            return False
    return True


@pytest.mark.parametrize("restriction", list(R))
def test_read_set_is_what_check_reads(restriction):
    # check's verdict depends on the positions of the letters in the declared
    # read set and on nothing else: words that agree there get one verdict,
    # so permuting the other letters among themselves never changes it.  No
    # declared letter can be left out.
    reads = words._READS[restriction]
    for alphabet in (1, 2, 3, 4):
        others = [letter for letter in range(alphabet) if letter not in reads]
        for length in range(9):
            verdicts = {
                word: check(word, restriction)
                for word in itertools.product(range(alphabet), repeat=length)
            }
            if restriction is R.NONE:
                assert all(verdicts.values())
            assert reads_only(verdicts, reads)
            for a, b in zip(others, others[1:]):
                swap = {a: b, b: a}
                for word, verdict in verdicts.items():
                    assert verdicts[tuple(swap.get(letter, letter) for letter in word)] == verdict
    verdicts = {word: check(word, restriction) for word in itertools.product(range(4), repeat=3)}
    for letter in reads:
        assert not reads_only(verdicts, set(reads) - {letter})


@pytest.mark.parametrize("restriction", list(R))
@pytest.mark.parametrize("alphabet", (2, 3, 4))
def test_vectorized_count_matches_scalar_predicate(restriction, alphabet):
    # the numpy masks must agree with the per-word predicate on every word
    for length in range(7):
        expected = sum(
            1
            for word in itertools.product(range(alphabet), repeat=length)
            if check(word, restriction)
        )
        assert count_words(WordModel(alphabet, length, restriction)) == expected


def test_unrestricted_count_is_power():
    for alphabet in (2, 3, 5):
        for length in range(6):
            assert count_words(WordModel(alphabet, length)) == alphabet**length


def test_marked_count_filter():
    # length-2 ternary words with exactly one 2: {02, 12, 20, 21}
    assert count_words(WordModel(3, 2, R.NONE, 2, 1)) == 4
    assert count_words(WordModel(3, 2, R.AVOID_01, 2, 1)) == 4
    assert count_words(WordModel(3, 2, R.NONE, 2, 3)) == 0


def test_alphabets_above_256_do_not_wrap():
    # letters 256 and up must not alias letters 0 and up
    assert count_words(WordModel(300, 1, R.NONE, 0, 1)) == 1
    assert mark_histogram(257, 1, R.NONE, 0) == (256, 1)


def scalar_histograms(alphabet, length, restriction):
    """mark_histogram for every marked letter, tallied from the scalar predicate."""
    hists = [[0] * (length + 1) for _ in range(alphabet)]
    for word in itertools.product(range(alphabet), repeat=length):
        if check(word, restriction):
            for letter in range(alphabet):
                hists[letter][word.count(letter)] += 1
    return [tuple(h) for h in hists]


@pytest.mark.parametrize("restriction", list(R))
def test_histogram_across_many_chunks(monkeypatch, restriction):
    # a 16-row chunk splits each space into many prefix chunks
    monkeypatch.setattr(words, "_CHUNK", 16)
    for alphabet in (2, 3, 4):
        for length in range(8):
            expected = scalar_histograms(alphabet, length, restriction)
            for letter in range(alphabet):
                assert mark_histogram(alphabet, length, restriction, letter) == expected[letter]


def test_histogram_across_many_tiles(monkeypatch):
    # a tile below the number of leading letters holds one row below them
    monkeypatch.setattr(words, "_CHUNK", 16)
    monkeypatch.setattr(words, "_TILE", 1)
    for restriction in (R.ISOLATED_ZEROS, R.NO_ODD_ZERO_RUNS, R.ZERO_FRAMED_BOUNDED):
        for alphabet in (2, 3, 4):
            for length in range(6):
                expected = scalar_histograms(alphabet, length, restriction)
                for letter in range(alphabet):
                    assert mark_histogram(alphabet, length, restriction, letter) == expected[letter]


def test_alphabet_above_chunk_is_sliced(monkeypatch):
    # a block holds at most _CHUNK mask words, a word without planes counted as one
    for reads in ((), (0,), (0, 1)):
        below = words._grouped_rows(range(0), 2**21, 0, reads, np.uint8)
        assert sum(1 for _ in words._suffix_blocks(below, 2**21, 1, 0, reads)) <= 2 * max(len(reads), 1)
    assert mark_histogram(2**21, 1, R.NONE, 0, budget=2**21) == (2**21 - 1, 1)
    # below the alphabet size, the chunk cuts the last letter's range into blocks
    monkeypatch.setattr(words, "_CHUNK", 3)
    for restriction in R:
        for alphabet in (4, 5):
            for length in range(5):
                expected = scalar_histograms(alphabet, length, restriction)
                for letter in range(alphabet):
                    assert mark_histogram(alphabet, length, restriction, letter) == expected[letter]


@pytest.mark.parametrize("restriction", (R.NONE, R.ISOLATED_ZEROS, R.AVOID_01))
def test_suffix_blocks_hold_at_most_a_chunk_of_mask_words(monkeypatch, restriction):
    # with 0, 1 and 2 planes, every suffix block array holds at most _CHUNK
    # mask words (a word without planes counted as one), both at the real
    # chunk on a 4**11 space and on small chunks and a one-word tile, which
    # send every nonempty word through blocks and cut many of them
    suffix_blocks, blocks = words._suffix_blocks, []

    def spy(below, alphabet, width, marked_letter, reads):
        for block in suffix_blocks(below, alphabet, width, marked_letter, reads):
            blocks.append(block[0])
            yield block

    monkeypatch.setattr(words, "_suffix_blocks", spy)
    planes = len(words._READS[restriction])
    mark_histogram(4, 11, restriction, 3, budget=4**11)
    cases = [(words._CHUNK, blocks[:])]
    monkeypatch.setattr(words, "_TILE", 1)
    for chunk in (16, 3):
        monkeypatch.setattr(words, "_CHUNK", chunk)
        blocks.clear()
        for alphabet in (2, 3, 4, 5):
            for length in range(1, 6):
                mark_histogram(alphabet, length, restriction, alphabet - 1)
        cases.append((chunk, blocks[:]))
    for chunk, arrays in cases:
        assert arrays
        for masks in arrays:
            assert masks.shape[0] == planes
            assert masks.nbytes <= chunk * masks.itemsize
            assert max(planes, 1) * masks.shape[1] * masks.shape[2] <= chunk


def all_words(alphabet, length):
    """Every word, in product order, one row of letters each."""
    space = itertools.product(range(alphabet), repeat=length)
    return np.array(list(space), dtype=np.int64).reshape(alphabet**length, length)


def all_planes(alphabet, length, reads):
    """The plane of each letter of ``reads`` for every word, in product order.

    A word's plane of letter c has bit length-1-p set where letter p is c.
    """
    digits = all_words(alphabet, length)
    weights = 1 << np.arange(length - 1, -1, -1, dtype=np.int64)
    return [(digits == letter) @ weights for letter in reads]


def plane_keys(planes, ok, length):
    """Each word's (planes, verdict) as one integer, sorted."""
    keys = np.zeros(len(ok), dtype=np.int64)
    for plane in planes:
        keys = keys << length | plane.astype(np.int64)
    return np.sort(keys << 1 | ok)


def expected_keys(alphabet, length, restriction):
    """plane_keys of every word, projected on the planes the restriction reads, under check."""
    verdicts = [check(word, restriction) for word in itertools.product(range(alphabet), repeat=length)]
    planes = all_planes(alphabet, length, words._READS[restriction])
    return plane_keys(planes, np.array(verdicts, dtype=np.int64), length)


def spied_passes(monkeypatch):
    """Patch _passes to record (length, planes, verdicts) of each call, all flattened."""
    passes, seen = words._passes, []

    def spy(planes, count, length, restriction):
        ok = passes(planes, count, length, restriction)
        planes, flat = [np.ravel(plane) for plane in planes], np.ravel(ok)
        # every call tests ``count`` words, each with every plane it reads
        assert len(flat) == count and all(len(plane) == count for plane in planes)
        assert len(planes) == len(words._READS[restriction])
        seen.append((length, planes, flat))
        return ok

    monkeypatch.setattr(words, "_passes", spy)
    return seen


def spied_keys(seen, length):
    """plane_keys of every row the recorded _passes calls tested."""
    planes = [np.concatenate(plane) for plane in zip(*(call[1] for call in seen))]
    return plane_keys(planes, np.concatenate([call[2] for call in seen]).astype(np.int64), length)


@pytest.mark.parametrize("restriction", list(R))
def test_every_word_mask_verdict_matches_check(monkeypatch, restriction):
    # each row the enumeration tests is one word: the planes it reads and its
    # verdict, over the whole space, are those of every word under the scalar
    # predicate, and the rows tested are alphabet**length
    seen = spied_passes(monkeypatch)
    for alphabet in (1, 2, 3, 4):
        for length in range(9):  # from the empty word
            expected = expected_keys(alphabet, length, restriction)
            # a 3-word chunk cuts the letter range into blocks; its cost grows
            # with the number of prefixes, so it stops at 4**6 words
            for chunk in (16, 3) if length <= 6 else (16,):
                monkeypatch.setattr(words, "_CHUNK", chunk)
                seen.clear()
                mark_histogram(alphabet, length, restriction, alphabet - 1)
                assert np.array_equal(spied_keys(seen, length), expected)


# lengths 0..8 whole, and with gaps and repeats; a run stops where its
# spaces pass 4**5 words, so only the binary ones reach 8 letters
LENGTH_RUNS = (range(9), (0, 2, 2, 5, 8), (1, 4, 7, 7), (3, 8))


@pytest.mark.parametrize("restriction", list(R))
@pytest.mark.parametrize(("chunk", "tile"), ((16, 4), (48, 16)))
def test_histograms_equal_one_length_histograms(monkeypatch, restriction, chunk, tile):
    # small tiles and chunks make the shared rows serve both whole small spaces
    # and the rows below a suffix block; at 48/16 a quaternary space of 16
    # words grows them to the width a chunk holds, so the next block is wider
    monkeypatch.setattr(words, "_CHUNK", chunk)
    monkeypatch.setattr(words, "_TILE", tile)
    for alphabet in range(1, 6):
        for run in LENGTH_RUNS:
            lengths = [length for length in run if alphabet**length <= 4**5]
            for letter in range(alphabet):
                expected = [mark_histogram(alphabet, length, restriction, letter) for length in lengths]
                assert list(mark_histograms(alphabet, lengths, restriction, letter)) == expected


def test_histograms_slice_an_alphabet_above_chunk(monkeypatch):
    # the letter range of an alphabet above _CHUNK goes into blocks of at most
    # _CHUNK mask words, a word without planes counted as one, and never into
    # one table of the whole alphabet
    lead, spans = words._lead, []

    def spy(lo, hi, marked_letter, reads, dtype):
        spans.append((hi - lo) * max(len(reads), 1))
        return lead(lo, hi, marked_letter, reads, dtype)

    monkeypatch.setattr(words, "_lead", spy)
    alphabet = 2**21
    for restriction in (R.NONE, R.AVOID_01):
        spans.clear()
        got = list(mark_histograms(alphabet, [0, 1, 1], restriction, 0, budget=alphabet))
        assert got == [(1,), (alphabet - 1, 1), (alphabet - 1, 1)]
        assert spans and max(spans) <= words._CHUNK


HISTOGRAM_ARGUMENTS = {
    "bool-alphabet": ((True, [2], R.NONE, 0), "alphabet size must be an integer, got True"),
    "float-alphabet": ((2.0, [2], R.NONE, 0), "alphabet size must be an integer, got 2.0"),
    "zero-alphabet": ((0, [2], R.NONE, 0), "alphabet size must be >= 1"),
    "bool-alphabet-no-lengths": ((True, [], R.NONE, 0), "alphabet size must be an integer, got True"),
    "float-length": ((2, [2.0], R.NONE, 0), "length must be an integer, got 2.0"),
    "bool-length": ((2, [1, True], R.NONE, 0), "length must be an integer, got True"),
    "bool-marked-letter": ((2, [2], R.NONE, True), "marked letter must be an integer, got True"),
    "float-marked-letter": ((2, [2], R.NONE, 1.0), "marked letter must be an integer, got 1.0"),
    "no-marked-letter": ((1, [2], R.NONE, None), "marked letter must be an integer, got None"),
    "float-budget": ((2, [2], R.NONE, 0, 4.0), "budget must be an integer, got 4.0"),
    "bool-budget": ((2, [2], R.NONE, 0, True), "budget must be an integer, got True"),
    # a preset first: oracle_rows(preset, m, ns)
    "oracle-rows-unknown-preset": (("nope", 1, [3]), "'nope' is not a valid Preset"),
    "oracle-rows-no-rows-unknown-preset": (("nope", 1, []), "'nope' is not a valid Preset"),
    "oracle-rows-no-rows-float-budget": (("ones", 1, [], 2.5), "budget must be an integer, got 2.5"),
}


@pytest.mark.parametrize(("args", "message"), HISTOGRAM_ARGUMENTS.values(), ids=HISTOGRAM_ARGUMENTS)
def test_histograms_check_their_arguments_before_any_work(monkeypatch, args, message):
    # each argument is checked as WordModel checks it, at the call and before
    # any word is tested: a bool is not taken for 0 or 1, nor a float for an
    # integer; the one-length wrappers check the same
    calls = []
    monkeypatch.setattr(words, "_passes", lambda *call: calls.append(call))
    rows, row, at = (oracle_rows, oracle_row, 2) if type(args[0]) is str else (mark_histograms, mark_histogram, 1)
    with pytest.raises(ValueError) as info:
        rows(*args)
    assert str(info.value) == message
    if len(args[at]) == 1:
        with pytest.raises(ValueError) as info:
            row(*args[:at], args[at][0], *args[at + 1 :])
        assert str(info.value) == message
    assert calls == []


def test_count_words_checks_its_budget():
    with pytest.raises(ValueError, match=r"^budget must be an integer, got 81.0$"):
        count_words(WordModel(3, 4), budget=81.0)


def test_histograms_refuse_decreasing_lengths():
    with pytest.raises(ValueError, match="must not decrease"):
        list(mark_histograms(2, [3, 2], R.NONE, 0))
    with pytest.raises(ValueError, match="length must be >= 0"):
        list(mark_histograms(2, [-1, 2], R.NONE, 0))


def test_histograms_stop_at_the_first_length_over_budget(monkeypatch):
    # the lengths that fit come out, then the first that does not raises
    # before any word of it is tested
    passes, calls = words._passes, []

    def spy(planes, count, length, restriction):
        calls.append(length)
        return passes(planes, count, length, restriction)

    monkeypatch.setattr(words, "_passes", spy)
    hists = mark_histograms(3, [1, 2, 3, 4, 5], R.ISOLATED_ZEROS, 2, budget=30)
    for length in (1, 2, 3):
        assert next(hists) == mark_histogram(3, length, R.ISOLATED_ZEROS, 2)
    calls.clear()
    with pytest.raises(EnumerationBudgetError, match=r"^3\*\*4 words exceeds the budget 30$"):
        next(hists)
    assert calls == []


@pytest.mark.parametrize("restriction", list(R))
def test_histograms_test_each_word_once_with_its_masks(monkeypatch, restriction):
    # between two results the rows tested are the words of that length, each
    # once, with its own planes and verdict; small tiles and chunks send the
    # short lengths through whole-space tests and the long ones through blocks
    seen = spied_passes(monkeypatch)
    monkeypatch.setattr(words, "_CHUNK", 16)
    monkeypatch.setattr(words, "_TILE", 8)
    for alphabet in (1, 2, 3, 4):
        lengths = [length for length in (0, 1, 2, 2, 4, 5, 7) if alphabet**length <= 4**5]
        hists = mark_histograms(alphabet, lengths, restriction, alphabet - 1)
        for length in lengths:
            seen.clear()
            next(hists)
            assert {call[0] for call in seen} == {length}
            assert np.array_equal(spied_keys(seen, length), expected_keys(alphabet, length, restriction))


@pytest.mark.parametrize("alphabet", (1, 2, 3, 4))
def test_grouped_rows_hold_every_word_once(alphabet):
    # group j of the builder's rows holds each word with j marked letters
    # exactly once: its sorted planes of ``reads`` are those words'
    for reads, width in itertools.product(((), (0,), (0, 1)), range(9)):
        planes = all_planes(alphabet, width, reads)
        digits = all_words(alphabet, width)
        dtype = np.min_scalar_type(1 << width)
        for marked in range(alphabet):
            marks = (digits == marked).sum(axis=1)
            masks, offsets = words._grouped_rows(range(width), alphabet, marked, reads, dtype)
            assert masks.shape == (len(reads), alphabet**width)
            assert len(offsets) == width + 2 and offsets[-1] == alphabet**width
            for j in range(width + 1):
                group = masks[:, offsets[j] : offsets[j + 1]]
                assert group.shape[1] == np.count_nonzero(marks == j)
                got = plane_keys(group, np.zeros(group.shape[1], dtype=np.int64), width)
                want = plane_keys([plane[marks == j] for plane in planes], np.zeros_like(got), width)
                assert np.array_equal(got, want)


@example(word=(0,) * 7)
@example(word=(1,) + (0,) * 6)
@example(word=(0,) * 8)
@example(word=(2,) + (0,) * 7)
@example(word=(0,) * 15)
@example(word=(1,) + (0,) * 14)
@example(word=(0,) * 16)
@example(word=(0,) * 15 + (1,))
@example(word=(0,) * 31)
@example(word=(1,) + (0,) * 30)
@example(word=(0,) * 30 + (5,))
@example(word=(0,) * 31 + (1,))
@example(word=(0,) * 63)
@example(word=(2,) + (0,) * 62)
@settings(derandomize=True, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda alphabet: st.lists(st.integers(0, alphabet - 1), max_size=31).map(tuple)
    )
)
def test_single_word_masks_match_check(word):
    # the masks take the narrowest unsigned type that holds bit len(word), where
    # the NO_ODD_ZERO_RUNS carry of a leading zero run lands.  The examples sit
    # on both sides of each type edge (7/8, 15/16, 31/32 and 63 letters) and
    # set the top letter bit, so a type one bit too narrow fails them.  The
    # row is built letter by letter by the grouped builder, as the enumeration
    # builds it with the planes its restriction reads, and lands in the group
    # of its count of the marked letter 0.
    dtype = np.min_scalar_type(1 << len(word))
    marks = word.count(0)
    for restriction in R:
        reads = words._READS[restriction]
        rows = words._grouped_rows(range(0), 1, 0, reads, dtype)
        for bit, letter in enumerate(reversed(word)):
            rows = words._add_letters(rows, words._lead(letter, letter + 1, 0, reads, dtype), bit)
        masks, offsets = rows
        assert offsets == [0] * (marks + 1) + [1] * (len(word) - marks + 1)
        assert words._passes(masks, 1, len(word), restriction).tolist() == [check(word, restriction)]


@pytest.mark.parametrize("restriction", list(R))
@pytest.mark.parametrize("length", (0, 1, 31, 32, 63, 64, 100))
def test_long_single_letter_word_is_exact(restriction, length):
    # one word, 0**length: past 63 letters its masks are Python ints
    expected = [0] * (length + 1)
    expected[length] = int(check((0,) * length, restriction))
    assert mark_histogram(1, length, restriction, 0) == tuple(expected)


@pytest.mark.parametrize("restriction", list(R))
def test_long_single_letter_space_is_fast(restriction):
    # the one word of a long single-letter space costs one mask test, not a
    # pass per letter
    length = 100_000
    expected = [0] * (length + 1)
    expected[length] = int(check((0,) * length, restriction))
    start = time.perf_counter()
    assert mark_histogram(1, length, restriction, 0) == tuple(expected)
    assert time.perf_counter() - start < 1.0


def test_histogram_consistency():
    for restriction in (R.NONE, R.ISOLATED_ZEROS, R.ZERO_FRAMED_BOUNDED):
        model = WordModel(3, 5, restriction)
        hist = mark_histogram(3, 5, restriction, 2)
        assert sum(hist) == count_words(model)
        for j in range(6):
            assert hist[j] == count_words(WordModel(3, 5, restriction, 2, j))


def test_budget_guard():
    with pytest.raises(EnumerationBudgetError):
        count_words(WordModel(2, 30, R.NONE))
    with pytest.raises(EnumerationBudgetError):
        count_words(WordModel(3, 4, R.NONE), budget=80)
    assert count_words(WordModel(3, 4, R.NONE), budget=81) == 81
    # spaces far past the budget are refused before their size is formed or printed
    with pytest.raises(EnumerationBudgetError, match=r"^2\*\*20000 words exceeds"):
        mark_histogram(2, 20000, R.NONE, 0)
    start = time.perf_counter()
    with pytest.raises(EnumerationBudgetError):
        count_words(WordModel(3, 3_000_000))
    assert time.perf_counter() - start < 0.1


def test_model_validation():
    with pytest.raises(ValueError):
        WordModel(0, 3)
    with pytest.raises(ValueError):
        WordModel(2, -1)
    with pytest.raises(ValueError):
        WordModel(2, 3, R.NONE, 2)
    with pytest.raises(ValueError):
        WordModel(2, 3, R.NONE, None, 1)
    with pytest.raises(ValueError):
        WordModel(2, 3, R.NONE, 1, -1)
    with pytest.raises(ValueError, match="length must be >= 0"):
        mark_histogram(2, -1, R.NONE, 0)


def all_compositions(n):
    for k in range(1, n + 1):
        for cuts in itertools.combinations(range(1, n), k - 1):
            bounds = (0,) + cuts + (n,)
            yield tuple(bounds[i + 1] - bounds[i] for i in range(k))


def test_bijection_example():
    assert composition_to_word([2, 3]) == (0, 1, 0, 0)
    assert word_to_composition((0, 1, 0, 0)) == [2, 3]


def test_bijection_round_trip():
    for n in range(1, 10):
        seen = set()
        for parts in all_compositions(n):
            word = composition_to_word(parts)
            assert len(word) == n - 1
            assert word.count(1) == len(parts) - 1
            assert tuple(word_to_composition(word)) == parts
            seen.add(word)
        # the map is onto all binary words of length n - 1
        assert len(seen) == 2 ** (n - 1)


def test_bijection_validation():
    with pytest.raises(ValueError):
        composition_to_word([])
    with pytest.raises(ValueError):
        composition_to_word([2, 0])
    with pytest.raises(ValueError):
        word_to_composition((0, 2))


def test_bijection_restricted_families():
    # parts in {1, 2} map onto words with isolated zeros; parts >= 2 onto
    # zero-framed words with isolated nonzeros; parts in {2, 3} onto the
    # zero-framed bounded words
    for n in range(1, 11):
        words = {composition_to_word(p) for p in all_compositions(n) if set(p) <= {1, 2}}
        assert words == {
            w
            for w in itertools.product((0, 1), repeat=n - 1)
            if check(w, R.ISOLATED_ZEROS)
        }
        words = {composition_to_word(p) for p in all_compositions(n) if min(p) >= 2}
        assert words == {
            w
            for w in itertools.product((0, 1), repeat=n - 1)
            if w and w[0] == 0 and w[-1] == 0 and check(w, R.ISOLATED_NONZEROS)
        }
        words = {composition_to_word(p) for p in all_compositions(n) if set(p) <= {2, 3}}
        assert words == {
            w
            for w in itertools.product((0, 1), repeat=n - 1)
            if check(w, R.ZERO_FRAMED_BOUNDED)
        }


def test_oracle_model_mapping():
    model = oracle_model("ones", 2, 5)
    assert (model.alphabet, model.length, model.restriction, model.marked_letter) == (
        3, 4, R.NONE, 2,
    )
    model = oracle_model("fib", 1, 6)
    assert (model.alphabet, model.length, model.marked_letter) == (2, 5, 1)
    assert model.restriction is R.ISOLATED_ZEROS
    assert oracle_model("odd", 2, 4).restriction is R.NO_ODD_ZERO_RUNS
    model = oracle_model("natural", 2, 5)
    assert (model.alphabet, model.marked_letter, model.restriction) == (4, 3, R.AVOID_01)
    model = oracle_model("ge2", 1, 7)
    assert (model.alphabet, model.length, model.marked_letter) == (2, 4, 1)
    assert model.restriction is R.ISOLATED_NONZEROS
    model = oracle_model("two_three", 1, 6)
    assert (model.length, model.restriction) == (5, R.ZERO_FRAMED_BOUNDED)


def test_oracle_model_validation():
    with pytest.raises(ValueError):
        oracle_model("custom", 1, 5)
    with pytest.raises(ValueError):
        oracle_model("ge2", 1, 3)
    with pytest.raises(ValueError):
        oracle_model("fib", 0, 5)


def test_oracle_frozen_counts():
    # ternary words of length 3 with one 2: 10 with no 00 factor, 5 with all
    # zero runs even (200, 211, 121, 002, 112)
    assert oracle_row("fib", 2, 4)[1] == 10
    assert oracle_row("odd", 2, 4)[1] == 5
    assert oracle_row("ones", 2, 3)[1] == 4


@pytest.mark.parametrize("preset", ("ones", "fib", "odd", "natural", "ge2", "two_three"))
@pytest.mark.parametrize("m", (1, 2))
def test_oracle_rows_match_engine(preset, m):
    n_max = 8
    tri = triangle_recurrence(make_seed(preset, n_max), m, n_max)
    start = 4 if preset == "ge2" else 1
    for n in range(start, n_max + 1):
        engine = tuple(tri.entry(n, k) for k in range(1, n + 1))
        assert oracle_row(preset, m, n) == engine


@pytest.mark.parametrize("preset", ("ones", "fib", "odd", "natural", "ge2", "two_three"))
def test_oracle_rows_equal_one_row_calls(preset):
    ns = list(range(4 if preset == "ge2" else 1, 10))
    assert list(oracle_rows(preset, 2, ns)) == [oracle_row(preset, 2, n) for n in ns]
    assert list(oracle_rows(preset, 2, [])) == []
    # the rows within the budget come out, then the first row past it raises
    rows = oracle_rows(preset, 3, ns, budget=4**5)
    models = [oracle_model(preset, 3, n) for n in ns]
    fit = [n for n, model in zip(ns, models) if model.alphabet**model.length <= 4**5]
    assert [next(rows) for _ in fit] == [oracle_row(preset, 3, n) for n in fit]
    with pytest.raises(EnumerationBudgetError):
        next(rows)


@pytest.mark.parametrize("preset", ("fib", "odd", "two_three"))
@pytest.mark.parametrize("n", (16, 17, 18))
def test_long_binary_oracle_rows_match_engine(preset, n):
    # binary words of 15 to 17 letters: masks of 16 letters or more are uint32
    tri = triangle_recurrence(make_seed(preset, n), 1, n)
    assert oracle_row(preset, 1, n) == tuple(tri.entry(n, k) for k in range(1, n + 1))
