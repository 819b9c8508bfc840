import random
from collections import Counter
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stacksort.automaton as automaton_mod
from stacksort.automaton import NO_LETTER, CatalogAutomaton
from stacksort.patterns import (
    AbsValue,
    AnyOne,
    Catalog,
    PatternRow,
    RelValue,
    Star,
    builtin_catalog,
    format_row,
    parse_catalog,
    parse_row,
    tier,
)

import _matching_oracle as oracle
from _row_counts import ROW_COUNTS


def _oracle_counts(cat, n):
    """The oracle's first-match count of each label valid at n, and of None,
    over every word of S_n: what ``CatalogAutomaton.counts`` should read."""
    got = Counter(oracle.classify(cat, p) for p in permutations(range(1, n + 1)))
    return tuple(got[label] for label in (*cat.levels(n), None))


def test_automaton_matches_the_oracle_on_every_word_to_n8():
    cat = builtin_catalog()
    for n in range(1, 9):
        auto = CatalogAutomaton(cat, n)
        for p, want in zip(permutations(range(1, n + 1)), oracle.builtin_labels(n)):
            assert auto.classify(p) == want, p


def test_automaton_matches_the_oracle_on_seeded_words_n9_to_n16():
    # from n = 9 on some letters are x, 4..n - 5: one at n = 9, eight at 16
    cat = builtin_catalog()
    for n in range(9, 17):
        auto = CatalogAutomaton(cat, n)
        assert auto.pinned == (1, 2, 3, *range(n - 4, n + 1))
        rng = random.Random(n)
        for _ in range(600):
            w = rng.sample(range(1, n + 1), n)
            assert auto.classify(w) == oracle.classify(cat, w), w


# shapes outside the built-in catalog's "* block * ... * suffix" form:
# alternation, minus clauses, adjacent stars, ? between stars, a letter
# pinned at either end, and a star before n that a minus clause makes
# nonempty
GENERAL_SHAPES = """
L1: n 1 *
L1a: * ? * n
L1b: 2 * * n ?
L1c: * n * * 1 minus { * n 1 }
L1d: ? * ? * ? minus { ? ? ? }
L1e: ? ? ?
L1f: * (n-1) * n 1 minus { (n-1) * n 1 }
L2: * n * ? * 1 minus { n * 1 }
L2a: * { n 1 | (n-1) * 2 } ? * ?
L2b: { 1 * | * 2 ? } * n minus { { 1 | 2 } * (n-1) n }
"""


def test_automaton_matches_the_oracle_on_general_shapes():
    cat = parse_catalog(GENERAL_SHAPES)
    for n in range(1, 8):
        auto = CatalogAutomaton(cat, n)
        for p in permutations(range(1, n + 1)):
            assert auto.classify(p) == oracle.classify(cat, p), (n, p)
        # every row alone, so that no earlier row shadows it
        for row in cat.rows:
            one = CatalogAutomaton(Catalog((row,)), n)
            for p in permutations(range(1, n + 1)):
                assert (one.classify(p) == row.label) == (
                    n >= tier(row.label)[1] and oracle.row_matches(row, p)), (row.label, p)


def test_counts_match_the_oracle_on_general_shapes():
    cat = parse_catalog(GENERAL_SHAPES)
    for n in range(1, 9):
        assert CatalogAutomaton(cat, n).counts == _oracle_counts(cat, n), n
        if n < 8:  # and every row alone, so that no earlier row shadows it
            for row in cat.rows:
                one = Catalog((row,))
                assert CatalogAutomaton(one, n).counts == _oracle_counts(one, n), (
                    row.label, n)


def test_counts_equal_the_hand_derived_forms_to_n30():
    # every row at every length from its tier's floor, and the words no row
    # matches make up the rest of the n! words
    cat = builtin_catalog()
    for n in range(1, 31):
        auto = CatalogAutomaton(cat, n)
        assert auto.labels == tuple(cat.levels(n))
        assert auto.counts[:-1] == tuple(ROW_COUNTS[label](n) for label in auto.labels), n
        assert sum(auto.counts) == factorial(n)


_flat_seq = st.lists(st.one_of(
    st.just(Star()),
    st.just(AnyOne()),
    st.integers(0, 3).map(RelValue),
    st.integers(1, 4).map(AbsValue),
), min_size=1, max_size=6).map(tuple)
# a flat row with an optional flat exclusion
_flat_rows = st.builds(PatternRow, st.just("L1"), _flat_seq, st.none() | _flat_seq)


@given(_flat_rows, st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_random_flat_rows_agree_with_oracle(row, n):
    # a leading pinned letter, adjacent stars, ? between stars, a minus
    # clause of any flat shape, letters that fall outside 1..n
    cat = Catalog((row,))
    auto = CatalogAutomaton(cat, n)
    for p in permutations(range(1, n + 1)):
        assert auto.classify(p) == oracle.classify(cat, p), (format_row(row), p)
    assert auto.counts == _oracle_counts(cat, n), format_row(row)


def test_symbols_of_the_builtin_catalog():
    # the pinned letters are 1, 2, 3 and n - 4..n, every letter to n = 8;
    # the others share the symbol x, which is the last symbol
    cat = builtin_catalog()
    for n in range(4, 15):
        auto = CatalogAutomaton(cat, n)
        pinned = sorted({1, 2, 3, *range(max(n - 4, 1), n + 1)})
        assert list(auto.pinned) == pinned
        x = len(pinned)
        assert len(auto.delta) == x + (n > x)
        assert [auto.symbol[v] for v in pinned] == list(range(x))
        assert {auto.symbol[v] for v in range(1, n + 1) if v not in pinned} <= {x}
        assert auto.symbol[0] == auto.symbol[n + 1] == NO_LETTER


def test_states_are_few_and_every_transition_is_tabled():
    # a state is met only through words with distinct letters; from n = 9
    # on there are 536 of them and the sink, at every length
    cat = builtin_catalog()
    for n in range(1, 17):
        auto = CatalogAutomaton(cat, n)
        states = len(auto.codes)
        assert all(len(column) == states for column in auto.delta)
        assert all(0 <= s < states for column in auto.delta for s in column)
        if n >= 9:
            assert states == 537
        # the sink keeps every symbol and is labelled no row
        sink = states - 1
        assert all(column[sink] == sink for column in auto.delta)
        assert auto.codes[sink] == len(auto.labels)


def test_lengths_whose_rows_read_the_same_share_one_table():
    # from n = 9 on the built-in rows read the same as symbols: only the
    # letter-to-symbol map is the length's.  At n = 8 every letter is pinned
    cat = builtin_catalog()
    nine = CatalogAutomaton(cat, 9)
    for n in (*range(10, 31), 100, 255):
        auto = CatalogAutomaton(cat, n)
        assert auto.delta is nine.delta and auto.codes is nine.codes, n
    assert CatalogAutomaton(cat, 8).delta is not nine.delta
    assert isinstance(nine.delta, tuple) and all(isinstance(c, tuple) for c in nine.delta)


def test_a_table_is_built_once_for_lengths_that_share_it():
    automaton_mod._table.cache_clear()
    for n in range(9, 17):
        CatalogAutomaton(builtin_catalog(), n)
    info = automaton_mod._table.cache_info()
    assert (info.misses, info.hits) == (1, 7)


def test_rows_that_read_differently_with_n_get_their_own_tables():
    # 4 and n - 4 are one letter at n = 8, so no word matches either row
    # there; below 8 the letter n - 4 is the smaller of the two, from 9 on
    # the larger.  So n = 5..7 share one table, 8 has its own and 9 on share
    # a third
    cat = parse_catalog("L1: * 4 * (n-4) *\nL1a: * (n-4) ? 4 *")
    auto = {n: CatalogAutomaton(cat, n) for n in range(5, 13)}
    assert auto[5].delta is auto[6].delta is auto[7].delta
    assert auto[9].delta is auto[10].delta is auto[11].delta is auto[12].delta
    assert len({id(auto[n].delta) for n in (7, 8, 9)}) == 3
    for n in range(5, 9):
        for p in permutations(range(1, n + 1)):
            assert auto[n].classify(p) == oracle.classify(cat, p), (n, p)
        assert auto[n].counts == _oracle_counts(cat, n), n
    assert auto[8].counts[:-1] == (0, 0)
    for n in range(9, 13):
        rng = random.Random(n)
        for _ in range(600):
            w = rng.sample(range(1, n + 1), n)
            assert auto[n].classify(w) == oracle.classify(cat, w), (n, w)


def test_a_pinned_letter_read_twice_is_never_a_word():
    # only a word starting with 1 reaches the state after a leading 1, and
    # no word reads 1 again there: that transition is the sink's
    auto = CatalogAutomaton(Catalog((parse_row("L1: 1 2 *"),)), 4)
    sink = len(auto.codes) - 1
    one = auto.delta[auto.symbol[1]]
    assert one[0] != sink and one[one[0]] == sink
    assert auto.classify((1, 2, 4, 3)) == "L1"


def test_classify_takes_standard_words_of_its_length_only():
    auto = CatalogAutomaton(builtin_catalog(), 4)
    assert auto.classify((2, 3, 4, 1)) == "L1"
    assert auto.classify([2, 4, 3, 1]) == "L2-4"
    for bad in ((2, 3, 1), (2, 3, 4, 1, 5), (1, 1, 2, 3), (1, 2, 3, 5)):
        with pytest.raises(ValueError):
            auto.classify(bad)


def test_lengths_up_to_255_build():
    # a letter is a byte of the 256-entry symbol table, so n = 255 is the
    # longest length; a longer or negative one raises before any work
    auto = CatalogAutomaton(builtin_catalog(), 255)
    assert auto.classify((*range(2, 256), 1)) == "L1"
    for n in (256, -1):
        with pytest.raises(ValueError, match="0..255"):
            CatalogAutomaton(builtin_catalog(), n)
