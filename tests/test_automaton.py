import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
