import doctest
import os
import random
import subprocess
import sys
from itertools import permutations
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stacksort.words
from stacksort.forbidden import complexity_bounds, forbidden_report
from stacksort.patterns import classify
from stacksort.words import (
    Word,
    complexity,
    descents,
    format_word,
    identity_word,
    next_permutation,
    parse_word,
    rank,
    stack_sort,
    stack_sort_pass,
    standardize,
    unrank,
)


def test_doctests():
    results = doctest.testmod(stacksort.words)
    assert results.failed == 0


def test_word_validation():
    with pytest.raises(ValueError):
        Word([1, 2, 2])
    with pytest.raises(ValueError):
        Word([0, 1])
    with pytest.raises(ValueError):
        Word([-3])
    with pytest.raises(ValueError):
        Word([1.5, 2])
    with pytest.raises(TypeError):
        Word("123")
    assert Word([]) == ()
    assert Word([7, 2]).is_standard() is False
    assert Word([2, 1]).is_standard() is True


@pytest.mark.parametrize("call", [classify, forbidden_report, complexity_bounds])
@pytest.mark.parametrize("letters, message", [
    ((2, 3, 2), "repeated letter 2"),
    ((2, 0, 1), "letters must be positive, got 0"),
    ((2, 1.0, 3), "letters must be integers, got 1.0"),
])
def test_entry_points_validate_plain_sequences(call, letters, message):
    # a Word is taken as it is; a tuple or a list is still validated
    for w in (letters, list(letters)):
        with pytest.raises(ValueError, match=message):
            call(w)


def test_parse_and_format():
    assert parse_word("42513") == (4, 2, 5, 1, 3)
    assert parse_word("4, 2, 5, 1, 3") == (4, 2, 5, 1, 3)
    assert parse_word("10 2 5") == (10, 2, 5)
    assert parse_word("") == ()
    assert format_word(Word([4, 2, 5, 1, 3])) == "42513"
    assert format_word(Word([10, 2, 5])) == "10 2 5"
    assert format_word(()) == ""
    with pytest.raises(ValueError):
        parse_word("12a")
    with pytest.raises(ValueError):
        parse_word("1,,x")


@given(st.lists(st.integers(1, 10**9), unique=True, max_size=24))
def test_parse_format_roundtrip(letters):
    w = Word(letters)
    if len(w) == 1 and w[0] > 9:
        digits = str(w[0])
        # a lone letter like 123 formats to a string that is also valid
        # compact shorthand; the shorthand reading wins by convention
        assume("0" in digits or len(set(digits)) < len(digits))
    assert parse_word(format_word(w)) == w


def test_parse_multidigit_singletons():
    assert parse_word("10") == (10,)
    assert parse_word("121") == (121,)
    assert parse_word("123") == (1, 2, 3)


def test_sort_worked_example():
    w = parse_word("42513")
    assert format_word(stack_sort(w)) == "24135"
    assert format_word(stack_sort_pass(w)) == "24135"


def test_complexity_table_s3():
    table = ["123", "132", "213", "231", "312", "321"]
    assert [complexity(parse_word(t)) for t in table] == [0, 1, 1, 2, 1, 1]


def test_complexity_edges():
    assert complexity(Word()) == 0
    assert complexity(Word([1])) == 0
    for n in range(2, 17):
        assert complexity(identity_word(n)) == 0
        assert complexity(Word(range(n, 0, -1))) == 1
    with pytest.raises(ValueError):
        complexity(Word([2, 5]))


def test_operator_equivalence_exhaustive():
    for n in range(7):
        for p in permutations(range(1, n + 1)):
            assert stack_sort(p) == stack_sort_pass(p)


@given(st.lists(st.integers(1, 10**6), unique=True, max_size=64))
def test_operator_equivalence_random(letters):
    w = Word(letters)
    assert stack_sort(w) == stack_sort_pass(w)


@given(st.lists(st.integers(1, 10**6), unique=True, max_size=64))
def test_sort_preserves_letters(letters):
    w = Word(letters)
    assert sorted(stack_sort_pass(w)) == sorted(w)


@given(st.permutations(list(range(1, 10))))
def test_complexity_at_most_n_minus_1(p):
    w = Word(p)
    assert complexity(w) <= max(len(w) - 1, 0)


def _oracle_complexity(w):
    # stack_sort iterations to the identity, by the recursive definition
    w, k = Word(w), 0
    while w != identity_word(len(w)):
        w, k = stack_sort(w), k + 1
    return k


def test_complexity_matches_oracle_exhaustive():
    # through S_8, the first length past the table
    for n in range(9):
        for p in permutations(range(1, n + 1)):
            assert complexity(p) == _oracle_complexity(p), p


def _settled_tail(w):
    """Number of trailing letters of w settled as a run of its maxima."""
    k = 0
    while k < len(w) and w[len(w) - 1 - k] == len(w) - k:
        k += 1
    return k


def test_complexity_drops_settled_tails():
    # words of length 9-16 that end in a long run of their maxima, or in
    # an increasing block below the maximum
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randrange(9, 17)
        m = rng.randrange(n // 2)
        head = list(range(1, m + 1))
        rng.shuffle(head)
        w = head + list(range(m + 1, n + 1))
        assert _settled_tail(w) >= n - m
        assert complexity(w) == _oracle_complexity(w), w
        lo = rng.randrange(1, n - 1)
        hi = rng.randrange(lo + 2, n + 1)  # the block lo..hi-1 stops below n
        rest = [x for x in range(1, n + 1) if not lo <= x < hi]
        rng.shuffle(rest)
        w = rest + list(range(lo, hi))
        assert complexity(w) == _oracle_complexity(w), w


def test_complexity_when_one_pass_settles_several_letters():
    # a word opening with its j largest letters in decreasing order passes
    # to S(rest) followed by those j letters in increasing order
    rng = random.Random(10)
    for _ in range(300):
        n = rng.randrange(9, 17)
        j = rng.randrange(2, n - 1)
        rest = list(range(1, n - j + 1))
        rng.shuffle(rest)
        w = list(range(n, n - j, -1)) + rest
        assert _settled_tail(w) == 0
        assert _settled_tail(stack_sort_pass(w)) >= j
        assert complexity(w) == _oracle_complexity(w), w


def test_complexity_leaves_its_argument_unchanged():
    v = [3, 1, 2, 5, 4, 6, 7, 8, 9, 10, 11, 12]
    complexity(v)
    assert v == [3, 1, 2, 5, 4, 6, 7, 8, 9, 10, 11, 12]


@given(st.integers(8, 20).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
@settings(max_examples=200)
def test_complexity_matches_oracle_past_table(p):
    assert complexity(p) == _oracle_complexity(p)


@given(st.integers(0, 20).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
@settings(max_examples=200)
def test_complexity_ignores_trailing_max(p):
    assert complexity(tuple(p) + (len(p) + 1,)) == complexity(p)


def test_prefix_table_is_built_on_first_use():
    code = ("import stacksort as s, stacksort.words as w; "
            "s.CompiledCatalog(s.builtin_catalog(), 9); "
            "print(w._prefix_table.cache_info().currsize, end=' '); "
            "s.complexity(s.parse_word('42513')); "
            "print(w._prefix_table.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(stacksort.words.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.stdout.split() == ["0", "6"], done.stderr


def test_descents():
    assert descents(parse_word("42513")) == 2
    assert descents(identity_word(6)) == 0
    assert descents(Word(range(6, 0, -1))) == 5
    assert descents(Word()) == 0


def test_rank_unrank_bijective_small():
    for n in range(7):
        seen = set()
        for p in permutations(range(1, n + 1)):
            r = rank(Word(p))
            assert 0 <= r < factorial(n)
            assert unrank(n, r) == p
            seen.add(r)
        assert len(seen) == factorial(n)


def test_rank_is_lexicographic():
    for n in (3, 4, 5):
        ordered = sorted(permutations(range(1, n + 1)))
        for r, p in enumerate(ordered):
            assert rank(Word(p)) == r
            assert unrank(n, r) == p


def test_unrank_range_errors():
    with pytest.raises(ValueError):
        unrank(3, 6)
    with pytest.raises(ValueError):
        unrank(3, -1)
    with pytest.raises(ValueError):
        unrank(-1, 0)
    with pytest.raises(ValueError):
        rank(Word([3, 5]))


def test_next_permutation_walks_lex_order():
    n = 5
    a = list(range(1, n + 1))
    seen = [tuple(a)]
    while next_permutation(a):
        seen.append(tuple(a))
    assert seen == sorted(permutations(range(1, n + 1)))
    assert next_permutation(a) is False
    assert tuple(a) == seen[-1]


def test_standardize():
    assert standardize(Word([4, 9, 2])) == (2, 3, 1)
    assert standardize(Word([10, 20, 30])) == (1, 2, 3)
    assert standardize(Word()) == ()


@given(st.lists(st.integers(1, 10**6), unique=True, min_size=1, max_size=32))
@settings(max_examples=60)
def test_standardize_preserves_sorting(letters):
    w = Word(letters)
    assert standardize(stack_sort_pass(w)) == stack_sort_pass(standardize(w))
