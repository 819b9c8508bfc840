import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacksort.forbidden import ForbiddenReport, complexity_bounds, forbidden_report
from stacksort.words import Word, complexity, standardize


def _naive_report(w):
    """The O(n^3) scan over every (c, a) pair: the oracle for the
    reports and witnesses of :func:`forbidden_report`."""
    w = Word(w)
    n = len(w)
    best = 0
    best_wit = None
    best_un = 0
    best_un_wit = None
    for j in range(n):
        c = w[j]
        for l in range(j + 1, n):
            a = w[l]
            if a >= c:
                continue
            cands = [w[i] for i in range(j) if a < w[i] < c]
            if len(cands) > best:
                best = len(cands)
                best_wit = (tuple(cands), c, a)
            # Longest candidate run with no letter > c inside it.
            run: list = []
            top: list = []
            for i in range(j):
                if a < w[i] < c:
                    run.append(w[i])
                    if len(run) > len(top):
                        top = list(run)
                elif w[i] > c:
                    run = []
            if len(top) > best_un:
                best_un = len(top)
                best_un_wit = (tuple(top), c, a)
    return ForbiddenReport(w, best, best_un, best_wit, best_un_wit)


def _naive_bounds(w):
    """The bracket :func:`complexity_bounds` derives, read off the oracle."""
    if all(a < b for a, b in zip(w, w[1:])):
        return (0, 0)
    rep = _naive_report(w)
    lower = rep.max_uninterrupted_order + 1 if rep.max_uninterrupted_order else 1
    return (lower, rep.max_order + 1)


def _agrees_with_oracle(w):
    assert forbidden_report(w) == _naive_report(w), w
    assert complexity_bounds(w) == _naive_bounds(w), w


def _query_like_words(rng, count):
    """Standard words of length 8 to 16.  A quarter put n and 1 next to each
    other in the last three places, which gives them the large obstructions
    of the hard words a query stream builds from catalog rows."""
    out = []
    for _ in range(count):
        n = rng.randint(8, 16)
        w = list(range(2, n))
        rng.shuffle(w)
        if rng.random() < 0.25:
            k = rng.randint(n - 4, n - 2)
            w[k:k] = [n, 1]
        else:
            w += [n, 1]
            rng.shuffle(w)
        out.append(Word(w))
    return out


def test_report_matches_the_oracle_on_every_word_to_length_8():
    for n in range(9):
        for p in permutations(range(1, n + 1)):
            _agrees_with_oracle(p)


def test_report_matches_the_oracle_on_query_like_words():
    for w in _query_like_words(random.Random(1), 2000):
        _agrees_with_oracle(w)


@given(st.lists(st.integers(1, 10**4), unique=True, max_size=30))
@settings(max_examples=300)
def test_report_matches_the_oracle_on_random_words(letters):
    _agrees_with_oracle(Word(letters))


@given(st.lists(st.integers(1, 10**4), unique=True, max_size=30))
@settings(max_examples=300)
def test_witnesses_are_obstructions_of_the_reported_order(letters):
    w = Word(letters)
    rep = forbidden_report(w)
    pos = {x: i for i, x in enumerate(w)}
    for wit, order, uninterrupted in (
            (rep.witness, rep.max_order, False),
            (rep.uninterrupted_witness, rep.max_uninterrupted_order, True)):
        if order == 0:
            assert wit is None
            continue
        b, c, a = wit
        assert len(b) == order
        assert [pos[x] for x in b] == sorted(pos[x] for x in b)
        assert pos[b[-1]] < pos[c] < pos[a]
        assert all(a < x < c for x in b)
        if uninterrupted:
            eligible = [x for x in w[:pos[c]] if a < x < c]
            k = eligible.index(b[0])
            assert tuple(eligible[k:k + order]) == b
            assert all(x < c for x in w[pos[b[0]]:pos[b[-1]]])


def test_report_examples():
    rep = forbidden_report(Word([2, 3, 1]))
    assert rep.max_order == 1
    assert rep.max_uninterrupted_order == 1
    assert rep.witness == ((2,), 3, 1)

    rep = forbidden_report(Word([2, 3, 5, 1, 4]))
    assert rep.max_order == 2
    assert rep.max_uninterrupted_order == 2
    assert rep.witness == ((2, 3), 5, 1)

    rep = forbidden_report(Word([1, 2, 3]))
    assert rep.max_order == 0
    assert rep.witness is None


def test_interrupted_obstruction():
    # 2 and 3 both fit below 5, but the 6 between them interrupts
    rep = forbidden_report(Word([2, 6, 3, 5, 1, 4]))
    assert rep.max_order == 2
    assert rep.max_uninterrupted_order == 1
    lo, hi = complexity_bounds(Word([2, 6, 3, 5, 1, 4]))
    assert lo == 2 and hi == 3
    assert lo <= complexity(Word([2, 6, 3, 5, 1, 4])) <= hi


def test_bounds_examples():
    assert complexity_bounds(Word([1, 2, 3, 4, 5])) == (0, 0)
    assert complexity_bounds(Word([2, 3, 1])) == (2, 2)
    assert complexity_bounds(Word([3, 1, 2])) == (1, 1)
    assert complexity_bounds(Word([2, 1])) == (1, 1)
    assert complexity_bounds(Word([2, 3, 5, 1, 4])) == (3, 3)
    assert complexity_bounds(Word([])) == (0, 0)


def test_bracket_exhaustive_small():
    for n in range(1, 8):
        for p in permutations(range(1, n + 1)):
            w = Word(p)
            ssc = complexity(w)
            lo, hi = complexity_bounds(w)
            assert lo <= ssc <= hi, w
            # no obstruction of order k forces complexity <= k
            rep = forbidden_report(w)
            assert ssc <= rep.max_order + 1


def test_nonstandard_words_allowed():
    # value comparisons only, so any distinct-letter word works
    w = Word([20, 30, 10])
    rep = forbidden_report(w)
    assert rep.max_order == 1
    assert complexity_bounds(w) == (2, 2)


@given(st.lists(st.integers(1, 10**4), unique=True, max_size=24))
@settings(max_examples=150)
def test_bracket_random(letters):
    w = Word(letters)
    lo, hi = complexity_bounds(w)
    ssc = complexity(standardize(w))
    assert lo <= ssc <= hi


@given(st.lists(st.integers(1, 10**4), unique=True, max_size=24))
@settings(max_examples=100)
def test_bounds_invariant_under_standardization(letters):
    w = Word(letters)
    assert complexity_bounds(w) == complexity_bounds(standardize(w))
