import os
import random
import subprocess
import sys
import types
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stacksort.patterns
from stacksort.patterns import (
    AbsValue,
    Alt,
    AnyOne,
    Catalog,
    CompiledCatalog,
    CompiledRow,
    PatternRow,
    PatternSyntaxError,
    RelValue,
    Star,
    builtin_catalog,
    certified_class,
    classify,
    expand_alternations,
    format_row,
    format_tokens,
    matches,
    parse_catalog,
    parse_row,
    parse_tokens,
    row_matches,
    tier,
)
from stacksort.patterns import _compiled_row, _positions
from stacksort.words import Word

import _matching_oracle as oracle


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_tokens_forms():
    assert parse_tokens("* n 1") == (Star(), RelValue(0), AbsValue(1))
    assert parse_tokens("* ? (n-2)") == (Star(), AnyOne(), RelValue(2))
    alt = parse_tokens("{ 1 ? | ? 1 }")
    assert alt == (Alt(((AbsValue(1), AnyOne()), (AnyOne(), AbsValue(1)))),)
    nested = parse_tokens("* { n 1 | * (n-1) { 2 | 3 } }")
    assert isinstance(nested[1], Alt)


def test_parse_row_clauses():
    row = parse_row("T4a: * n ? ? 1 minus { * n (n-2) (n-1) 1 }")
    assert row.label == "T4a"
    assert row.exclusion == (Star(), RelValue(0), RelValue(2), RelValue(1), AbsValue(1))
    row = parse_row("X: * n 1")
    assert row.exclusion is None


def test_parse_errors_carry_position():
    with pytest.raises(PatternSyntaxError) as e:
        parse_tokens("* n @")
    assert e.value.pos == 4
    with pytest.raises(PatternSyntaxError):
        parse_row("no-colon * n 1")
    with pytest.raises(PatternSyntaxError):
        parse_tokens("{ * n 1 }")  # alternation without '|'
    with pytest.raises(PatternSyntaxError):
        parse_tokens("")
    with pytest.raises(PatternSyntaxError) as e:
        parse_row("X: * n 1 where nonempty(A)")  # no clause but minus
    assert e.value.pos == 9
    with pytest.raises(PatternSyntaxError) as e:
        parse_row("X: *A n 1")  # stars take no name
    assert e.value.pos == 4
    with pytest.raises(PatternSyntaxError):
        parse_row("X: * n 1 minus * n")  # missing braces
    with pytest.raises(PatternSyntaxError):
        parse_row("X: * n 1 trailing?")
    with pytest.raises(PatternSyntaxError):
        parse_catalog("A: * n 1\nA: * n 2")  # duplicate label


def test_catalog_errors_name_line_and_column():
    with pytest.raises(PatternSyntaxError) as e:
        parse_catalog("L1: * n 1\n    X: * n 1 @")
    assert (e.value.line, e.value.pos) == (2, 13)
    assert str(e.value) == "unexpected character '@' (line 2, column 14)"
    with pytest.raises(PatternSyntaxError) as e:
        parse_catalog("# rows\nA: * n 1\n\n  A: * n 2  # again")
    assert str(e.value) == "duplicate row label 'A' (line 4, column 3)"
    with pytest.raises(PatternSyntaxError) as e:
        parse_catalog("L1: * n 1\n  1x: * n 2")
    assert str(e.value) == "bad row label '1x' (line 2, column 3)"
    # the row text of T5a before the grammar lost named stars
    old = "T5a: * n *A (n-2) *B (n-1) 2 where nonempty(A|B)"
    with pytest.raises(PatternSyntaxError) as e:
        parse_catalog("L1: * n 1\n" + old)
    assert (e.value.line, e.value.pos) == (2, old.index("A"))
    assert e.value.message == "unexpected character 'A'"


def test_format_parse_roundtrip_builtin():
    for row in builtin_catalog().rows:
        assert parse_row(format_row(row)) == row


_token_leaf = st.one_of(
    st.just(Star()),
    st.just(AnyOne()),
    st.integers(0, 4).map(RelValue),
    st.integers(1, 9).map(AbsValue),
)
_token = st.one_of(
    _token_leaf,
    st.lists(st.lists(_token_leaf, min_size=1, max_size=3), min_size=2, max_size=3)
    .map(lambda bs: Alt(tuple(tuple(b) for b in bs))),
)


@given(st.lists(_token, min_size=1, max_size=6))
@settings(max_examples=120)
def test_format_parse_roundtrip_random(tokens):
    text = format_tokens(tokens)
    assert parse_tokens(text) == tuple(tokens)


# ---------------------------------------------------------------------------
# matching semantics


def test_matches_basic():
    ts = parse_tokens("* n 1 ?")
    assert matches(ts, Word([2, 3, 5, 1, 4]))
    assert not matches(ts, Word([2, 3, 5, 4, 1]))
    assert not matches(ts, Word([1, 2, 3]))
    # star may be empty
    assert matches(parse_tokens("* n 1"), Word([2, 1]))
    # relative value below 1 can never match
    assert not matches(parse_tokens("* (n-5) 1"), Word([2, 1, 3]))


def test_alternation_and_expansion():
    ts = parse_tokens("* n { 1 ? | ? 1 }")
    assert matches(ts, Word([3, 1, 2]))  # branch "1 ?"
    assert matches(ts, Word([3, 2, 1]))  # branch "? 1"
    assert not matches(ts, Word([1, 3, 2]))
    assert len(expand_alternations(parse_tokens("{ 1 | 2 } { 3 | 4 }"))) == 4


def test_nonempty_constraint():
    # T5a needs a letter between n and n-2 or between n-2 and n-1
    row = builtin_catalog().row("T5a")
    # 6 4 5 adjacent leaves both gaps empty -> rejected
    assert not row_matches(row, Word([1, 3, 6, 4, 5, 2]))
    # a letter between n and n-2
    assert row_matches(row, Word([6, 1, 4, 3, 5, 2]))
    # a letter between n-2 and n-1
    assert row_matches(row, Word([6, 4, 1, 3, 5, 2]))


def test_exclusion_clause():
    row = parse_row("X: * n ? ? 1 minus { * n (n-2) (n-1) 1 }")
    assert row_matches(row, Word([2, 3, 6, 5, 4, 1]))
    assert not row_matches(row, Word([2, 3, 6, 4, 5, 1]))  # excluded shape


def _words_n7_and_n8():
    """Every word of length <= 7, then 2000 seeded words of length 8."""
    for n in range(1, 8):
        yield from permutations(range(1, n + 1))
    rng = random.Random(8)
    for _ in range(2000):
        yield tuple(rng.sample(range(1, 9), 8))


def test_naive_oracle_agrees_with_matcher():
    rows = builtin_catalog().rows
    compiled = {}
    for w in _words_n7_and_n8():
        n = len(w)
        if n not in compiled:
            compiled[n] = [CompiledRow(row, n) for row in rows]
        pos = _positions(w)
        for row, cr in zip(rows, compiled[n]):
            assert cr.match(w, pos) == oracle.row_matches(row, w), (row.label, w)
    # row_matches itself goes through the same compiled rows
    for p in permutations(range(1, 6)):
        for row in rows:
            assert row_matches(row, p) == oracle.row_matches(row, p)


def test_row_matches_reuses_the_compiled_row():
    row = builtin_catalog().row("L2-4")
    first = _compiled_row(row, 6)
    before = _compiled_row.cache_info().hits
    words = list(permutations(range(1, 7)))
    for w in words:
        hit = row_matches(row, w)
        # the oracle: some branch of the row has a blunt-force match
        assert hit == oracle.matches(row.tokens, w)
    assert _compiled_row.cache_info().hits - before == len(words)
    assert _compiled_row(row, 6) is first


def test_matches_reuses_the_compiled_row():
    # every token type hashes, so a token sequence can key the cache
    alt = Alt(((AbsValue(1), AnyOne()), (Star(), RelValue(2))))
    assert len({Star(), AnyOne(), RelValue(1), AbsValue(1), alt}) == 5
    tokens = parse_tokens("* n { 1 ? | ? 1 }")
    first = _compiled_row(PatternRow("", tokens), 6)
    probe = first.match
    before = _compiled_row.cache_info().hits
    words = list(permutations(range(1, 7)))
    for w in words:
        assert matches(tokens, w) == oracle.matches(tokens, w), w
    assert _compiled_row.cache_info().hits - before == len(words)
    # a list of tokens finds the same entry, and no probe is generated again
    assert matches(list(tokens), (5, 2, 3, 6, 1, 4))
    assert _compiled_row(PatternRow("", tokens), 6) is first
    assert first.match is probe


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
    # shapes beyond the built-in rows: a leading pinned letter, adjacent
    # stars, ? between stars, a minus clause of any flat shape
    cr = CompiledRow(row, n)
    for p in permutations(range(1, n + 1)):
        hit = cr.match(p, _positions(p))
        assert hit == oracle.row_matches(row, p), (format_row(row), p)


def test_repeated_letters_rejected():
    row = parse_row("L1: * n 1")
    for call in (lambda w: matches(row.tokens, w),
                 lambda w: oracle.matches(row.tokens, w),
                 lambda w: row_matches(row, w),
                 lambda w: oracle.row_matches(row, w),
                 classify,
                 lambda w: oracle.classify(builtin_catalog(), w)):
        with pytest.raises(ValueError):
            call((2, 2, 1))


def test_non_standard_words():
    # letters need not be 1..n; n and the other pins resolve against the length
    assert matches(parse_tokens("* n 1"), (7, 3, 1))
    assert not matches(parse_tokens("* n 1"), (5, 7, 1))
    assert matches(parse_tokens("* ? 1"), (9, 1))
    assert row_matches(parse_row("X: * n * 1 minus { * n 1 }"), (3, 8, 1))
    assert row_matches(parse_row("X: * 2 * 1"), (0, 2, 9, 1))


# ---------------------------------------------------------------------------
# catalog and classification


def test_builtin_catalog_shape():
    cat = builtin_catalog()
    assert len(cat.rows) == 28
    labels = cat.labels()
    assert labels[0] == "L1"
    assert labels[1:6] == ["L2-1", "L2-2", "L2-3", "L2-4", "L2-5"]
    assert len([l for l in labels if l.startswith("T")]) == 22
    assert cat.row("T5h").label == "T5h"
    with pytest.raises(KeyError):
        cat.row("nope")


def test_tier_and_certified_class():
    assert tier("L1") == (1, 2)
    assert tier("L2-4") == (2, 4)
    assert tier("T3b") == (3, 6)
    assert certified_class("T5a", 9) == 6
    with pytest.raises(ValueError, match=r"tier prefix \(L1/L2/T\)"):
        tier("Q9")


def test_classify_first_match_examples():
    assert classify(Word([2, 3, 1])) == "L1"
    assert classify(Word([2, 4, 3, 1])) == "L2-4"
    assert classify(Word([4, 2, 3, 1])) == "L2-5"
    assert classify(Word([1, 2, 3, 4])) is None
    # word ending n 1 matches L1 before any later row could fire
    assert classify(Word([3, 4, 5, 2, 6, 1])) == "L1"
    with pytest.raises(ValueError):
        classify(Word([3, 5]))


def test_classify_respects_floors():
    # T-tier patterns are meaningless below n=6 and must not fire there
    cat = builtin_catalog()
    for p in permutations(range(1, 5)):
        label = cat.classify(Word(p))
        assert label is None or label.startswith(("L1", "L2"))


def test_compiled_catalog_matches_production():
    cat = builtin_catalog()
    for n in range(1, 9):
        cc = CompiledCatalog(cat, n)
        for p in permutations(range(1, n + 1)):
            label = cc.classify(p, _positions(p))
            assert label == oracle.classify(cat, p), p
            # the derived bucket view holds every row the classifier returns
            bucket = cc.buckets[min(n - 1 - p.index(n), 4)]
            assert label is None or label in [cr.label for cr in bucket]


def test_compiled_catalog_matches_production_random_n9_to_n16():
    cat = builtin_catalog()
    rng = random.Random(8)
    for n in range(9, 17):
        cc = CompiledCatalog(cat, n)
        for _ in range(2000):
            w = rng.sample(range(1, n + 1), n)
            assert cc.classify(w, _positions(w)) == oracle.classify(cat, w), w


def _generated(cc):
    """Every function generated for a compiled catalog: its cells, and the
    probes of its rows."""
    yield from {id(f): f for by_last in cc.dispatch for f in by_last}.values()
    for cr in cc.rows:
        yield cr.match


def test_generated_code_holds_no_catalog_text():
    # labels reach generated code only as indices into a tuple
    cat = builtin_catalog()
    for n in range(2, 17):
        for f in _generated(CompiledCatalog(cat, n)):
            consts = f.__code__.co_consts
            assert all(c is None or isinstance(c, (int, types.CodeType))
                       for c in consts), (n, consts)


def test_dispatch_generates_every_distinct_cell_in_one_compile(monkeypatch):
    calls = []
    generate = stacksort.patterns._generate
    monkeypatch.setattr(stacksort.patterns, "_generate",
                        lambda bodies, results=(): calls.append(len(bodies))
                        or generate(bodies, results))
    cc = CompiledCatalog(builtin_catalog(), 9)
    assert calls == []  # the constructor generates nothing
    w = (3, 4, 5, 6, 7, 8, 2, 9, 1)
    assert cc.classify(w, _positions(w)) == "L1"
    distinct = {tuple(cell) for by_last in cc.cells for cell in by_last}
    assert calls == [len(distinct)]
    rng = random.Random(9)
    for _ in range(1000):
        w = rng.sample(range(1, 10), 9)
        cc.classify(w, _positions(w))
    assert calls == [len(distinct)]


def test_classify_compiles_each_length_on_first_use():
    code = ("import stacksort as s; c = s.builtin_catalog(); "
            "print(len(c._compiled), end=' '); "
            "print(c.classify(()), c.classify((1,)), len(c._compiled), end=' '); "
            "print(c.classify((2, 3, 1)), c.classify((2, 4, 3, 1)), sorted(c._compiled))")
    src = os.path.dirname(os.path.dirname(stacksort.patterns.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.stdout.split() == ["0", "None", "None", "0", "L1", "L2-4", "[3,", "4]"], (
        done.stdout, done.stderr)


def test_compiled_keeps_nonempty_star_before_n():
    # the constrained star sits before n: the row must still be dispatched
    cat = Catalog((parse_row("L1: * (n-1) * n 1 minus { (n-1) * n 1 }"),))
    w = (2, 3, 4, 5, 1)
    assert CompiledCatalog(cat, 5).classify(w, _positions(w)) == "L1"
    for n in range(1, 7):
        cc = CompiledCatalog(cat, n)
        for p in permutations(range(1, n + 1)):
            assert cc.classify(p, _positions(p)) == cat.classify(p), p


def test_dispatch_reaches_every_row():
    cat = builtin_catalog()
    for n in range(2, 13):
        cc = CompiledCatalog(cat, n)
        reached = {id(cr) for by_last in cc.cells for cell in by_last for cr in cell}
        assert [cr.label for cr in cc.rows if id(cr) not in reached] == [], n


def test_compiled_general_shapes_agree_with_oracle():
    # shapes outside the built-in catalog's "* block * ... * suffix" form
    cat = parse_catalog("""
    L1: n 1 *
    L1a: * ? * n
    L1b: 2 * * n ?
    L1c: * n * * 1 minus { * n 1 }
    L1d: ? * ? * ? minus { ? ? ? }
    L1e: ? ? ?
    L2: * n * ? * 1 minus { n * 1 }
    L2a: * { n 1 | (n-1) * 2 } ? * ?
    L2b: { 1 * | * 2 ? } * n minus { { 1 | 2 } * (n-1) n }
    """)
    for n in range(1, 8):
        cc = CompiledCatalog(cat, n)
        for p in permutations(range(1, n + 1)):
            assert cc.classify(p, _positions(p)) == oracle.classify(cat, p), p
            for row in cat.rows:
                assert row_matches(row, p) == oracle.row_matches(row, p), (row.label, p)


def _count_matches(row, n):
    """Number of words of length n matching the row, first match or not."""
    return sum(row_matches(row, p) for p in permutations(range(1, n + 1)))


def test_count_matches_known_values():
    cat = builtin_catalog()
    assert _count_matches(cat.row("L1"), 5) == factorial(3)
    assert _count_matches(cat.row("L2-5"), 5) == 3
    assert _count_matches(cat.row("T4a"), 6) == factorial(4) - factorial(2)
    assert _count_matches(cat.row("T5a"), 6) == factorial(4) // 2 - factorial(2)
    # raw matches exceed first-match counts when an earlier row shadows:
    # words matching "* n 2 ?" with ? = 1 are claimed by "* n ? 1" first
    assert _count_matches(cat.row("T3a"), 6) == 4 * factorial(3)


def test_custom_catalog_classify():
    cat = parse_catalog("""
    # tiny catalog
    L1: * n 1
    L2-1: * n 2
    """)
    assert len(cat.rows) == 2
    assert cat.classify(Word([3, 4, 2, 1])) is None
    assert cat.classify(Word([1, 3, 4, 2])) == "L2-1"
    assert cat.classify(Word([2, 3, 4, 1])) == "L1"
