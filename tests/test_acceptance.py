"""Acceptance suite: one test per numbered criterion.

Each test records a PASS/FAIL line (printed again in the pytest terminal
summary) and asserts.  Expected values are written out inline, so the suite
checks the census and the packaged formulas against independent arithmetic
rather than against the package's own registry.

Lengths up to n=9 run in CI time.  Set STACKSORT_EXTENDED=1 to extend the
censuses to n=10 (criteria 3, 4, 6, 7) and n=11 (criterion 7's conjecture
range and the census-backed k=4 fit of criterion 8); the extended run takes
minutes because n=11 enumerates 39.9M words.
"""
import os
import random
from itertools import permutations
from math import comb, factorial

import _matching_oracle as oracle
from _acceptance_log import record

import stacksort.census as census_mod
from stacksort.census import descent_polynomial, run_census
from stacksort.forbidden import complexity_bounds, forbidden_report
from stacksort.formulas import fit_binomial
from stacksort.patterns import matches, parse_tokens
from stacksort.words import (
    Word,
    complexity,
    format_word,
    identity_word,
    parse_word,
    rank,
    stack_sort,
    stack_sort_pass,
    unrank,
)


def check(criterion, ok, detail):
    line = record(criterion, ok, detail)
    assert ok, line


def _at_most(census, c):
    """Number of words with complexity at most c."""
    return sum(census.counts_by_complexity[:c + 1])


def _exact_div(num, den):
    q, r = divmod(num, den)
    assert r == 0, f"{num}/{den} not integral"
    return q


def test_criterion_1_worked_example():
    w = parse_word("42513")
    once = format_word(stack_sort(w))
    ok = once == "24135" and format_word(stack_sort_pass(w)) == "24135"
    table = [complexity(parse_word(t))
             for t in ("123", "132", "213", "231", "312", "321")]
    ok = ok and table == [0, 1, 1, 2, 1, 1]
    check(1, ok, f"sort 42513 -> {once}; S_3 complexities {table}")


def test_criterion_2_glob_example():
    ts = parse_tokens("* n 1 ?")
    got = {format_word(p) for p in map(Word, permutations(range(1, 6)))
           if matches(ts, p)}
    naive = {format_word(p) for p in map(Word, permutations(range(1, 6)))
             if oracle.matches(ts, p)}
    expected = {"23514", "24513", "32514", "34512", "42513", "43512"}
    ok = got == expected and naive == expected
    check(2, ok, f"'* n 1 ?' over S_5 -> {sorted(got)}")


def test_criterion_3_hardest_words(census_cache, extended):
    top = 10 if extended else 9
    ok = True
    for n in range(2, top + 1):
        c = census_cache(n)
        want = factorial(n - 2)
        # the L1 row is the suffix-n1 pattern; the census kernel verified
        # per word that it fires exactly on complexity n-1
        ok = ok and c.counts_by_complexity[n - 1] == want
        ok = ok and c.counts_by_row["L1"] == want
    for n in range(2, 7):  # direct enumeration on top of the kernel check
        for p in map(Word, permutations(range(1, n + 1))):
            ok = ok and (complexity(p) == n - 1) == (p[-2:] == (n, 1))
    check(3, ok, f"count(complexity n-1) == (n-2)! with suffix n1, n=2..{top}")


def test_criterion_4_next_two_levels(census_cache, extended):
    top = 10 if extended else 9
    ok = True
    for n in range(4, top + 1):
        c = census_cache(n)
        ok = ok and c.counts_by_complexity[n - 2] == _exact_div(
            factorial(n - 3) * (7 * n - 12), 2)
        ok = ok and _at_most(c, n - 3) == _exact_div(
            factorial(n - 3) * (2 * n**3 - 6 * n**2 - 5 * n + 16), 2)
    check(4, ok, f"exact n-2 and cumulative n-3 counts match, n=4..{top}")


# Per-row counts for the complexity-(n-3) tier, transcribed independently
# of the package's own tables.
_TIER3_COUNTS = {
    "T1a": lambda n: factorial(n - 3),
    "T1b": lambda n: factorial(n - 3),
    "T1c": lambda n: factorial(n - 3),
    "T1d": lambda n: factorial(n - 3) // 2,
    "T1e": lambda n: factorial(n - 4),
    "T2a": lambda n: factorial(n - 2),
    "T2b": lambda n: (n - 5) * factorial(n - 4),
    "T2c": lambda n: factorial(n - 4),
    "T3a": lambda n: (n - 3) * factorial(n - 3),
    "T3b": lambda n: (n - 3) * factorial(n - 3),
    "T4a": lambda n: factorial(n - 2) - factorial(n - 4),
    "T4b": lambda n: factorial(n - 2),
    "T4c": lambda n: factorial(n - 2),
    "T4d": lambda n: factorial(n - 4),
    "T5a": lambda n: factorial(n - 2) // 2 - factorial(n - 4),
    "T5b": lambda n: factorial(n - 3) // 2,
    "T5c": lambda n: factorial(n - 2) // 6,
    "T5d": lambda n: factorial(n - 2) // 12,
    "T5e": lambda n: (n - 4) * factorial(n - 3),
    "T5f": lambda n: factorial(n - 3) // 2,
    "T5g": lambda n: factorial(n - 3) // 2,
    "T5h": lambda n: factorial(n - 2) // 12,
}


def _eq1(n):
    return _exact_div(
        factorial(n - 4) * (47 * comb(n - 6, 2) + 194 * comb(n - 6, 1) + 297), 3)


def test_criterion_5_tier3_catalog(census_cache):
    ok = _eq1(6) == 198
    for n in range(6, 10):
        c = census_cache(n)
        ok = ok and c.counts_by_complexity[n - 3] == _eq1(n)
        tier_total = 0
        for label, fn in _TIER3_COUNTS.items():
            ok = ok and c.counts_by_row[label] == fn(n)
            tier_total += c.counts_by_row[label]
        # first-match classification gives each word one row, so equality
        # of the sum with the class count makes the rows a partition
        ok = ok and tier_total == c.counts_by_complexity[n - 3]
    check(5, ok, "22 tier-(n-3) row counts match and partition the class, "
                 "n=6..9 (198 at n=6)")


def test_criterion_6_cumulative_n4(census_cache, extended):
    top = 10 if extended else 9
    ok = True
    for n in range(6, top + 1):
        c = census_cache(n)
        ok = ok and _at_most(c, n - 4) == _exact_div(
            factorial(n - 4) * (3 * n**4 - 18 * n**3 - 4 * n**2 + 158 * n - 192), 3)
    # independent cross-oracle at n=6: count words sorted by two passes of
    # the recursive operator, with no complexity machinery involved
    ident = identity_word(6)
    brute = sum(1 for p in map(Word, permutations(range(1, 7)))
                if stack_sort(stack_sort(p)) == ident)
    ok = ok and brute == 408 and _at_most(census_cache(6), 2) == 408
    check(6, ok, f"cumulative n-4 formula n=6..{top}; "
                 f"brute-force two-pass count at n=6 = {brute}")


def test_criterion_7_conjectured_level(census_cache, extended):
    ns = range(8, 12 if extended else 10)
    ok = True
    for n in ns:
        c = census_cache(n)
        form_a = _exact_div(
            factorial(n - 5) * (854 * comb(n - 8, 3) + 5099 * comb(n - 8, 2)
                                + 12545 * comb(n - 8, 1) + 16130), 10)
        form_b = _exact_div(
            factorial(3) * factorial(n - 5)
            * (193560 * comb(n - 8, 0) + 150540 * comb(n - 8, 1)
               + 61188 * comb(n - 8, 2) + 10248 * comb(n - 8, 3)),
            factorial(6))
        cum = _exact_div(
            factorial(n - 5) * (60 * n**5 - 600 * n**4 + 506 * n**3
                                + 11241 * n**2 - 38369 * n + 34236), 60)
        ok = ok and form_a == form_b
        ok = ok and c.counts_by_complexity[n - 4] == form_a
        ok = ok and _at_most(c, n - 5) == cum
    # the two statements are mutually consistent: exact + cumulative at the
    # next level reproduce the proven cumulative formula
    for n in range(8, 14):
        form_a = _exact_div(
            factorial(n - 5) * (854 * comb(n - 8, 3) + 5099 * comb(n - 8, 2)
                                + 12545 * comb(n - 8, 1) + 16130), 10)
        cum = _exact_div(
            factorial(n - 5) * (60 * n**5 - 600 * n**4 + 506 * n**3
                                + 11241 * n**2 - 38369 * n + 34236), 60)
        proven_cum = _exact_div(
            factorial(n - 4) * (3 * n**4 - 18 * n**3 - 4 * n**2 + 158 * n - 192), 3)
        ok = ok and form_a + cum == proven_cum
    ok = ok and census_cache(8).counts_by_complexity[4] == 9678
    check(7, ok, f"conjectured exact n-4 (9678 at n=8) and cumulative n-5 "
                 f"verified for n={ns.start}..{ns.stop - 1}; forms agree")


def test_criterion_8_binomial_fits(census_cache, extended):
    top = 11 if extended else 9
    expected = {
        1: (1,),
        2: (16, 7),
        3: (1188, 776, 188),
        4: (193560, 150540, 61188, 10248),
    }
    ok = True
    done = []
    for k, coeffs in expected.items():
        lo = 2 * k
        if lo + k - 1 > top:
            continue  # not enough census data below the extended range
        data = {n: census_cache(n).counts_by_complexity[n - k]
                for n in range(lo, top + 1)}
        fit = fit_binomial(k, data)
        ok = (ok and fit.coeffs == coeffs and fit.consistent
              and fit.natural and fit.prefactor_exact)
        done.append(f"k={k}:{fit.coeffs}")
    scope = "" if extended else "; k=4 needs the n=10,11 censuses (extended)"
    check(8, ok, "census fits " + ", ".join(done) + scope)


def test_criterion_9_obstruction_bounds():
    ok = True
    for n in range(1, 9):
        for p in map(Word, permutations(range(1, n + 1))):
            ssc = complexity(p)
            lo, hi = complexity_bounds(p)
            ok = ok and lo <= ssc <= hi
            # complexity above k forces an obstruction of every order <= k
            ok = ok and forbidden_report(p).max_order >= ssc - 1
    rng = random.Random(20260815)
    for _ in range(100_000):
        n = rng.randint(1, 20)
        p = Word(rng.sample(range(1, n + 1), n))
        ssc = complexity(p)
        lo, hi = complexity_bounds(p)
        ok = ok and lo <= ssc <= hi
    check(9, ok, "bounds bracket complexity: exhaustive n<=8 "
                 "plus 100000 random words, n<=20")


def test_criterion_10_infrastructure(census_cache, tmp_path):
    ok = True
    for n in range(9):
        for p in map(Word, permutations(range(1, n + 1))):
            ok = ok and stack_sort(p) == stack_sort_pass(p)
    for n in range(9):
        for r, p in enumerate(sorted(permutations(range(1, n + 1)))):
            w = Word(p)
            ok = ok and rank(w) == r and unrank(n, r) == w
    base8 = run_census(8, shard_count=1)
    for shards in (4, 16):
        ok = ok and run_census(8, shard_count=shards).checksum == base8.checksum
    # kill-and-resume: leave a partial checkpoint directory behind, then
    # resume and compare with the single-shot run
    d = str(tmp_path / "ck9")
    os.makedirs(d)
    total = factorial(9)
    bounds = [i * total // 16 for i in range(17)]
    catalog_sha = census_mod._catalog_sha256()
    for i in (0, 3, 7, 11):
        header = census_mod._shard_header(9, 16, i, bounds[i], bounds[i + 1],
                                          catalog_sha)
        census_mod._shard_task((header, census_mod._checkpoint_path(d, header)))
    resumed = run_census(9, shard_count=16, checkpoint_dir=d, resume=True)
    ok = ok and resumed.checksum == census_cache(9).checksum
    check(10, ok, "operator/rank round-trips n<=8; shard counts {1,4,16} "
                  "bit-identical at n=8; resumed n=9 census equals single-shot")


def test_criterion_11_descent_polynomial(census_cache):
    ok = True
    tails = []
    for n in range(6, 10):
        dp = descent_polynomial(census_cache(n))
        proven_cum = _exact_div(
            factorial(n - 4) * (3 * n**4 - 18 * n**3 - 4 * n**2 + 158 * n - 192), 3)
        ok = ok and sum(dp) == proven_cum and dp[0] == 1
        tails.append(dp[-1])
    check(11, ok, f"descent coefficients sum to the cumulative n-4 count "
                  f"with c_0=1, n=6..9 (top coefficient {tails})")
