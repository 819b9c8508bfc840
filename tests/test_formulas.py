import os
from fractions import Fraction
from math import comb, factorial
from types import SimpleNamespace

import pytest

from stacksort.census import run_census
from stacksort.formulas import (
    BinomialFormula,
    FactorialPoly,
    InexactDivision,
    REGISTRY,
    ROW_COUNTS,
    canonical_prefactor,
    fit_binomial,
    verify_census,
)
from stacksort.patterns import builtin_catalog


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


# ---------------------------------------------------------------------------
# the registry


def test_registry_known_values():
    assert [REGISTRY["exact-n-1"].evaluate(n) for n in (2, 3, 6, 9)] == [1, 1, 24, 5040]
    assert [REGISTRY["exact-n-2"].evaluate(n) for n in (4, 5, 6, 7)] == [8, 23, 90, 444]
    assert [REGISTRY["exact-n-3"].evaluate(n) for n in (6, 7, 8)] == [198, 982, 5856]
    assert REGISTRY["exact-n-4"].evaluate(8) == 9678
    assert REGISTRY["sortable-n-3"].evaluate(4) == 14
    assert REGISTRY["sortable-n-3"].evaluate(6) == 606
    assert REGISTRY["sortable-n-4"].evaluate(6) == 408
    assert REGISTRY["sortable-n-4"].evaluate(8) == 31104
    assert REGISTRY["sortable-n-5"].evaluate(8) == 21426
    assert [REGISTRY["sortable-1"].evaluate(n) for n in range(1, 9)] == [
        1, 2, 5, 14, 42, 132, 429, 1430]
    assert [REGISTRY["sortable-2"].evaluate(n) for n in range(1, 9)] == [
        1, 2, 6, 22, 91, 408, 1938, 9614]


def test_readme_states_the_n12_predictions():
    # the conjectures' predictions for n = 12, quoted before any such census
    with open(README, encoding="utf-8") as fh:
        text = " ".join(fh.read().split())
    for name in ("exact-n-4", "sortable-n-5"):
        assert f"`{name}` predicts {REGISTRY[name].evaluate(12):,}" in text
    assert f"of the {factorial(12):,}" in text


def test_registry_floors():
    for entry in REGISTRY.values():
        with pytest.raises(ValueError):
            entry.evaluate(entry.floor - 1)


def test_conjectural_flags():
    assert REGISTRY["exact-n-4"].conjectural
    assert REGISTRY["sortable-n-5"].conjectural
    assert not REGISTRY["exact-n-3"].conjectural
    assert not REGISTRY["sortable-1"].conjectural
    assert not REGISTRY["sortable-2"].conjectural


def test_bottom_and_top_forms_meet():
    # at n = 4 "at most n-3 passes" is "at most 1 pass", at n = 5 it is 2
    assert REGISTRY["sortable-n-3"].evaluate(4) == REGISTRY["sortable-1"].evaluate(4)
    assert REGISTRY["sortable-n-3"].evaluate(5) == REGISTRY["sortable-2"].evaluate(5)
    assert REGISTRY["sortable-n-4"].evaluate(6) == REGISTRY["sortable-2"].evaluate(6)


def test_exact_plus_cumulative_identity():
    # counts of complexity exactly n-4 and at most n-5 must add up to the
    # cumulative at-most-(n-4) count
    for n in range(8, 16):
        assert (
            REGISTRY["exact-n-4"].evaluate(n)
            + REGISTRY["sortable-n-5"].evaluate(n)
            == REGISTRY["sortable-n-4"].evaluate(n)
        )
    for n in range(6, 16):
        assert (
            REGISTRY["exact-n-3"].evaluate(n)
            + REGISTRY["sortable-n-4"].evaluate(n)
            == REGISTRY["sortable-n-3"].evaluate(n)
        )


def test_tier_sums_match_row_counts():
    for n in range(6, 14):
        l1 = ROW_COUNTS["L1"](n)
        l2 = sum(ROW_COUNTS[f"L2-{i}"](n) for i in range(1, 6))
        t = sum(fn(n) for label, fn in ROW_COUNTS.items() if label.startswith("T"))
        assert l1 == REGISTRY["exact-n-1"].evaluate(n)
        assert l2 == REGISTRY["exact-n-2"].evaluate(n)
        assert t == REGISTRY["exact-n-3"].evaluate(n)
    assert ROW_COUNTS["T5a"](6) == 10


def _named_classes(name, n):
    """The complexity classes of length n that an entry's name says it counts."""
    k = int(name.rpartition("-")[2]) if name[-1].isdigit() else None
    if name.startswith(("exact-n-", "eulerian-n-")):
        return range(n - k, n - k + 1)
    if name.startswith("sortable-n-"):
        return range(n - k + 1)
    if name.startswith("sortable-"):
        return range(min(k + 1, n))
    top = {"total": n, "eulerian": n, "narayana": 2, "jacquard-schaeffer": 3}[name]
    return range(min(top, n))


def test_registry_classes_are_the_named_ranges():
    for entry in REGISTRY.values():
        for n in range(entry.floor, 13):
            assert range(n)[entry.classes] == _named_classes(entry.name, n), (
                entry.name, n)
    assert len(set(REGISTRY.values())) == len(REGISTRY)  # entries stay hashable


def test_row_counts_cover_the_catalog():
    # verify_census checks each row's count through ROW_COUNTS alone
    assert list(ROW_COUNTS) == builtin_catalog().labels()


def test_inexact_division_raises():
    with pytest.raises(InexactDivision):
        FactorialPoly(3, (1,), 7).evaluate(5)
    with pytest.raises(InexactDivision):
        BinomialFormula(3, (1,)).evaluate(6)
    assert BinomialFormula(3, (1188, 776, 188)).evaluate(6) == 198


def test_binomial_formula_domain():
    with pytest.raises(ValueError):
        BinomialFormula(2, (16, 7)).evaluate(3)


# ---------------------------------------------------------------------------
# fitting


def test_canonical_prefactor():
    assert canonical_prefactor(1, 5) == factorial(3)
    assert canonical_prefactor(3, 6) == Fraction(1, 6)
    assert canonical_prefactor(4, 8) == Fraction(1, 20)


def _formula_data(name, ns):
    entry = REGISTRY[name]
    return {n: entry.evaluate(n) for n in ns}


def test_fit_reproduces_known_vectors():
    fit = fit_binomial(1, _formula_data("exact-n-1", range(2, 8)))
    assert fit.coeffs == (1,) and fit.consistent and fit.natural

    fit = fit_binomial(2, _formula_data("exact-n-2", range(4, 10)))
    assert fit.coeffs == (16, 7) and fit.consistent and fit.natural

    fit = fit_binomial(3, _formula_data("exact-n-3", range(6, 12)))
    assert fit.coeffs == (1188, 776, 188)
    assert fit.consistent and fit.natural and fit.prefactor_exact

    fit = fit_binomial(4, _formula_data("exact-n-4", range(8, 14)))
    assert fit.coeffs == (193560, 150540, 61188, 10248)
    assert fit.consistent and fit.natural


def test_fit_formula_roundtrip():
    fit = fit_binomial(3, _formula_data("exact-n-3", range(6, 10)))
    formula = BinomialFormula(fit.k, fit.coeffs)
    assert formula == REGISTRY["exact-n-3"].formula
    assert formula.evaluate(13) == REGISTRY["exact-n-3"].evaluate(13)


def test_fit_flags_inconsistent_data():
    data = _formula_data("exact-n-3", range(6, 11))
    data[10] += 1
    fit = fit_binomial(3, data)
    assert not fit.consistent


def test_fit_flags_unnatural_coefficients():
    # decreasing data forces a negative coefficient
    fit = fit_binomial(2, {4: 8, 5: 2})
    assert not fit.natural


def test_fit_flags_inexact_prefactor():
    data = _formula_data("exact-n-3", range(6, 9))
    data[9] = 40801  # not divisible by the n=9 prefactor of 10
    fit = fit_binomial(3, data)
    assert not fit.prefactor_exact
    assert not fit.consistent


def test_fit_input_errors():
    with pytest.raises(ValueError):
        fit_binomial(3, {6: 198, 7: 982})  # needs k points
    with pytest.raises(ValueError):
        fit_binomial(3, {5: 1, 6: 198, 7: 982})  # below n=2k
    with pytest.raises(ValueError):
        fit_binomial(0, {1: 1})


def test_fit_explicit_degree():
    data = _formula_data("exact-n-2", range(4, 10))
    fit = fit_binomial(2, data, degree=3)
    assert fit.coeffs == (16, 7, 0, 0)
    assert fit.consistent


# ---------------------------------------------------------------------------
# verification


def _fake_census(n, counts, rows):
    """Those counts and rows over the descent matrix of a real census."""
    return SimpleNamespace(n=n, counts_by_complexity=counts, counts_by_row=rows,
                           descent_matrix=run_census(n).descent_matrix)


def test_verify_census_reports_failures():
    good_rows = {label: ROW_COUNTS[label](5) for label in
                 ("L1", "L2-1", "L2-2", "L2-3", "L2-4", "L2-5")}
    report = verify_census(_fake_census(5, (1, 41, 49, 23, 6), good_rows))
    assert report.ok
    assert {c.name for c in report.checks} >= {"total", "exact-n-1", "exact-n-2",
                                               "sortable-n-3", "row-L1"}

    bad = verify_census(_fake_census(5, (1, 41, 49, 22, 7), good_rows))
    assert not bad.ok
    names = {c.name for c in bad.failures}
    assert "exact-n-1" in names and "exact-n-2" in names
    # classes 1 and 2 swapped: only the bottom-end forms can see it
    swapped = verify_census(_fake_census(5, (1, 49, 41, 23, 6), good_rows))
    assert {c.name for c in swapped.failures} == {"sortable-1"}


def test_verify_census_range_gating():
    report = verify_census(_fake_census(2, (1, 1), {"L1": 1}))
    names = [c.name for c in report.checks]
    assert "exact-n-1" in names
    assert "exact-n-2" not in names and "sortable-n-3" not in names
    assert report.ok
    report = verify_census(_fake_census(1, (1,), {}))
    assert [c.name for c in report.checks] == ["total", "sortable-1", "sortable-2",
                                               "eulerian-d0", "narayana-d0",
                                               "jacquard-schaeffer-d0"]
    assert report.ok


def test_eulerian_numbers():
    # A(n, d) by the recurrence (d + 1) A(n-1, d) + (n - d) A(n-1, d-1)
    rows = {0: (1,)}
    for n in range(1, 13):
        up = rows[n - 1] + (0,)
        rows[n] = tuple((d + 1) * up[d] + (n - d) * (up[d - 1] if d else 0)
                        for d in range(n))
    for n in range(1, 13):
        assert REGISTRY["eulerian"].evaluate(n) == rows[n]
        assert sum(rows[n]) == factorial(n)
    # class n - 1 by descents: t A_{n-2}(t)
    for n in range(2, 13):
        assert REGISTRY["eulerian-n-1"].evaluate(n) == (0, *rows[n - 2], 0)[:n]
    assert not REGISTRY["eulerian"].conjectural
    assert not REGISTRY["eulerian-n-1"].conjectural
