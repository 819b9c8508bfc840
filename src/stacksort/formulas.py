"""Exact counting formulas, census verification, and binomial-basis fitting.

Counts of standard words by stack-sorting complexity follow closed forms
at both ends of the range.  Each registry entry counts the words in a
slice of the complexity classes 0..n-1, where index -k is class n-k:

* ``total``, ``slice(None)``: n!;
* ``sortable-k``, ``slice(k + 1)``: the k-stack-sortable words, Catalan(n)
  for k = 1 (Knuth) and 2(3n)!/((n+1)!(2n+1)!) for k = 2 (conjectured by
  West, proved by Zeilberger);
* ``exact-n-k``, ``slice(-k, -k + 1 or None)``: in the canonical shape
  ``(k-1)! (n-k-1)! / (2k-2)! * sum(a_i * C(n-2k, i))`` with natural a_i;
* ``sortable-n-k``, ``slice(1 - k)``: ``(n-j)! * P(n) / d`` for integer P;
* by descents, one count per d, against the descent matrix's column sums
  over the slice: ``eulerian``, ``slice(None)``, A(n, d); ``narayana``,
  ``slice(2)``, C(n, d) C(n, d+1) / n; ``jacquard-schaeffer``, ``slice(3)``,
  (n+d)! (2n-d-1)! / ((d+1)! (n-d)! (2d+1)! (2n-2d-1)!) (Bóna's conjecture,
  proved by Jacquard and Schaeffer); ``eulerian-n-1``, ``slice(-1, None)``,
  A(n-2, d-1), the row t A_{n-2}(t) of class n-1, whose words are those
  ending in n 1.

``verify_census`` also checks Bóna's symmetry (proved in "Symmetry and
unimodality in t-stack sortable permutations", JCTA 98, 2002): the words
sortable in at most t passes with d descents number those with n-1-d.  It
compares the census with itself, so it is a loop beside the registry, not
an entry; it runs for t = 3..n-3, since the forms above fix the other
sums.

``exact-n-4`` and ``sortable-n-5`` are conjectural: they reproduce every
census computed here but carry no proof; verification reports flag them.

All arithmetic is exact (integers and fractions); a division that fails to
come out even raises :class:`InexactDivision` rather than rounding.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, prod
from typing import Callable, Dict, Mapping, Optional, Tuple

from .patterns import builtin_catalog


class InexactDivision(ArithmeticError):
    """An exact formula produced a non-integer value."""


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise InexactDivision(f"{num}/{den} is not an integer")
    return q


@dataclass(frozen=True)
class BinomialFormula:
    """``(k-1)! (n-k-1)! / (2k-2)! * sum(a_i * C(n-2k, i))``.

    The canonical shape for the count of words of complexity exactly n-k;
    defined for n >= 2k.

    >>> BinomialFormula(2, (16, 7)).evaluate(5)
    23
    """
    k: int
    coeffs: Tuple[int, ...]

    def evaluate(self, n: int) -> int:
        k = self.k
        if n < 2 * k:
            raise ValueError(f"formula needs n >= {2 * k}, got {n}")
        total = sum(a * comb(n - 2 * k, i) for i, a in enumerate(self.coeffs))
        return _exact_div(factorial(k - 1) * factorial(n - k - 1) * total,
                          factorial(2 * k - 2))


@dataclass(frozen=True)
class FactorialPoly:
    """``(n-j)! * P(n) / d`` with integer coefficients, ascending powers."""
    j: int
    poly: Tuple[int, ...]
    denom: int = 1

    def evaluate(self, n: int) -> int:
        if n < self.j:
            raise ValueError(f"formula needs n >= {self.j}, got {n}")
        p = 0
        for a in reversed(self.poly):
            p = p * n + a
        return _exact_div(factorial(n - self.j) * p, self.denom)


@dataclass(frozen=True)
class FactorialRatio:
    """``c * (a n + b)! / prod((a_i n + b_i)!)``, each factorial given as (a, b).

    >>> FactorialRatio(1, (2, 0), ((1, 0), (1, 1))).evaluate(4)  # Catalan(4)
    14
    """
    coeff: int
    top: Tuple[int, int]
    bottom: Tuple[Tuple[int, int], ...]

    def evaluate(self, n: int) -> int:
        a, b = self.top
        den = 1
        for ai, bi in self.bottom:
            den *= factorial(ai * n + bi)
        return _exact_div(self.coeff * factorial(a * n + b), den)


@dataclass(frozen=True)
class ByDescents:
    """One count per number of descents d = 0..n-1, each ``term(n, d)``.

    >>> REGISTRY["eulerian"].formula.evaluate(5)  # A(5, d)
    (1, 26, 66, 26, 1)
    """
    term: Callable[[int, int], int]

    def evaluate(self, n: int) -> Tuple[int, ...]:
        return tuple(self.term(n, d) for d in range(n))


@dataclass(frozen=True)
class FormulaEntry:
    """A registered count: which classes it reads, from which n, how firmly."""
    name: str
    classes: slice = field(hash=False)  # of 0..n-1; index -k is class n-k
    floor: int
    conjectural: bool
    formula: object     # evaluate(n) -> an int, or one int per d

    def evaluate(self, n: int):
        if n < self.floor:
            raise ValueError(f"{self.name} needs n >= {self.floor}, got {n}")
        return self.formula.evaluate(n)


def _eulerian(m: int, d: int) -> int:
    """The Eulerian number A(m, d): the words of length m with d descents.
    A(m, -1) is the empty sum, 0.

    >>> [_eulerian(4, d) for d in range(-1, 4)]
    [0, 1, 11, 11, 1]
    """
    return sum((-1) ** i * comb(m + 1, i) * (d + 1 - i) ** m for i in range(d + 1))


REGISTRY: Dict[str, FormulaEntry] = {
    e.name: e
    for e in (
        FormulaEntry("total", slice(None), 1, False, FactorialRatio(1, (1, 0), ())),
        FormulaEntry("sortable-1", slice(2), 1, False,
                     FactorialRatio(1, (2, 0), ((1, 0), (1, 1)))),
        FormulaEntry("sortable-2", slice(3), 1, False,
                     FactorialRatio(2, (3, 0), ((1, 1), (2, 1)))),
        FormulaEntry("exact-n-1", slice(-1, None), 2, False, BinomialFormula(1, (1,))),
        FormulaEntry("exact-n-2", slice(-2, -1), 4, False, BinomialFormula(2, (16, 7))),
        FormulaEntry("exact-n-3", slice(-3, -2), 6, False,
                     BinomialFormula(3, (1188, 776, 188))),
        FormulaEntry("exact-n-4", slice(-4, -3), 8, True,
                     BinomialFormula(4, (193560, 150540, 61188, 10248))),
        FormulaEntry("sortable-n-3", slice(-2), 4, False,
                     FactorialPoly(3, (16, -5, -6, 2), 2)),
        FormulaEntry("sortable-n-4", slice(-3), 6, False,
                     FactorialPoly(4, (-192, 158, -4, -18, 3), 3)),
        FormulaEntry("sortable-n-5", slice(-4), 8, True,
                     FactorialPoly(5, (34236, -38369, 11241, 506, -600, 60), 60)),
        FormulaEntry("eulerian", slice(None), 1, False, ByDescents(_eulerian)),
        FormulaEntry("narayana", slice(2), 1, False, ByDescents(
            lambda n, d: _exact_div(comb(n, d) * comb(n, d + 1), n))),
        FormulaEntry("jacquard-schaeffer", slice(3), 1, False, ByDescents(
            lambda n, d: _exact_div(factorial(n + d) * factorial(2 * n - d - 1), prod(
                map(factorial, (d + 1, n - d, 2 * d + 1, 2 * n - 2 * d - 1)))))),
        FormulaEntry("eulerian-n-1", slice(-1, None), 2, False, ByDescents(
            lambda n, d: _eulerian(n - 2, d - 1))),
    )
}


# First-match counts for the built-in catalog rows (see catalog.txt); each
# maps a word length to the number of words whose first matching row it is.
ROW_COUNTS: Dict[str, Callable[[int], int]] = {
    "L1": lambda n: factorial(n - 2),
    "L2-1": lambda n: factorial(n - 2),
    "L2-2": lambda n: factorial(n - 3),
    "L2-3": lambda n: (n - 2) * factorial(n - 3),
    "L2-4": lambda n: (n - 2) * factorial(n - 3),
    "L2-5": lambda n: _exact_div(factorial(n - 2), 2),
    "T1a": lambda n: factorial(n - 3),
    "T1b": lambda n: factorial(n - 3),
    "T1c": lambda n: factorial(n - 3),
    "T1d": lambda n: _exact_div(factorial(n - 3), 2),
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
    "T5a": lambda n: _exact_div(factorial(n - 2), 2) - factorial(n - 4),
    "T5b": lambda n: _exact_div(factorial(n - 3), 2),
    "T5c": lambda n: _exact_div(factorial(n - 2), 6),
    "T5d": lambda n: _exact_div(factorial(n - 2), 12),
    "T5e": lambda n: (n - 4) * factorial(n - 3),
    "T5f": lambda n: _exact_div(factorial(n - 3), 2),
    "T5g": lambda n: _exact_div(factorial(n - 3), 2),
    "T5h": lambda n: _exact_div(factorial(n - 2), 12),
}


# ---------------------------------------------------------------------------
# verification against a census


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    expected: int
    actual: int
    ok: bool
    conjectural: bool = False


@dataclass(frozen=True)
class VerifyReport:
    n: int
    checks: Tuple[VerifyCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> Tuple[VerifyCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def _column_sums(matrix, classes: slice) -> Tuple[int, ...]:
    """The column sums of ``matrix[classes]``: zeros if it selects no row."""
    rows = matrix[classes]
    return tuple(sum(row[d] for row in rows) for d in range(len(matrix[0])))


def verify_census(census) -> VerifyReport:
    """Check a census against every applicable registered formula.

    An entry's int is compared with the count over its classes, and a tuple
    with the column sums of ``descent_matrix`` over them, one check
    ``<name>-d<d>`` per d.  Bóna's symmetry follows, one check
    ``symmetry-<t>-d<d>`` for each t = 3..n-3 and d < n-1-d: the column
    sum over classes 0..t at d against the one at n-1-d.  It cannot see a
    move within the middle column, nor two mirrored moves.  The per-row
    first-match counts come last.  The census only needs ``n``,
    ``counts_by_complexity``, ``counts_by_row`` and ``descent_matrix``
    attributes.
    """
    n = census.n
    checks = []

    def add(name, expected, actual, conjectural=False):
        checks.append(VerifyCheck(name, expected, actual, expected == actual,
                                  conjectural))

    for entry in REGISTRY.values():
        if n < entry.floor:
            continue
        expected = entry.evaluate(n)
        if not isinstance(expected, tuple):
            add(entry.name, expected, sum(census.counts_by_complexity[entry.classes]),
                entry.conjectural)
            continue
        actual = _column_sums(census.descent_matrix, entry.classes)
        for d, (want, got) in enumerate(zip(expected, actual, strict=True)):
            add(f"{entry.name}-d{d}", want, got, entry.conjectural)
    for t in range(3, n - 2):
        sums = _column_sums(census.descent_matrix, slice(t + 1))
        for d in range(n // 2):
            add(f"symmetry-{t}-d{d}", sums[n - 1 - d], sums[d])
    for label in builtin_catalog().levels(n):
        add(f"row-{label}", ROW_COUNTS[label](n), census.counts_by_row.get(label, 0))
    return VerifyReport(n, tuple(checks))


# ---------------------------------------------------------------------------
# fitting counts to the canonical binomial shape


def canonical_prefactor(k: int, n: int) -> Fraction:
    """``(k-1)! (n-k-1)! / (2k-2)!`` as an exact fraction."""
    return Fraction(factorial(k - 1) * factorial(n - k - 1), factorial(2 * k - 2))


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting census counts to the canonical binomial shape."""
    k: int
    degree: int
    coeffs: tuple                 # ints when possible, else Fractions
    ns: Tuple[int, ...]           # data points used, ascending
    prefactor_exact: bool         # every count divisible by the prefactor
    consistent: bool              # residuals vanish on every data point
    natural: bool                 # all coefficients are non-negative integers


def _solve_exact(rows, rhs):
    """Gaussian elimination over Fractions; rows is square and invertible."""
    m = [list(map(Fraction, r)) + [Fraction(v)] for r, v in zip(rows, rhs)]
    size = len(m)
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular fit system")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(size):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][size] for r in range(size)]


def fit_binomial(k: int, data: Mapping[int, int],
                 degree: Optional[int] = None) -> FitResult:
    """Fit exact-complexity counts to the canonical binomial shape.

    ``data`` maps word length n to the number of words of complexity n-k;
    every n must be >= 2k.  The fitted degree defaults to k-1, the observed
    pattern for the known rows of the family; surplus data points become
    consistency checks.  Raises ValueError on a negative degree and when
    the data cannot pin down the coefficients.

    >>> fit_binomial(2, {4: 8, 5: 23}).coeffs
    (16, 7)
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if degree is None:
        degree = k - 1
    if degree < 0:
        raise ValueError("degree must be >= 0")
    ns = sorted(data)
    if any(n < 2 * k for n in ns):
        raise ValueError(f"every data point needs n >= {2 * k}")
    if len(ns) < degree + 1:
        raise ValueError(
            f"need at least {degree + 1} data points for degree {degree}, "
            f"got {len(ns)}")
    reduced = {n: Fraction(data[n]) / canonical_prefactor(k, n) for n in ns}
    prefactor_exact = all(v.denominator == 1 for v in reduced.values())
    base = ns[: degree + 1]
    rows = [[comb(n - 2 * k, i) for i in range(degree + 1)] for n in base]
    coeffs = _solve_exact(rows, [reduced[n] for n in base])
    consistent = all(
        sum(a * comb(n - 2 * k, i) for i, a in enumerate(coeffs)) == reduced[n]
        for n in ns)
    natural = all(a.denominator == 1 and a >= 0 for a in coeffs)
    tidy = tuple(int(a) if a.denominator == 1 else a for a in coeffs)
    return FitResult(k, degree, tidy, tuple(ns), prefactor_exact,
                     consistent, natural)
