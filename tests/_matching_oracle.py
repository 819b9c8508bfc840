"""A brute-force pattern matcher: the oracle for the generated positional one.

It enumerates every extent of every star, so it shares nothing with the
compiled probes of ``stacksort.patterns`` but the parsed tokens and the
expansion of alternations.  Exponential on purpose.
"""
from stacksort.patterns import AnyOne, RelValue, Star, expand_alternations, tier


def _distinct(w) -> tuple:
    """w as a tuple; a repeated letter raises ValueError, as it does in the
    positional matcher."""
    w = tuple(w)
    if len(set(w)) != len(w):
        raise ValueError(f"word {w!r} has a repeated letter")
    return w


def _naive_all(ts: tuple, w: tuple, ti: int = 0, pos: int = 0) -> list:
    """Every match assignment of a flat branch, by blunt enumeration of star
    extents; relative letters resolve against len(w)."""
    if ti == len(ts):
        return [{}] if pos == len(w) else []
    t = ts[ti]
    out = []
    if isinstance(t, Star):
        for end in range(pos, len(w) + 1):
            for rest in _naive_all(ts, w, ti + 1, end):
                if t.name:
                    d = {t.name: (pos, end)}
                    d.update(rest)
                    out.append(d)
                else:
                    out.append(rest)
    elif isinstance(t, AnyOne):
        if pos < len(w):
            out = _naive_all(ts, w, ti + 1, pos + 1)
    else:
        v = len(w) - t.offset if isinstance(t, RelValue) else t.value
        if pos < len(w) and 1 <= v <= len(w) and w[pos] == v:
            out = _naive_all(ts, w, ti + 1, pos + 1)
    return out


def matches(tokens, w) -> bool:
    """True iff the word matches the token sequence (any alternation branch)."""
    w = _distinct(w)
    return any(_naive_all(b, w) for b in expand_alternations(tokens))


def row_matches(row, w) -> bool:
    """True iff the word matches the row, honoring minus/nonempty clauses."""
    w = _distinct(w)
    for b in expand_alternations(row.tokens):
        for caps in _naive_all(b, w):
            spans = [caps.get(nm, (0, 0)) for nm in row.nonempty]
            if not spans or any(lo < hi for lo, hi in spans):
                return not (row.exclusion is not None and matches(row.exclusion, w))
    return False


def classify(catalog, w):
    """Label of the catalog's first row valid at the word's length that the
    word matches, or None."""
    for row in catalog.rows:
        if len(w) >= tier(row.label)[1] and row_matches(row, w):
            return row.label
    return None
