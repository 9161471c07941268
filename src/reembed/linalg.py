"""Exact linear algebra on small matrices.

One elimination (`rref`), plus `det`'s loop.  The canonical reduced row
echelon form is incremental Gauss-Jordan over the field on sparse rows
({column: value} for the nonzeros), which it takes and returns, so its cost
is set by the nonzeros rather than by the column count: the linear parts it
reduces are often binomial rows in rings of hundreds of indeterminates.  The
RREF of a row space is unique, so the result does not depend on the order in
which rows are taken.  Rank is its pivot count and a left solve its
right-hand block; the determinant is Gaussian elimination tracking the
product of the pivots, over any field.
"""

from __future__ import annotations

from math import gcd

from .field import QQ


class SingularMatrixError(ValueError):
    pass


def rref(rows, field=QQ):
    """Reduced row echelon form of sparse rows {column: value}.

    Entries are coerced with field.of and zeros dropped.  Returns (reduced
    nonzero rows, pivot column tuple), the rows sparse and in pivot order.
    Pivot columns are the leftmost possible; pivot entries are 1 and their
    columns are cleared.
    """
    of = field.of
    reduced = {}    # pivot column -> its row, 1 at the pivot, 0 at the others
    for row in rows:
        v = {}
        for c, x in row.items():
            if x:
                x = of(x)    # a string such as "0" is truthy until coerced
                if x:
                    v[c] = x
        # a reduced row is zero at every other pivot column, so subtracting
        # it clears its own pivot column of v and touches no other pivot
        for p in [c for c in v if c in reduced]:
            _sub_multiple(v, v[p], reduced[p])
        if not v:
            continue
        p = min(v)
        pv = v[p]
        if pv != 1:
            v = {c: x / pv for c, x in v.items()}
        for w in reduced.values():
            if p in w:
                _sub_multiple(w, w[p], v)
        reduced[p] = v
    pivots = tuple(sorted(reduced))
    return [reduced[p] for p in pivots], pivots


def _sub_multiple(v, f, w):
    """v -= f * w on sparse rows, dropping the entries that cancel."""
    for c, x in w.items():
        y = v.get(c)
        if y is None:
            v[c] = -(f * x)
        else:
            y = y - f * x
            if y:
                v[c] = y
            else:
                del v[c]


# The integer routines (int_scaled_rows, the two Bareiss eliminations,
# int_matrix_rank) have no caller here: perfbench/spans.py binds them.
def int_scaled_rows(rows):
    """Scale each rational row by a positive integer so entries are ints.

    Row scaling preserves rank and which minors vanish.
    """
    out = []
    for row in rows:
        den = 1
        for x in row:
            d = x.denominator
            den = den // gcd(den, d) * d
        out.append([int(x.numerator) * (den // int(x.denominator)) for x in row])
    return out


def bareiss_rank_int(rows):
    """Rank of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            row_i = m[i]
            row_r = m[r]
            for j in range(c + 1, ncols):
                row_i[j] = (piv * row_i[j] - mic * row_r[j]) // prev
            row_i[c] = 0
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


def bareiss_det_int(rows):
    """Determinant of a square integer matrix, exactly."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            pr = None
            for i in range(k + 1, n):
                if m[i][k]:
                    pr = i
                    break
            if pr is None:
                return 0
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        piv = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (piv * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = piv
    return sign * m[n - 1][n - 1]


def rank(rows, field=QQ):
    """Matrix rank: the pivot count of the RREF over the field."""
    return len(rref([dict(enumerate(r)) for r in rows], field)[1])


def det(rows, field=QQ):
    """Determinant of a square matrix over the field: Gaussian elimination
    tracking the product of the pivots."""
    n = len(rows)
    if n == 0:
        return field.one()
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    m = [[field.of(x) for x in r] for r in rows]
    result = field.one()
    for c in range(n):
        pr = None
        for i in range(c, n):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            return field.zero()
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            result = -result
        piv = m[c][c]
        result = result * piv
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / piv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result


def solve_left_inverse_times(sub, full, field=QQ):
    """Return sub^(-1) * full for a square invertible sub.

    Read off the RREF of the block rows [sub | full]: sub is invertible
    exactly when the first s pivots are the columns 0..s-1, and the
    right-hand block of those rows is then sub^(-1) * full.
    """
    s = len(sub)
    if any(len(r) != s for r in sub):
        raise ValueError("submatrix is not square")
    reduced, pivots = rref([dict(enumerate([*sub_row, *full_row]))
                            for sub_row, full_row in zip(sub, full)], field)
    if pivots[:s] != tuple(range(s)):
        raise SingularMatrixError("singular column submatrix")
    width = len(full[0]) if full else 0
    zero = field.zero()
    return [[row.get(s + j, zero) for j in range(width)]
            for row in reduced[:s]]


def int_matrix_rank(rows):
    """Rank of a matrix given as lists of ints (no scaling step)."""
    return bareiss_rank_int(rows)
