"""Exact linear algebra on small matrices.

Rank and determinant work over the rationals goes through fraction-free
Bareiss elimination on integer-scaled rows, which keeps intermediate entries
as single big ints instead of rationals with growing denominators.  The
canonical reduced row echelon form is incremental Gauss-Jordan over the field
on sparse rows ({column: value} for the nonzeros), so its cost is set by the
nonzeros rather than by the column count: the linear parts it reduces are
often binomial rows in rings of hundreds of indeterminates.  The RREF of a
row space is unique, so the result does not depend on the order in which
rows are taken.
"""

from __future__ import annotations

from math import gcd

from .field import QQ


class SingularMatrixError(ValueError):
    pass


def rref(rows, field=QQ):
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column tuple).  Pivot columns are
    the leftmost possible; pivot entries are 1 and their columns are cleared.
    Rows come in and go out dense; the elimination keeps them sparse.
    """
    if not rows:
        return [], ()
    ncols = len(rows[0])
    of = field.of
    reduced = {}    # pivot column -> its row, 1 at the pivot, 0 at the others
    for row in rows:
        v = {}
        for c, x in enumerate(row):
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
    zero = field.zero()
    out = []
    for p in pivots:
        dense = [zero] * ncols
        for c, x in reduced[p].items():
            dense[c] = x
        out.append(dense)
    return out, pivots


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
    """Matrix rank; Bareiss over QQ, generic elimination otherwise."""
    if not rows:
        return 0
    if field == QQ:
        return bareiss_rank_int(int_scaled_rows([[field.of(x) for x in r] for r in rows]))
    return len(rref(rows, field)[0])


def det(rows, field=QQ):
    """Determinant of a square matrix over the field."""
    n = len(rows)
    if n == 0:
        return field.one()
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    if field == QQ:
        m = [[field.of(x) for x in r] for r in rows]
        scale = field.one()
        ints = []
        for row in m:
            den = 1
            for x in row:
                d = x.denominator
                den = den // gcd(den, d) * d
            scale = scale * den
            ints.append([int(x.numerator) * (den // int(x.denominator)) for x in row])
        return field.of(bareiss_det_int(ints)) / scale
    # generic: Gaussian elimination tracking the product of pivots
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

    Computed by Gauss-Jordan on the block matrix [sub | full].
    """
    s = len(sub)
    if any(len(r) != s for r in sub):
        raise ValueError("submatrix is not square")
    m = [
        [field.of(x) for x in sub_row] + [field.of(x) for x in full_row]
        for sub_row, full_row in zip(sub, full)
    ]
    width = len(m[0])
    for c in range(s):
        pr = None
        for i in range(c, s):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            raise SingularMatrixError("singular column submatrix")
        m[c], m[pr] = m[pr], m[c]
        piv = m[c][c]
        if piv != 1:
            m[c] = [x / piv for x in m[c]]
        for i in range(s):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [row[s:width] for row in m]


def int_matrix_rank(rows):
    """Rank of a matrix given as lists of ints (no scaling step)."""
    return bareiss_rank_int(rows)
