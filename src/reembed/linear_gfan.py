"""Groebner fans of linear ideals.

For an ideal generated by independent linear forms with coefficient matrix A,
the marked reduced Groebner bases correspond one-to-one with the non-vanishing
maximal minors of A, i.e. with the bases of the linear matroid on the columns.
The basis with marker columns B is the tableau T_B = A_B^(-1) A.  The fan is
enumerated by one walk over the basis-exchange graph from the RREF seed:
B - b_r + j is a basis exactly when T_B[r][j] != 0, and its tableau is T_B
pivoted at (r, j), so no determinant and no per-cell solve is needed.
"""

from __future__ import annotations

import warnings

from . import linalg
from .poly import Poly, linear_rows
from .ring import tvar


class CoeffMatrix:
    """Coefficient matrix of a tuple of linear forms (rows = forms)."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = [[ring.field.of(x) for x in row] for row in rows]
        for row in self.rows:
            if len(row) != ring.n:
                raise ValueError("row width does not match the ring arity")

    @classmethod
    def from_forms(cls, forms, ring=None):
        forms = list(forms)
        ring, rows = linear_rows(forms, ring)
        if len(rows) != len(forms):
            raise ValueError("not a linear form: 0")
        return cls(ring, [[row.get(c, 0) for c in range(ring.n)]
                          for row in rows])

    @property
    def nrows(self):
        return len(self.rows)

    def form(self, i):
        return Poly(self.ring, {tvar(self.ring.n, j): c
                                for j, c in enumerate(self.rows[i]) if c})

    def column_submatrix(self, idx):
        return [[row[j] for j in idx] for row in self.rows]

    def row_rank(self):
        return linalg.rank(self.rows, self.ring.field)


class MarkedReducedGB:
    """A marked reduced Groebner basis of a linear ideal.

    Pairs (marker index, linear form), sorted by marker; each form has
    coefficient 1 at its marker and the submatrix at the marker columns of
    the whole system is the identity.
    """

    __slots__ = ("ring", "pairs")

    def __init__(self, ring, pairs):
        pairs = tuple(sorted(pairs, key=lambda mp: mp[0]))
        markers = [m for m, _ in pairs]
        if len(set(markers)) != len(markers):
            raise ValueError("duplicate markers")
        self.ring = ring
        self.pairs = pairs

    @property
    def markers(self):
        return tuple(m for m, _ in self.pairs)

    @property
    def marker_set(self):
        return frozenset(m for m, _ in self.pairs)

    @property
    def forms(self):
        return [f for _, f in self.pairs]

    def pair_strings(self):
        """Render each pair with its marker leading, mirroring the usual
        marked-basis notation.  The marker's coefficient is 1, so its label
        is followed by the rest of the form in degrevlex order, the default
        of Poly.to_string."""
        out = []
        for m, f in self.pairs:
            label = self.ring.labels[m]
            rest = (f - Poly.variable(self.ring, m)).to_string()
            if rest == "0":
                text = label
            elif rest.startswith("-"):
                text = f"{label} - {rest[1:]}"
            else:
                text = f"{label} + {rest}"
            out.append((label, text))
        return out

    def __eq__(self, other):
        return (isinstance(other, MarkedReducedGB)
                and self.ring == other.ring and self.pairs == other.pairs)

    def __hash__(self):
        return hash((self.ring, tuple((m, tuple(sorted(f.coeffs.items())))
                                      for m, f in self.pairs)))

    def __str__(self):
        inner = ", ".join(f"({m}, {s})" for m, s in self.pair_strings())
        return "{" + inner + "}"

    def __repr__(self):
        return f"MarkedReducedGB({self})"


def column_submatrix_rank_ok(A, idx):
    """True iff the selected columns of A are linearly independent."""
    idx = tuple(idx)
    if any(not 0 <= j < A.ring.n for j in idx):
        raise ValueError("column index out of range")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError("column indices must be strictly increasing")
    if len(idx) > A.nrows:
        return False
    sub = A.column_submatrix(idx)
    return linalg.rank(sub, A.ring.field) == len(idx)


def _marked_gb(ring, markers, rows):
    """The marked basis whose form with marker markers[r] has coefficients
    rows[r]."""
    pairs = [(m, Poly(ring, {tvar(ring.n, j): c
                             for j, c in enumerate(row) if c}))
             for m, row in zip(markers, rows)]
    return MarkedReducedGB(ring, pairs)


def reduced_gb_for_basis(A, idx):
    """The marked reduced GB whose markers are the columns idx.

    Requires #idx == #rows and the idx-submatrix invertible; the result is
    (A_idx)^(-1) A read off as marked linear forms.
    """
    idx = tuple(idx)
    if len(idx) != A.nrows:
        raise ValueError("need exactly one column per row")
    sub = A.column_submatrix(idx)
    reduced = linalg.solve_left_inverse_times(sub, A.rows, A.ring.field)
    return _marked_gb(A.ring, idx, reduced)


def _pivot(markers, rows, r, j):
    """The tableau of markers - markers[r] + j: the tableau rows of markers
    pivoted at (r, j), reordered by increasing marker."""
    piv = rows[r][j]
    prow = [x / piv for x in rows[r]]
    out = []
    for i, (m, row) in enumerate(zip(markers, rows)):
        f = row[j]
        if i == r:
            out.append((j, prow))
        elif f:
            out.append((m, [a - f * b for a, b in zip(row, prow)]))
        else:
            out.append((m, row))
    out.sort(key=lambda mr: mr[0])
    return [row for _, row in out]


def _tableaux(ring, rows):
    """Every basis of the column matroid of the span of the sparse rows,
    mapped to its tableau.

    Keys are increasing column tuples B; the value holds the dense rows of
    A_B^(-1) A for A the RREF of the rows, row r carrying the identity at
    column B[r].  Dependent rows are not an error here: their RREF is a
    basis of their span, so a key is as long as the rank, and the callers
    compare that with the number of rows.  The walk starts at the RREF (the
    tableau of the leftmost basis) and reaches every basis, because the
    basis-exchange graph is connected.
    """
    seed_rows, seed = linalg.rref(rows, ring.field)
    zero = ring.field.zero()
    cells = {seed: [[row.get(c, zero) for c in range(ring.n)]
                    for row in seed_rows]}
    stack = [seed]
    while stack:
        markers = stack.pop()
        rows = cells[markers]
        for r, row in enumerate(rows):
            rest = markers[:r] + markers[r + 1:]
            for j, x in enumerate(row):
                if not x or j == markers[r]:
                    continue
                key = tuple(sorted(rest + (j,)))
                if key not in cells:
                    cells[key] = _pivot(markers, rows, r, j)
                    stack.append(key)
    return cells


def matroid_bases(A):
    """All column index tuples carrying a non-vanishing maximal minor, in
    lexicographic order."""
    cells = _tableaux(A.ring, [dict(enumerate(row)) for row in A.rows])
    if len(next(iter(cells))) != A.nrows:
        raise ValueError("matrix rows are linearly dependent")
    return sorted(cells)


def _fan_cells(forms, ring):
    """(ring, tableaux) of the span of the forms, reduced once; dependent
    forms warn, and the walk starts from the basis their RREF gives."""
    ring, rows = linear_rows(list(forms), ring)
    cells = _tableaux(ring, rows)
    if len(next(iter(cells))) != len(rows):
        warnings.warn("linear forms are dependent; auto-reducing to a basis",
                      stacklevel=3)
    return ring, cells


def gfan_linear(forms, ring=None):
    """The Groebner fan of the linear ideal spanned by the forms.

    One marked reduced GB per non-vanishing maximal minor, listed in
    lexicographic order of the marker index tuples.  The zero ideal has the
    one-element fan containing the empty basis.
    """
    ring, cells = _fan_cells(forms, ring)
    return [_marked_gb(ring, idx, cells[idx]) for idx in sorted(cells)]


def ltgfan_linear(forms, ring=None):
    """Leading-term fan: the marker sets of gfan_linear, same order."""
    _, cells = _fan_cells(forms, ring)
    return [frozenset(idx) for idx in sorted(cells)]
