"""Term orderings defined by integer weight matrices.

Every ordering is a k x n integer matrix; s > t iff the first row w with
w.s != w.t has w.s > w.t.  Named orderings are just constructors for
specific matrices, so there is a single comparison code path and any
ordering serializes as its matrix.  The named constructors also install an
O(n) key function that produces the same tuple the matrix rows would.
"""

from __future__ import annotations

from operator import neg

from .linalg import int_matrix_rank


class TermOrdering:
    """A term ordering given by a full-rank integer weight matrix."""

    __slots__ = ("rows", "n", "kind", "params", "_key")

    def __init__(self, rows, kind="custom", params=None, _key=None, validate=True):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if not rows:
            raise ValueError("empty weight matrix")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("ragged weight matrix")
        self.rows = rows
        self.n = n
        self.kind = kind
        self.params = params or {}
        self._key = _key or (lambda t: tuple(
            sum(w * e for w, e in zip(row, t)) for row in rows))
        if validate:
            self._validate()

    def _validate(self):
        if int_matrix_rank([list(r) for r in self.rows]) != self.n:
            raise ValueError("weight matrix must have rank n")
        for c in range(self.n):
            for row in self.rows:
                if row[c]:
                    if row[c] < 0:
                        raise ValueError(
                            "matrix does not define a term ordering: first "
                            f"nonzero weight of column {c} is negative")
                    break

    def key(self, term):
        """Sort key; key(s) > key(t) iff s > t."""
        return self._key(term)

    def describe(self):
        d = {"kind": self.kind}
        d.update(self.params)
        if self.kind == "custom":
            d["matrix"] = [list(r) for r in self.rows]
        return d

    def __eq__(self, other):
        return isinstance(other, TermOrdering) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        if self.kind != "custom":
            return f"TermOrdering({self.kind}, n={self.n})"
        return f"TermOrdering(custom, {self.rows})"


def degrevlex_key(t):
    """The degrevlex sort key of a term, the same for every arity: total
    degree, then the exponents from the last indeterminate to the second,
    negated.  It is the tuple the rows of degrevlex(len(t)) produce."""
    return (sum(t),) + tuple(map(neg, t[:0:-1]))


def degrevlex(n):
    """Degree-reverse-lexicographic ordering on n indeterminates."""
    rows = [[1] * n]
    for i in range(n - 1, 0, -1):
        rows.append([-1 if j == i else 0 for j in range(n)])
    return TermOrdering(rows, kind="degrevlex", _key=degrevlex_key,
                        validate=False)


def lex(n):
    """Lexicographic ordering (x_1 > x_2 > ...)."""
    rows = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    return TermOrdering(rows, kind="lex", _key=lambda t: tuple(t), validate=False)


def elimination(zvars, n, labels=None):
    """Elimination ordering for the indeterminates in zvars.

    Any term involving a zvars indeterminate exceeds every term in the
    remaining ones.  The zvars block is compared lexicographically (so each
    single eliminated indeterminate beats any tail the separating shape
    allows), the remaining block degrevlex.  Eliminating everything leaves
    nothing to separate, and the constructor returns plain degrevlex.
    """
    zt = tuple(zvars)
    z = sorted(set(zt))
    if not z:
        raise ValueError("empty elimination block")
    if z[0] < 0 or z[-1] >= n:
        raise ValueError("elimination indices out of range")
    if len(z) != len(zt):
        raise ValueError("duplicate indeterminates in elimination block")
    params = {"z": list(z) if labels is None else [labels[i] for i in z]}
    if len(z) == n:
        drl = degrevlex(n)
        return TermOrdering(drl.rows, kind="elimination", params=params,
                            _key=drl.key, validate=False)
    zset = set(z)
    y = [i for i in range(n) if i not in zset]

    rows = [[1 if j == i else 0 for j in range(n)] for i in z]
    yset = set(y)
    rows.append([1 if j in yset else 0 for j in range(n)])
    for i in reversed(y[1:]):
        rows.append([-1 if j == i else 0 for j in range(n)])

    y_tail = list(reversed(y[1:]))

    def key(t):
        parts = [t[i] for i in z]
        parts.append(sum(t[i] for i in y))
        parts.extend(-t[i] for i in y_tail)
        return tuple(parts)

    return TermOrdering(rows, kind="elimination", params=params, _key=key,
                        validate=False)


def elimination_for(ring, zvars):
    """Elimination ordering for a ring, zvars given by label or index."""
    return elimination(ring.indices(zvars), ring.n, labels=ring.labels)
