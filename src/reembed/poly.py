"""Sparse multivariate polynomials with exact coefficients.

A Poly is a finite map from exponent tuples to nonzero field elements.
Instances are treated as immutable: every operation returns a new Poly and
never mutates its operands, so one value can be shared by many callers.
"""

from __future__ import annotations

from . import linalg
from .ordering import degrevlex_key
from .ring import tconst, tdeg, term_str, tmul, tvar


class Poly:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs=None):
        self.ring = ring
        clean = {}
        if coeffs:
            of = ring.field.of
            n = ring.n
            for t, c in coeffs.items():
                if len(t) != n:
                    raise ValueError("term arity does not match the ring")
                c = of(c)
                if c:
                    clean[t] = c
        self.coeffs = clean

    # ---------- constructors ----------

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def constant(cls, ring, c):
        return cls(ring, {tconst(ring.n): c})

    @classmethod
    def variable(cls, ring, i):
        return cls(ring, {tvar(ring.n, i): 1})

    # ---------- basic queries ----------

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __len__(self):
        return len(self.coeffs)

    def total_degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(tdeg(t) for t in self.coeffs)

    def constant_coefficient(self):
        return self.coeffs.get(tconst(self.ring.n), self.ring.field.zero())

    # ---------- arithmetic ----------

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        if not isinstance(other, Poly):
            return self + Poly.constant(self.ring, other)
        self._check(other)
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            s = out.get(t)
            if s is None:
                out[t] = c
            else:
                s = s + c
                if s:
                    out[t] = s
                else:
                    del out[t]
        p = Poly.__new__(Poly)
        p.ring = self.ring
        p.coeffs = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = Poly.__new__(Poly)
        p.ring = self.ring
        p.coeffs = {t: -c for t, c in self.coeffs.items()}
        return p

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return self - Poly.constant(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = self.ring.field.of(other)
            if not c:
                return Poly.zero(self.ring)
            p = Poly.__new__(Poly)
            p.ring = self.ring
            p.coeffs = {t: a * c for t, a in self.coeffs.items()}
            return p
        self._check(other)
        out = {}
        for s, a in self.coeffs.items():
            for t, b in other.coeffs.items():
                u = tmul(s, t)
                v = out.get(u)
                if v is None:
                    out[u] = a * b
                else:
                    v = v + a * b
                    if v:
                        out[u] = v
                    else:
                        del out[u]
        p = Poly.__new__(Poly)
        p.ring = self.ring
        p.coeffs = out
        return p

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly.constant(self.ring, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base_needed = e >> 1
            if base_needed:
                base = base * base
            e = base_needed
        return result

    def mul_term(self, term, coeff=1):
        """Multiply by coeff * x^term."""
        c = self.ring.field.of(coeff)
        if not c:
            return Poly.zero(self.ring)
        p = Poly.__new__(Poly)
        p.ring = self.ring
        p.coeffs = {tmul(t, term): a * c for t, a in self.coeffs.items()}
        return p

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if other == 0:
                return not self.coeffs
            return self == Poly.constant(self.ring, other)
        return self.ring == other.ring and self.coeffs == other.coeffs

    # ---------- structure ----------

    def linear_part(self):
        """Degree-1 homogeneous component; defined for constant-term-free input."""
        if self.constant_coefficient():
            raise ValueError("polynomial has a nonzero constant term")
        return Poly(self.ring,
                    {t: c for t, c in self.coeffs.items() if tdeg(t) == 1})

    def is_linear_form(self):
        return bool(self.coeffs) and all(tdeg(t) == 1 for t in self.coeffs)

    def leading_term(self, ordering):
        """The ordering-maximal (term, coefficient) of a nonzero polynomial."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading term")
        t = max(self.coeffs, key=ordering.key)
        return t, self.coeffs[t]

    def monic(self, ordering):
        _, c = self.leading_term(ordering)
        if c == 1:
            return self
        return self * (self.ring.field.one() / c)

    def substitute(self, images, max_terms=None):
        """Evaluate with the indeterminates at index i replaced by images[i].

        Unmapped indeterminates stay themselves.  max_terms caps the
        intermediate support size and raises RuntimeError when exceeded.
        """
        ring = self.ring
        base = {i: Poly.variable(ring, i) for i in range(ring.n)}
        for i, img in images.items():
            if img.ring != ring:
                raise ValueError("substitution image in a different ring")
            base[ring.index(i)] = img
        powers = {}

        def power(i, e):
            got = powers.get((i, e))
            if got is None:
                got = base[i] ** e
                powers[(i, e)] = got
            return got

        total = Poly.zero(ring)
        for t, c in self.coeffs.items():
            part = Poly.constant(ring, c)
            for i, e in enumerate(t):
                if e:
                    part = part * power(i, e)
                    if max_terms is not None and len(part) > max_terms:
                        raise RuntimeError("substitution support exceeded budget")
            total = total + part
            if max_terms is not None and len(total) > max_terms:
                raise RuntimeError("substitution support exceeded budget")
        return total

    # ---------- printing ----------

    def to_string(self, ordering=None):
        key = ordering.key if ordering else degrevlex_key
        coeffs, ring = self.coeffs, self.ring
        return join_terms((coeffs[t], term_str(t, ring) if tdeg(t) else "")
                          for t in sorted(coeffs, key=key, reverse=True))

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"Poly({self.to_string()})"


def join_terms(terms):
    """A sum as text, from (coefficient, monomial text) pairs in print order.

    ``""`` stands for the monomial 1; the empty sum is ``"0"``.  Every
    polynomial the program prints gets its signs and coefficients here:
    ``-2x*y + z - 1/2``.
    """
    parts = []
    for c, mono in terms:
        cs = str(c)
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        if not mono:
            body = cs
        elif cs == "1":
            body = mono
        else:
            body = cs + mono
        if parts:
            parts.append(f"- {body}" if neg else f"+ {body}")
        else:
            parts.append(f"-{body}" if neg else body)
    return " ".join(parts) if parts else "0"


def linear_row(form):
    """The sparse coefficient row {index: coefficient} of a linear form."""
    return {t.index(1): c for t, c in form.coeffs.items()}


def linear_rows(forms, ring=None):
    """(ring, sparse rows of the nonzero forms) for linear forms of one ring,
    by default the first form's."""
    if ring is None:
        if not forms:
            raise ValueError("cannot infer the ring from no forms")
        ring = forms[0].ring
    rows = []
    for f in forms:
        if f.ring != ring:
            raise ValueError("forms from different rings")
        if not f:
            continue
        if not f.is_linear_form():
            raise ValueError(f"not a linear form: {f}")
        rows.append(linear_row(f))
    return ring, rows


def linear_part_of_ideal(gens):
    """Canonical basis of the span of the generators' linear parts.

    Returns the reduced-row-echelon basis (pivots leftmost in the ring's
    indeterminate order), which is invariant under changing the generating
    set as long as the linear span is unchanged.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("empty generating set")
    ring = gens[0].ring
    rows = []
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators from different rings")
        lin = g.linear_part()
        if lin:
            rows.append(linear_row(lin))
    reduced, _ = linalg.rref(rows, ring.field)
    return [Poly(ring, {tvar(ring.n, i): c for i, c in sorted(row.items())})
            for row in reduced]
