"""Cotangent equivalence classes of indeterminates modulo a linear part.

Two indeterminates are equivalent when their residues in the degree-one
quotient span the same line; residue zero is the trivial class, singleton
classes are basic, classes of size >= 2 are proper.  For binomial linear
parts the classes come from a union-find over the reduced basis; a general
linear part falls back to comparing normalized residue vectors.  For
binomial input the leading-term fan has the closed form: the trivial class
together with one deletion from every proper class.
"""

from __future__ import annotations

from itertools import product

from . import linalg
from .poly import linear_row
from .ring import tvar


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            # smaller index wins so representatives are canonical
            if ri > rj:
                ri, rj = rj, ri
            self.parent[rj] = ri


class CotangentClasses:
    """Partition of the indeterminates: trivial, basic, proper classes."""

    __slots__ = ("ring", "trivial", "basic", "proper")

    def __init__(self, ring, trivial, basic, proper):
        trivial = frozenset(trivial)
        basic = frozenset(basic)
        proper = tuple(sorted((frozenset(e) for e in proper), key=min))
        covered = set(trivial) | set(basic)
        for e in proper:
            if len(e) < 2:
                raise ValueError("proper classes have at least two elements")
            if covered & e:
                raise ValueError("classes are not disjoint")
            covered |= e
        if covered != set(range(ring.n)):
            raise ValueError("classes do not partition the indeterminates")
        self.ring = ring
        self.trivial = trivial
        self.basic = basic
        self.proper = proper

    def labels(self, indices):
        return sorted(self.ring.labels[i] for i in indices)

    def fan_size(self):
        size = 1
        for e in self.proper:
            size *= len(e)
        return size

    def __eq__(self, other):
        return (isinstance(other, CotangentClasses)
                and self.ring == other.ring
                and self.trivial == other.trivial
                and self.basic == other.basic
                and self.proper == other.proper)

    def __repr__(self):
        props = ", ".join("{" + ", ".join(self.labels(e)) + "}"
                          for e in self.proper)
        return (f"CotangentClasses(trivial={self.labels(self.trivial)}, "
                f"basic={self.labels(self.basic)}, proper=[{props}])")


def _reduced_rows(lin_basis, ring):
    rows = []
    for f in lin_basis:
        if f.ring != ring:
            raise ValueError("forms from different rings")
        if not f.is_linear_form() and not f.is_zero():
            raise ValueError(f"not a linear form: {f}")
        if f:
            rows.append(linear_row(f))
    if not rows:
        return [], ()
    return linalg.rref(rows, ring.field)


def cotangent_classes(lin_basis, ring=None):
    """Classify the ring's indeterminates modulo the span of linear forms."""
    lin_basis = list(lin_basis)
    if ring is None:
        if not lin_basis:
            raise ValueError("cannot infer the ring from an empty basis")
        ring = lin_basis[0].ring
    rows, pivots = _reduced_rows(lin_basis, ring)
    n = ring.n

    binomial = all(sum(1 for x in row if x) <= 2 for row in rows)
    if binomial:
        trivial = set()
        uf = UnionFind(n)
        touched = set()
        for row in rows:
            support = [i for i, x in enumerate(row) if x]
            touched.update(support)
            if len(support) == 1:
                trivial.add(support[0])
            else:
                uf.union(*support)
        # indices united with a trivial one are trivial too (their residue
        # lines collapse); with a reduced basis this does not occur, but
        # keep the classification honest either way
        groups = {}
        for i in touched:
            groups.setdefault(uf.find(i), set()).add(i)
        basic = set(range(n)) - touched
        proper = []
        for members in groups.values():
            if members & trivial:
                trivial |= members
            elif len(members) == 1:
                basic |= members
            else:
                proper.append(members)
        return CotangentClasses(ring, trivial, basic, proper)

    # general path: residue of x_i as a vector over the non-pivot columns
    free = [c for c in range(n) if c not in set(pivots)]
    free_pos = {c: k for k, c in enumerate(free)}
    zero = ring.field.zero()

    def residue(i):
        if i in free_pos:
            v = [zero] * len(free)
            v[free_pos[i]] = ring.field.one()
            return tuple(v)
        r = pivots.index(i)
        return tuple(-rows[r][c] for c in free)

    def normalize(v):
        for x in v:
            if x:
                return tuple(y / x for y in v)
        return None

    trivial = set()
    lines = {}
    for i in range(n):
        key = normalize(residue(i))
        if key is None:
            trivial.add(i)
        else:
            lines.setdefault(key, set()).add(i)
    basic = set()
    proper = []
    for members in lines.values():
        if len(members) == 1:
            basic |= members
        else:
            proper.append(members)
    return CotangentClasses(ring, trivial, basic, proper)


def support_union(lin_basis, ring=None):
    """Union of the supports of a minimal generating set of the span.

    Independent of which minimal generating set is chosen; the complement
    is exactly the set of basic indeterminates.
    """
    lin_basis = list(lin_basis)
    if ring is None:
        if not lin_basis:
            raise ValueError("cannot infer the ring from an empty basis")
        ring = lin_basis[0].ring
    rows, _ = _reduced_rows(lin_basis, ring)
    out = set()
    for row in rows:
        out.update(i for i, x in enumerate(row) if x)
    return frozenset(out)


def sigma_smallest(ring, members, ordering):
    """The ordering-smallest indeterminate of a class."""
    return min(members, key=lambda i: ordering.key(tvar(ring.n, i)))


def sigma_leading_S(classes, ordering):
    """Minimal indeterminate generators of the leading term ideal.

    The trivial class plus every proper class with its ordering-smallest
    member removed.
    """
    out = set(classes.trivial)
    for e in classes.proper:
        drop = sigma_smallest(classes.ring, e, ordering)
        out |= e - {drop}
    return frozenset(out)


def enumerate_ltgfan_binomial(classes):
    """All leading-term sets, in closed form, for a binomial linear part.

    Every set is the trivial class joined with each proper class minus one
    element; enumeration order is by class index, then by deleted-member
    index inside the class.
    """
    choices = []
    for e in classes.proper:
        members = sorted(e)
        choices.append([frozenset(m for m in members if m != drop)
                        for drop in members])
    out = []
    for picks in product(*choices):
        s = set(classes.trivial)
        for part in picks:
            s |= part
        out.append(frozenset(s))
    return out
