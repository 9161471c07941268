"""Cotangent equivalence classes of indeterminates modulo a linear part.

Two indeterminates are equivalent when their residues in the degree-one
quotient span the same line; residue zero is the trivial class, singleton
classes are basic, classes of size >= 2 are proper.  The residues come from
one pass over the sparse reduced rows of the linear part: a free column
is its own residue, a pivot's residue is its row without the pivot entry.
Scaled so its first entry is 1, a residue names its line, and equal names
make one class.  For binomial input the leading-term fan has the closed
form: the trivial class together with one deletion from every proper class.
"""

from __future__ import annotations

from itertools import product

from . import linalg
from .poly import linear_rows
from .ring import tvar


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
        """The leading-term fan's size in closed form; for binomial linear
        parts only."""
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


def cotangent_classes(lin_basis, ring=None):
    """Classify the ring's indeterminates modulo the span of linear forms."""
    ring, rows = linear_rows(list(lin_basis), ring)
    return cotangent_classes_of_rows(rows, ring)


def cotangent_classes_of_rows(rows, ring):
    """Classify the ring's indeterminates modulo the span of sparse rows
    {indeterminate index: coefficient}."""
    rows, pivots = linalg.rref(rows, ring.field)
    # residue of x_i in the free coordinates: a free column is itself, a
    # pivot is its row without the pivot entry (the sign does not matter)
    one = ring.field.one()
    residues = {c: {c: one} for c in range(ring.n)}
    for p, row in zip(pivots, rows):
        residues[p] = {c: x for c, x in row.items() if c != p}
    trivial = set()
    lines = {}
    for i, res in residues.items():
        if not res:
            trivial.add(i)
            continue
        lead = res[min(res)]
        key = tuple((c, res[c] / lead) for c in sorted(res))
        lines.setdefault(key, set()).add(i)
    basic = set()
    proper = []
    for members in lines.values():
        if len(members) == 1:
            basic |= members
        else:
            proper.append(members)
    return CotangentClasses(ring, trivial, basic, proper)


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
