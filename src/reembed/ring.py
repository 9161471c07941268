"""Polynomial rings (named indeterminate tuples) and exponent-tuple terms.

A term is a plain tuple of non-negative ints, one exponent per indeterminate
in the ring's declared order.  Keeping terms as tuples makes them hashable
dict keys and keeps all term arithmetic allocation-cheap.
"""

from __future__ import annotations

import re

from .field import QQ

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Ring:
    """An ordered tuple of named indeterminates over an exact field."""

    __slots__ = ("labels", "field", "n", "_index")

    def __init__(self, labels, field=QQ):
        labels = tuple(labels)
        if not labels:
            raise ValueError("a ring needs at least one indeterminate")
        for lab in labels:
            if not _LABEL_RE.match(lab):
                raise ValueError(f"invalid indeterminate name {lab!r}")
        if len(set(labels)) != len(labels):
            raise ValueError("indeterminate names must be unique")
        self.labels = labels
        self.field = field
        self.n = len(labels)
        self._index = {lab: i for i, lab in enumerate(labels)}

    def index(self, name):
        """Position of an indeterminate, given by label or position."""
        if isinstance(name, int):
            if not 0 <= name < self.n:
                raise ValueError(f"indeterminate index {name} out of range")
            return name
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown indeterminate {name!r}") from None

    def indices(self, names):
        idx = tuple(self.index(v) for v in names)
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate indeterminates")
        return idx

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.labels == other.labels
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.labels, self.field))

    def __repr__(self):
        return f"Ring({', '.join(self.labels)}; {self.field!r})"


# ---------- term helpers ----------

def tconst(n):
    """The term 1 in n indeterminates."""
    return (0,) * n


def tvar(n, i):
    """The term x_i."""
    return (0,) * i + (1,) + (0,) * (n - i - 1)


def tmul(s, t):
    return tuple([a + b for a, b in zip(s, t)])


def tdivides(s, t):
    """True iff s divides t."""
    return all(a <= b for a, b in zip(s, t))


def tlcm(s, t):
    return tuple(max(a, b) for a, b in zip(s, t))


def tdeg(t):
    return sum(t)


def term_str(t, ring):
    """Render a term like x^2*y; the empty product renders as 1."""
    parts = []
    for i, e in enumerate(t):
        if e == 1:
            parts.append(ring.labels[i])
        elif e > 1:
            parts.append(f"{ring.labels[i]}^{e}")
    return "*".join(parts) if parts else "1"
