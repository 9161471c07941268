"""Search for separating re-embeddings and certify the results.

Two candidate generators feed one verification loop: the fan route collects
s-subsets of the marker sets of the linear part's Groebner fan; the
cotangent route enumerates candidates class by class (closed form for
binomial linear parts).  Every candidate is verified by the elimination
Groebner-basis check; successful tuples come back with the substitution
map, the elimination ideal generators, and optimality / affine-cell flags.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations, product

from .cotangent import cotangent_classes, enumerate_ltgfan_binomial
from .groebner import (
    DEFAULT_STEP_LIMIT,
    GBResult,
    SeparatingTuple,
    check_Z_separating,
    coherent_interreduce,
    eliminate_by_substitution,
)
from .poly import linear_part_of_ideal
from .ring import tdeg


@dataclass
class ReembeddingResult:
    """A verified separating tuple and the re-embedding it defines."""

    ring: object
    Z: tuple
    Y: tuple
    substitution: dict          # marker index -> polynomial in K[Y]
    elimination_gens: list      # generators of the image ideal
    optimal: bool
    affine_cell: bool
    certificate: GBResult | None
    sep_tuple: SeparatingTuple

    def z_labels(self):
        return tuple(self.ring.labels[i] for i in self.Z)

    def y_labels(self):
        return tuple(self.ring.labels[i] for i in self.Y)


@dataclass
class SearchReport:
    """Outcome of a candidate sweep.

    status: "found" when first-success mode hit, "all" when every candidate
    was tried collecting results, "not_found" when every check conclusively
    failed, "inconclusive" when at least one check aborted on budget.
    """

    status: str
    results: list = field(default_factory=list)
    tried: list = field(default_factory=list)   # (Z tuple, check status)
    unverified: list = field(default_factory=list)

    @property
    def result(self):
        return self.results[0] if self.results else None


def _validate_input(gens):
    """(nonzero gens, ring, linear part): the linear part is reduced here,
    once per search."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("empty generating set")
    ring = gens[0].ring
    if ring.n == 1:
        raise ValueError("single-indeterminate rings are out of scope")
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators from different rings")
        if g.constant_coefficient():
            raise ValueError("generators must have zero constant term")
    lin = linear_part_of_ideal(gens)
    if len(lin) == ring.n and all(g.total_degree() == 1 for g in gens):
        raise ValueError(
            "the ideal is the full maximal ideal; nothing to re-embed")
    return gens, ring, lin


def _new_result(ring, check, lin_dim):
    sep = check.sep_tuple
    o = check.gb.ordering
    zset = set(sep.markers)
    elimination_gens = [g for g in check.gb.basis
                        if not (tdeg(g.leading_term(o)[0]) == 1
                                and g.leading_term(o)[0].index(1) in zset)]
    Y = tuple(i for i in range(ring.n) if i not in zset)
    return ReembeddingResult(
        ring=ring,
        Z=tuple(sep.markers),
        Y=Y,
        substitution=sep.substitution(),
        elimination_gens=elimination_gens,
        optimal=(len(sep.markers) == lin_dim),
        affine_cell=(not elimination_gens),
        certificate=check.gb,
        sep_tuple=sep,
    )


def candidate_tuples_via_gfan(gens, s=None):
    """Candidate marker tuples from the fan of the linear part.

    All s-subsets of the marker sets of the fan cells, deduplicated and
    sorted; with s equal to the linear-part dimension these are exactly the
    marker sets themselves.
    """
    return _fan_candidates(linear_part_of_ideal(gens), s)


def _fan_candidates(lin, s):
    """candidate_tuples_via_gfan on the reduced linear part lin."""
    # imported per call, so a rebinding of linear_gfan.ltgfan_linear (as
    # perfbench/spans.py makes) is seen
    from .linear_gfan import ltgfan_linear

    dim = len(lin)
    if dim == 0:
        return []
    if s is None:
        s = dim
    if s > dim or s < 1:
        raise ValueError(f"tuple size must be between 1 and {dim}")
    seen = set()
    for markers in ltgfan_linear(lin):
        for sub in combinations(sorted(markers), s):
            seen.add(sub)
    return sorted(seen)


def find_reembedding_via_gfan(gens, s=None, limit=DEFAULT_STEP_LIMIT):
    """First verified tuple among the fan candidates, smallest first.

    Exhausting all candidates with conclusive "no" answers certifies that no
    separating tuple of this size exists among them; any budget abort
    downgrades that claim to "inconclusive".
    """
    gens, ring, lin = _validate_input(gens)
    return _verify(gens, ring, len(lin), _fan_candidates(lin, s),
                   limit, first_only=True)


def candidate_tuples_via_cotangent(classes, optimal_only=True):
    """Candidate marker tuples from the cotangent classes.

    In optimal mode: the trivial class joined with every proper class minus
    one member, enumerated by class index then deleted-member index.
    Otherwise: all unions of a subset of the trivial class with a proper
    subset of each proper class (combinatorially explosive; opt in).
    """
    if optimal_only:
        return [tuple(sorted(s)) for s in enumerate_ltgfan_binomial(classes)]
    trivial = sorted(classes.trivial)
    out = []
    trivial_subsets = []
    for r in range(len(trivial) + 1):
        trivial_subsets.extend(combinations(trivial, r))
    per_class = []
    for e in classes.proper:
        members = sorted(e)
        subs = []
        for r in range(len(members)):
            subs.extend(combinations(members, r))
        per_class.append(subs)
    for t0 in trivial_subsets:
        for picks in product(*per_class):
            z = list(t0)
            for part in picks:
                z.extend(part)
            if z:
                out.append(tuple(sorted(z)))
    return out


def find_reembedding_via_cotangent(gens, optimal_only=True,
                                   limit=DEFAULT_STEP_LIMIT):
    """All verified tuples among the cotangent-class candidates.

    Requires a binomial linear part for the closed-form candidate set; a
    general linear part falls back to the fan candidates.
    """
    gens, ring, lin = _validate_input(gens)
    binomial = all(len(f) <= 2 for f in lin)
    if binomial and lin:
        classes = cotangent_classes(lin, ring)
        candidates = candidate_tuples_via_cotangent(classes, optimal_only)
    else:
        if lin:
            warnings.warn("linear part is not binomial; "
                          "falling back to fan candidates", stacklevel=2)
        candidates = _fan_candidates(lin, None)
        if not optimal_only:
            extra = set()
            for Z in candidates:
                for r in range(1, len(Z)):
                    extra.update(combinations(Z, r))
            candidates = sorted(set(candidates) | extra)
    return _verify(gens, ring, len(lin), candidates, limit, first_only=False)


def _verify(gens, ring, lin_dim, candidates, limit, first_only):
    """Check the candidates in order; the one loop behind both searches.

    With first_only the sweep stops at the first "yes" with status "found";
    otherwise it collects every verified tuple with status "all".  A sweep
    that ends with some check aborted on budget is "inconclusive", and one
    that ends with no verified tuple is "not_found".
    """
    report = SearchReport(status="all")
    for Z in candidates:
        check = check_Z_separating(gens, Z, limit)
        report.tried.append((Z, check.status))
        if check.yes:
            report.results.append(_new_result(ring, check, lin_dim))
            if first_only:
                report.status = "found"
                return report
        elif check.status == "inconclusive":
            report.unverified.append(Z)
    if report.unverified:
        report.status = "inconclusive"
    elif not report.results:
        report.status = "not_found"
    return report


def certify_optimal(result, gens):
    """True iff the tuple size equals the linear-part dimension.

    When true, the structural facts must hold as well: trivial
    indeterminates all separated, and exactly one remaining indeterminate
    per proper cotangent class.
    """
    gens = [g for g in gens if not g.is_zero()]
    lin = linear_part_of_ideal(gens)
    if len(result.Z) != len(lin):
        return False
    classes = cotangent_classes(lin, result.ring)
    zset = set(result.Z)
    yset = set(result.Y)
    assert classes.trivial <= zset, "trivial indeterminate not separated"
    for e in classes.proper:
        assert len(e & yset) == 1, "proper class without a unique survivor"
    return True


def certify_affine_cell(result, gens, limit=DEFAULT_STEP_LIMIT,
                        max_terms=200000):
    """True iff the separating substitution kills every generator.

    Substitutes the coherent tuple into all generators; an empty image
    ideal means the quotient is a polynomial ring in the remaining
    indeterminates.  Returns None when a budget trips.
    """
    gens = [g for g in gens if not g.is_zero()]
    tup = result.sep_tuple
    try:
        if not tup.is_coherent():
            tup = coherent_interreduce(tup, max_terms=max_terms)
        images = eliminate_by_substitution(gens, tup, max_terms=max_terms)
    except RuntimeError:
        return None
    if images:
        return False
    # cross-check on the certificate: a complete elimination basis may not
    # carry any generator outside the separated block
    cert = result.certificate
    if cert is not None and cert.complete:
        assert not result.elimination_gens, \
            "substitution killed the generators but the basis disagrees"
    return True

