"""Search for separating re-embeddings and certify the results.

Two candidate generators feed one verification loop: the fan route tries
s-subsets of the marker sets of the linear part's Groebner fan, the first
"yes" or every one; the cotangent route collects every verified marker set
(closed form for binomial linear parts).  Every candidate is verified by
the elimination Groebner-basis check, whose basis decides each result: the
substitution map, the elimination ideal generators, and optimality /
affine-cell flags.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations

from .cotangent import cotangent_classes, enumerate_ltgfan_binomial
from .groebner import (
    DEFAULT_STEP_LIMIT,
    GBResult,
    SeparatingTuple,
    check_Z_separating,
    coherent_interreduce,  # not called here: perfbench/spans.py binds it here
    eliminate_by_substitution,
)
from .poly import linear_part_of_ideal


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
    certificate: GBResult       # the basis that verified the tuple
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

    @property
    def result(self):
        return self.results[0] if self.results else None

    @property
    def unverified(self):
        """Every tried Z whose check aborted on budget."""
        return [Z for Z, status in self.tried if status == "inconclusive"]


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
    Y = tuple(i for i in range(ring.n) if i not in sep.markers)
    return ReembeddingResult(
        ring=ring,
        Z=tuple(sep.markers),
        Y=Y,
        substitution=sep.substitution(),
        elimination_gens=check.elimination_gens,
        optimal=(len(sep.markers) == lin_dim),
        affine_cell=(not check.elimination_gens),
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


def find_reembedding_via_gfan(gens, s=None, limit=DEFAULT_STEP_LIMIT,
                              first_only=True):
    """Verified tuples among the fan candidates, smallest first: the first
    one only, or with first_only=False every one.

    Exhausting all candidates with conclusive "no" answers certifies that no
    separating tuple of this size exists among them; any budget abort
    downgrades that claim to "inconclusive".
    """
    gens, ring, lin = _validate_input(gens)
    return _verify(gens, ring, len(lin), _fan_candidates(lin, s),
                   limit, first_only)


def candidate_tuples_via_cotangent(classes):
    """Candidate marker tuples from the cotangent classes: the trivial class
    joined with every proper class minus one member, enumerated by class
    index then deleted-member index.  These are the marker sets of the fan.
    """
    return [tuple(sorted(s)) for s in enumerate_ltgfan_binomial(classes)]


def find_reembedding_via_cotangent(gens, limit=DEFAULT_STEP_LIMIT):
    """All verified tuples among the cotangent-class candidates.

    Requires a binomial linear part for the closed-form candidate set; a
    general linear part falls back to the fan candidates.
    """
    gens, ring, lin = _validate_input(gens)
    binomial = all(len(f) <= 2 for f in lin)
    if binomial and lin:
        classes = cotangent_classes(lin, ring)
        candidates = candidate_tuples_via_cotangent(classes)
    else:
        if lin:
            warnings.warn("linear part is not binomial; "
                          "falling back to fan candidates", stacklevel=2)
        candidates = _fan_candidates(lin, None)
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
    if report.unverified:
        report.status = "inconclusive"
    elif not report.results:
        report.status = "not_found"
    return report


def certify_optimal(result, gens):
    """True iff the tuple size equals the linear-part dimension.

    An independent cross-check of ``result.optimal``; jobs do not run it.
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


def certify_affine_cell(result, gens):
    """True iff the separating substitution kills every generator.

    Substitutes the result's tuple, coherent as its check asserted, into
    all generators; an empty image ideal means the quotient is a polynomial
    ring in the remaining indeterminates.  Asserts that this agrees with
    the certificate, whose elimination generators span the same ideal.
    Returns None when a budget trips.
    """
    gens = [g for g in gens if not g.is_zero()]
    try:
        images = eliminate_by_substitution(gens, result.sep_tuple)
    except RuntimeError:
        return None
    assert (not images) == (not result.elimination_gens), \
        "substitution and elimination basis disagree on the affine cell"
    return not images
