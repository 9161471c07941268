"""Buchberger engine and separating-tuple machinery.

Polynomials enter and leave as Poly; internally a polynomial is a list of
(key, term, coefficient) triples sorted descending, where key is the
memoized ordering key of the term.  One merge kernel, ``_sub_scaled``,
computes every f - c * x^u * g: multiplication by a term just shifts
exponents and the subtraction is a sorted merge, so nothing is re-sorted.
Reduction steps, S-polynomials and interreduction all go through it.  The
leading terms the engine keeps come back with the basis, so callers never
recompute them.
Pair handling follows Gebauer-Moeller; selection is the normal strategy
(degree of the lcm, then the ordering on the lcm).  A step budget bounds the
number of S-polynomial reductions; exhausting it aborts with a partial basis
instead of hanging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ordering import TermOrdering, degrevlex, elimination_for
from .poly import Poly
from .ring import Ring, tdeg, tdivides, tlcm, tmul, tvar

DEFAULT_STEP_LIMIT = 10 ** 6
# support cap of each Poly.substitute call that coherent_interreduce and
# eliminate_by_substitution make
SUBSTITUTION_MAX_TERMS = 200000


class CoherenceError(RuntimeError):
    """Interreduction did not reach a coherent tuple within its budget."""


# ---------- internal sorted-triple representation ----------

def _memo_key(ordering):
    memo = {}
    okey = ordering.key

    def key(t):
        k = memo.get(t)
        if k is None:
            k = okey(t)
            memo[t] = k
        return k

    return key


def _prep(p, key):
    lst = [(key(t), t, c) for t, c in p.coeffs.items()]
    lst.sort(key=lambda e: e[0], reverse=True)
    return lst


def _unprep(ring, f):
    p = Poly.__new__(Poly)
    p.ring = ring
    p.coeffs = {t: c for _, t, c in f}
    return p


def _monic(f):
    c = f[0][2]
    if c == 1:
        return f
    return [(k, t, cc / c) for k, t, cc in f]


def _sub_scaled(f, pos, g, u, c, key):
    """f[pos:] - c * x^u * g as one sorted merge: the engine's only
    subtraction, for reduction steps and S-polynomials alike."""
    if any(u):
        g = [(key(tu), tu, cc)
             for tu, cc in ((tmul(t, u), cc) for _, t, cc in g)]
    out = []
    i, j = pos, 0
    nf, ng = len(f), len(g)
    while i < nf and j < ng:
        kf = f[i][0]
        kg = g[j][0]
        if kf > kg:
            out.append(f[i])
            i += 1
        elif kf < kg:
            e = g[j]
            out.append((kg, e[1], -e[2] * c))
            j += 1
        else:
            cc = f[i][2] - g[j][2] * c
            if cc:
                out.append((kf, f[i][1], cc))
            i += 1
            j += 1
    if i < nf:
        out.extend(f[i:])
    while j < ng:
        e = g[j]
        out.append((e[0], e[1], -e[2] * c))
        j += 1
    return out


def _normal_form_internal(f, basis, lts, key):
    """Fully reduce f by the monic basis; the remainder is a sorted triple
    list."""
    out = []
    work = f
    pos = 0
    nb = len(lts)
    while pos < len(work):
        t = work[pos][1]
        ri = -1
        for gi in range(nb):
            if tdivides(lts[gi], t):
                ri = gi
                break
        if ri < 0:
            out.append(work[pos])
            pos += 1
            continue
        u = tuple(a - b for a, b in zip(t, lts[ri]))
        work = _sub_scaled(work, pos, basis[ri], u, work[pos][2], key)
        pos = 0
    return out


def _spoly(f, g, lt_f, lt_g, key):
    """x^uf * f - x^ug * g for monic f, g, where the lcm of the leading
    terms is the leading term of both products."""
    L = tlcm(lt_f, lt_g)
    uf = tuple(a - b for a, b in zip(L, lt_f))
    ug = tuple(a - b for a, b in zip(L, lt_g))
    return _sub_scaled(_sub_scaled([], 0, f, uf, -1, key), 0, g, ug, 1, key)


def _gm_update(G, lts, P, h, key):
    """Append monic h to the basis, updating the pair set (Gebauer-Moeller)."""
    lt_h = h[0][1]
    m = len(G)
    keep = set()
    for pair in P:
        i, j = pair
        lcm_ij = tlcm(lts[i], lts[j])
        if (not tdivides(lt_h, lcm_ij)
                or tlcm(lts[i], lt_h) == lcm_ij
                or tlcm(lts[j], lt_h) == lcm_ij):
            keep.add(pair)
    groups = {}
    for i in range(m):
        groups.setdefault(tlcm(lts[i], lt_h), []).append(i)
    minimal = []
    for L in sorted(groups, key=lambda t: (tdeg(t), key(t))):
        if all(not tdivides(Lm, L) for Lm in minimal):
            minimal.append(L)
    for L in minimal:
        if not any(tlcm(lts[i], lt_h) == tmul(lts[i], lt_h)
                   for i in groups[L]):
            keep.add((min(groups[L]), m))
    G.append(h)
    lts.append(lt_h)
    return keep


def _minimalize(G, lts, key):
    order = sorted(range(len(G)), key=lambda i: key(lts[i]))
    kept = []
    for i in order:
        if all(not tdivides(lts[j], lts[i]) for j in kept):
            kept.append(i)
    return [G[i] for i in kept], [lts[i] for i in kept]


def _interreduce(G, lts, key):
    """Reduce each tail by the whole minimal basis, in place: lts[i] divides
    no term below itself, so G[i] never reduces its own tail."""
    for i in sorted(range(len(G)), key=lambda i: key(lts[i])):
        G[i] = G[i][:1] + _normal_form_internal(G[i][1:], G, lts, key)


# ---------- public engine ----------

@dataclass
class GBResult:
    """A reduced Groebner basis, or after a budget abort a partial one.

    An aborted basis is minimal but not interreduced: reducing it further
    would be work beyond the step budget.
    """

    basis: list
    ordering: TermOrdering
    status: str  # "complete" | "aborted"
    steps: int
    lts: list    # leading term of each basis element, as the engine kept it

    @property
    def complete(self):
        return self.status == "complete"


def buchberger(gens, ordering, limit=DEFAULT_STEP_LIMIT):
    """Reduced Groebner basis of the ideal generated by gens.

    Counts one step per S-polynomial reduction; when the budget runs out the
    result carries status "aborted" and the current partial basis,
    minimalized but not interreduced, so the budget bounds every reduction.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return GBResult([], ordering, "complete", 0, [])
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators from different rings")
    if ordering.n != ring.n:
        raise ValueError(f"the ordering has {ordering.n} columns, the ring "
                         f"{ring.n} indeterminates")
    key = _memo_key(ordering)

    G = []
    lts = []
    P = set()
    for g in gens:
        P = _gm_update(G, lts, P, _monic(_prep(g, key)), key)

    def pair_key(ij):
        L = tlcm(lts[ij[0]], lts[ij[1]])
        return (tdeg(L), key(L), ij)

    steps = 0
    aborted = False
    while P:
        if steps >= limit:
            aborted = True
            break
        pair = min(P, key=pair_key)
        P.discard(pair)
        i, j = pair
        steps += 1
        s = _spoly(G[i], G[j], lts[i], lts[j], key)
        h = _normal_form_internal(s, G, lts, key)
        if h:
            P = _gm_update(G, lts, P, _monic(h), key)

    G, lts = _minimalize(G, lts, key)
    if not aborted:
        _interreduce(G, lts, key)
    order = sorted(range(len(G)), key=lambda i: key(lts[i]), reverse=True)
    basis = [_unprep(ring, G[i]) for i in order]
    return GBResult(basis, ordering, "aborted" if aborted else "complete",
                    steps, [lts[i] for i in order])


def normal_form(f, basis, ordering):
    """Full remainder of f under division by the basis, as a Poly in f's ring.

    Zero basis elements are ignored and every other one is scaled to be
    monic first, so replacing basis elements by nonzero multiples of
    themselves gives the same remainder.
    """
    basis = [g for g in basis if not g.is_zero()]
    if f.is_zero() or not basis:
        return f
    key = _memo_key(ordering)
    prepped = [_monic(_prep(g, key)) for g in basis]
    lts = [g[0][1] for g in prepped]
    return _unprep(f.ring, _normal_form_internal(_prep(f, key), prepped, lts,
                                                 key))


# ---------- separating tuples ----------

@dataclass(frozen=True)
class SeparatingTuple:
    """Polynomials f_i with elimination leading terms exactly the markers."""

    ring: Ring
    markers: tuple
    polys: tuple

    def substitution(self):
        """The rewrite map z_i -> z_i - f_i (monic f_i assumed)."""
        out = {}
        for z, f in zip(self.markers, self.polys):
            out[z] = Poly.variable(self.ring, z) - f
        return out

    def is_coherent(self):
        """No marker z_j divides any term of f_i for i != j."""
        for i, f in enumerate(self.polys):
            for j, z in enumerate(self.markers):
                if i == j:
                    continue
                if any(t[z] for t in f.coeffs):
                    return False
        return True


@dataclass
class ZSeparatingCheck:
    status: str  # "yes" | "no" | "inconclusive"
    gb: GBResult
    sep_tuple: SeparatingTuple | None
    missing: tuple = ()
    elimination_gens: list = field(default_factory=list)  # "yes": the rest

    @property
    def yes(self):
        return self.status == "yes"


def check_Z_separating(gens, markers, limit=DEFAULT_STEP_LIMIT,
                       ordering=None):
    """Is the ideal Z-separating for the given marker indeterminates?

    Runs Buchberger under an elimination ordering for the markers; "yes"
    exactly when every marker is the leading term of a reduced-basis
    element.  A budget abort downgrades the answer to "inconclusive".
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("empty generating set")
    ring = gens[0].ring
    markers = ring.indices(markers)
    if not markers:
        raise ValueError("empty marker tuple")
    for g in gens:
        if g.constant_coefficient():
            raise ValueError("generators must have zero constant term")
    o = ordering or elimination_for(ring, markers)
    gb = buchberger(gens, o, limit)
    if not gb.complete:
        return ZSeparatingCheck("inconclusive", gb, None)
    found = {}
    rest = []
    for g, t in zip(gb.basis, gb.lts):
        if tdeg(t) == 1 and t.index(1) in markers:
            found[t.index(1)] = g
        else:
            rest.append(g)
    missing = tuple(z for z in markers if z not in found)
    if missing:
        return ZSeparatingCheck("no", gb, None, missing)
    sep = SeparatingTuple(ring, markers, tuple(found[z] for z in markers))
    assert sep.is_coherent(), "reduced basis produced an incoherent tuple"
    return ZSeparatingCheck("yes", gb, sep, elimination_gens=rest)


def coherent_interreduce(tup, max_passes=1000):
    """Rewrite a separating tuple so no marker crosses into another member.

    Each pass substitutes z_j -> z_j - f_j into any member still containing
    z_j; for a genuine separating tuple the leading terms are stable and the
    process terminates.  Budgets guard against misuse.
    """
    ring = tup.ring
    markers = tup.markers
    o = elimination_for(ring, markers)
    polys = []
    for z, f in zip(markers, tup.polys):
        if f.is_zero():
            raise ValueError("zero member in separating tuple")
        t, _ = f.leading_term(o)
        if t != tvar(ring.n, z):
            raise ValueError(
                f"member for {ring.labels[z]} does not lead with its marker")
        polys.append(f.monic(o))

    for _ in range(max_passes):
        dirty = False
        for i in range(len(polys)):
            for j, z in enumerate(markers):
                if i == j:
                    continue
                if any(t[z] for t in polys[i].coeffs):
                    image = Poly.variable(ring, z) - polys[j]
                    polys[i] = polys[i].substitute(
                        {z: image}, max_terms=SUBSTITUTION_MAX_TERMS)
                    dirty = True
        if not dirty:
            out = SeparatingTuple(ring, markers, tuple(polys))
            assert out.is_coherent()
            return out
    raise CoherenceError("interreduction did not stabilize within budget")


def eliminate_by_substitution(gens, tup):
    """Generators of the elimination ideal via marker substitution.

    Substitutes z_i -> z_i - f_i (a polynomial free of all markers) into
    every generator; the nonzero images generate the intersection with the
    marker-free subring.
    """
    if not tup.is_coherent():
        raise ValueError("tuple must be coherent; run coherent_interreduce")
    images = tup.substitution()
    out = []
    for g in gens:
        img = g.substitute(images, max_terms=SUBSTITUTION_MAX_TERMS)
        if not img.is_zero():
            out.append(img)
    return out


# ---------- regular sequences (desk scale) ----------

def _fresh_label(ring):
    label = "t"
    while label in ring.labels:
        label += "t"
    return label


def _lift(p, big):
    return Poly(big, {t + (0,): c for t, c in p.coeffs.items()})


def _drop_tag(p, ring):
    return Poly(ring, {t[:-1]: c for t, c in p.coeffs.items()})


def _exact_divide(e, f, ordering):
    """Quotient e / f for e in the principal ideal of f."""
    ring = e.ring
    q = Poly.zero(ring)
    r = e
    lt_f, lc_f = f.leading_term(ordering)
    while not r.is_zero():
        lt_r, lc_r = r.leading_term(ordering)
        u = tuple(a - b for a, b in zip(lt_r, lt_f))
        if any(x < 0 for x in u):
            raise ValueError("division is not exact")
        c = lc_r / lc_f
        q = q + Poly(ring, {u: c})
        r = r - f.mul_term(u, c)
    return q


def colon_ideal_gens(J_gens, f, limit=DEFAULT_STEP_LIMIT):
    """Generators of (J : f), or None when the budget aborts.

    Uses a tag indeterminate: eliminating it from t*J + (1-t)*<f> gives
    J intersect <f>, and dividing by f yields the colon ideal.
    """
    ring = f.ring
    if not J_gens:
        return []
    big = Ring(ring.labels + (_fresh_label(ring),), ring.field)
    tag = big.n - 1
    tpoly = Poly.variable(big, tag)
    H = [tpoly * _lift(g, big) for g in J_gens]
    H.append((Poly.constant(big, 1) - tpoly) * _lift(f, big))
    gb = buchberger(H, elimination_for(big, [tag]), limit)
    if not gb.complete:
        return None
    o = degrevlex(ring.n)
    out = []
    for g in gb.basis:
        if any(t[tag] for t in g.coeffs):
            continue
        out.append(_exact_divide(_drop_tag(g, ring), f, o))
    return out


def check_regular_sequence(polys, limit=DEFAULT_STEP_LIMIT, max_vars=6,
                           max_deg=8):
    """True iff the polynomials form a regular sequence in their ring.

    Checks (f_1..f_{i-1}) : f_i == (f_1..f_{i-1}) through colon-ideal
    Groebner computations.  This is a desk-scale verification tool and
    refuses rings or degrees beyond its limits; budget aborts yield None.
    """
    polys = list(polys)
    if not polys:
        raise ValueError("empty sequence")
    ring = polys[0].ring
    if ring.n > max_vars:
        raise ValueError(f"refusing: more than {max_vars} indeterminates")
    for f in polys:
        if f.is_zero():
            raise ValueError("zero member in sequence")
        if f.total_degree() > max_deg:
            raise ValueError(f"refusing: degree above {max_deg}")
        if f.total_degree() == 0:
            return False
    o = degrevlex(ring.n)
    for i, f in enumerate(polys):
        if i == 0:
            continue
        J = polys[:i]
        colon = colon_ideal_gens(J, f, limit)
        if colon is None:
            return None
        gbJ = buchberger(J, o, limit)
        if not gbJ.complete:
            return None
        for q in colon:
            if not normal_form(q, gbJ.basis, o).is_zero():
                return False
    return True
