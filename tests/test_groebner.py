"""Buchberger engine, separating checks, interreduction, elimination."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy.polys.orderings import ProductOrder
from sympy.polys.orderings import grevlex as sympy_grevlex
from sympy.polys.orderings import lex as sympy_lex

from reembed import groebner
from reembed.border_basis import BorderBasisScheme, order_ideal
from reembed.groebner import (
    CoherenceError,
    SeparatingTuple,
    buchberger,
    check_Z_separating,
    check_regular_sequence,
    coherent_interreduce,
    colon_ideal_gens,
    eliminate_by_substitution,
    normal_form,
)
from reembed.field import QQ, PrimeField
from reembed.ordering import TermOrdering, degrevlex, elimination_for, lex
from reembed.parse import parse_poly, parse_ring
from reembed.poly import Poly, linear_part_of_ideal
from reembed.ring import Ring, tdeg, tvar
from reembed.search import candidate_tuples_via_cotangent


def elimination_degree_block(zvars, n):
    """An elimination ordering for zvars other than the engine's: degrevlex
    inside the zvars block, then degrevlex on the rest (sympy's product of
    two grevlex blocks)."""
    z = sorted(zvars)
    y = [i for i in range(n) if i not in z]
    rows = []
    for block in (z, y):
        if block:
            rows.append([int(j in block) for j in range(n)])
            rows += [[-int(j == i) for j in range(n)]
                     for i in reversed(block[1:])]
    return TermOrdering(rows)


def polys(ring, texts):
    return [parse_poly(s, ring) for s in texts]


class TestBuchberger:
    def test_ten_generators_collapse(self, ring_xyz, curve10):
        o = elimination_for(ring_xyz, ["x"])
        gb = buchberger(curve10, o)
        assert gb.complete
        assert gb.basis == polys(ring_xyz, ["x - y^2", "y^4 + y^2"])

    def test_idempotent_on_reduced_basis(self, ring_xyz):
        o = elimination_for(ring_xyz, ["x"])
        basis = polys(ring_xyz, ["x - y^2", "y^4 + y^2"])
        gb = buchberger(basis, o)
        assert gb.complete and gb.basis == basis

    def test_twisted_curve_elimination(self, ring_xyzw, twisted_curve):
        o = elimination_for(ring_xyzw, ["x", "y", "w"])
        gb = buchberger(twisted_curve, o)
        assert gb.basis == polys(ring_xyzw, [
            "x - 1/2z^6 - z^4 - z^2",
            "y + 1/2z^6 + z^4",
            "w + z^3 + z",
        ])

    def test_spolys_and_generators_reduce_to_zero(self, ring_xyz, curve10):
        from reembed.ring import tlcm
        o = degrevlex(3)
        gb = buchberger(curve10, o)
        assert gb.complete
        B = gb.basis
        for g in curve10:
            assert normal_form(g, B, o).is_zero()
        for i in range(len(B)):
            for j in range(i + 1, len(B)):
                ti, ci = B[i].leading_term(o)
                tj, cj = B[j].leading_term(o)
                L = tlcm(ti, tj)
                ui = tuple(a - b for a, b in zip(L, ti))
                uj = tuple(a - b for a, b in zip(L, tj))
                s = B[i].mul_term(ui, 1 / ci) - B[j].mul_term(uj, 1 / cj)
                assert normal_form(s, B, o).is_zero()

    def test_abort_on_tiny_budget(self, ring_xyz, curve10):
        gb = buchberger(curve10, degrevlex(3), limit=1)
        assert gb.status == "aborted"

    def test_zero_ideal(self, ring_xyz):
        gb = buchberger([Poly.zero(ring_xyz)], degrevlex(3))
        assert gb.complete and gb.basis == []

    def test_ordering_must_match_the_ring(self, ring_xyz):
        # a two-column matrix would ignore z and merge x*z with x
        gens = polys(ring_xyz, ["x*z - x", "x*z + x"])
        for rows in ([[1, 0], [0, 1]], [[1, 0, 0, 0], [0, 1, 0, 0],
                                        [0, 0, 1, 0], [0, 0, 0, 1]]):
            with pytest.raises(ValueError, match="ordering has"):
                buchberger(gens, TermOrdering(rows))
        gb = buchberger(gens, TermOrdering([[1, 0, 0], [0, 1, 0],
                                            [0, 0, 1]]))
        assert gb.basis == polys(ring_xyz, ["x"])

    def test_over_prime_field(self):
        ring = parse_ring("ring x, y mod 7;")
        gb = buchberger(polys(ring, ["x^2 + y", "x*y + x"]), degrevlex(2))
        assert gb.complete
        for g in gb.basis:
            _, c = g.leading_term(degrevlex(2))
            assert c == 1


class TestCheckZSeparating:
    def test_hidden_curve_is_separating(self, ring_xyz, curve10):
        res = check_Z_separating(curve10, ["x"])
        assert res.yes
        assert res.sep_tuple.polys[0] == parse_poly("x - y^2", ring_xyz)

    def test_rejected_candidate(self, ring_xyzw, twisted_curve):
        res = check_Z_separating(twisted_curve, ["x", "y", "z"])
        assert res.status == "no"
        # z is never a leading term (being or not being separating does not
        # depend on which elimination ordering realizes the check)
        assert ring_xyzw.index("z") in res.missing

    def test_trivial_difference(self):
        ring = parse_ring("ring x1, x2;")
        res = check_Z_separating(polys(ring, ["x1 - x2"]), ["x1"])
        assert res.yes

    def test_inconclusive_on_budget(self, ring_xyz, curve10):
        res = check_Z_separating(curve10, ["x"], limit=1)
        assert res.status == "inconclusive"

    @pytest.mark.parametrize("limit", (0, 50))
    def test_budget_bounds_every_reduction(self, monkeypatch, limit):
        # first cotangent candidate of the x^2, y^2 scheme (25
        # indeterminates): it aborts, and the aborted basis gets no
        # reduction beyond the budget
        scheme = BorderBasisScheme(order_ideal([(2, 0), (0, 2)], 2))
        Z = candidate_tuples_via_cotangent(scheme.cotangent())[0]
        calls = []
        reduce = groebner._normal_form_internal
        monkeypatch.setattr(groebner, "_normal_form_internal",
                            lambda *a: calls.append(1) or reduce(*a))
        res = check_Z_separating(scheme.defining_ideal(), Z, limit=limit)
        assert res.status == "inconclusive"
        assert len(calls) <= limit

    def test_empty_markers_rejected(self, ring_xyz, curve10):
        with pytest.raises(ValueError):
            check_Z_separating(curve10, [])

    def test_agrees_across_elimination_orderings(self, ring_xyzw,
                                                 twisted_curve, curve10):
        # the answer must not depend on which elimination ordering for Z
        # realizes the check: under another one, "yes" exactly when every
        # marker leads a reduced-basis element
        answers = []
        for gens, markers in [(twisted_curve, ["x", "y", "w"]),
                              (twisted_curve, ["x", "y", "z"]),
                              (curve10, ["x"]), (curve10, ["y"])]:
            ring = gens[0].ring
            idx = ring.indices(markers)
            alt = elimination_degree_block(idx, ring.n)
            gb = buchberger(gens, alt)
            assert gb.complete
            leads = {g.leading_term(alt)[0] for g in gb.basis}
            every = all(tvar(ring.n, z) in leads for z in idx)
            answers.append(check_Z_separating(gens, markers).status)
            assert answers[-1] == ("yes" if every else "no")
        assert answers == ["yes", "no", "yes", "no"]

    def test_consistency_with_sigma_leading(self, ring_xyzw, twisted_curve):
        # at full size the degree-1 leading terms of the basis are exactly
        # the sigma-leading set of the linear part
        from reembed.cotangent import cotangent_classes, sigma_leading_S
        lin = linear_part_of_ideal(twisted_curve)
        res = check_Z_separating(twisted_curve, ["x", "y", "w"])
        assert res.yes
        o = elimination_for(ring_xyzw, ["x", "y", "w"])
        classes = cotangent_classes(lin, ring_xyzw)
        expected = sigma_leading_S(classes, o)
        got = {t.index(1) for t in res.gb.lts if tdeg(t) == 1}
        assert got == expected


class TestCoherentInterreduce:
    def test_graph_surface(self, ring_xyzw, graph_surface):
        f1, f2, _ = graph_surface
        tup = SeparatingTuple(ring_xyzw, ring_xyzw.indices(("x", "y")),
                              (f1, f2))
        out = coherent_interreduce(tup)
        assert out.is_coherent()
        assert out.polys[0] == parse_poly("z*w^2 + w^3 + w^2 + x + 3z",
                                          ring_xyzw)
        assert out.polys[1] == f2

    def test_single_member_unchanged(self):
        ring = parse_ring("ring z1, y;")
        f = parse_poly("z1 - y^2", ring)
        tup = SeparatingTuple(ring, (0,), (f,))
        out = coherent_interreduce(tup)
        assert out.polys == (f,)

    def test_random_tuples_become_coherent(self):
        rng = random.Random(51)
        ring = parse_ring("ring a, b, u, v;")
        for _ in range(30):
            # markers a, b with tails over u, v, then cross-contaminated
            ha = _random_tail(rng, ring, ("u", "v"))
            hb = _random_tail(rng, ring, ("u", "v"))
            fa = Poly.variable(ring, ring.index("a")) - ha
            fb = Poly.variable(ring, ring.index("b")) - hb
            fa = fa + fb * rng.randint(0, 2)
            tup = SeparatingTuple(ring, ring.indices(("a", "b")), (fa, fb))
            out = coherent_interreduce(tup)
            assert out.is_coherent()
            # the rewrite preserves the ideal: both routes eliminate to
            # the same images
            assert eliminate_by_substitution([fa, fb], out) == []

    def test_wrong_leading_term_rejected(self, ring_xyzw):
        # marker z, but the member does not even involve z
        tup = SeparatingTuple(ring_xyzw, ring_xyzw.indices(("z",)),
                              (parse_poly("x + w^2", ring_xyzw),))
        with pytest.raises(ValueError):
            coherent_interreduce(tup)


def _random_tail(rng, ring, allowed):
    idx = [ring.index(v) for v in allowed]
    out = Poly.zero(ring)
    for _ in range(rng.randint(1, 3)):
        t = [0] * ring.n
        for _ in range(rng.randint(1, 3)):
            t[rng.choice(idx)] += 1
        out = out + Poly(ring, {tuple(t): rng.randint(-3, 3)})
    return out


class TestEliminateBySubstitution:
    def test_graph_surface_eliminates_to_zero(self, ring_xyzw, graph_surface):
        f1, f2, _ = graph_surface
        tup = coherent_interreduce(
            SeparatingTuple(ring_xyzw, ring_xyzw.indices(("x", "y")),
                            (f1, f2)))
        images = eliminate_by_substitution(graph_surface, tup)
        assert images == []

    def test_tuple_alone_gives_zero_ideal(self, ring_xyzw, graph_surface):
        f1, f2, _ = graph_surface
        tup = coherent_interreduce(
            SeparatingTuple(ring_xyzw, ring_xyzw.indices(("x", "y")),
                            (f1, f2)))
        assert eliminate_by_substitution(list(tup.polys), tup) == []

    def test_hidden_curve_leaves_plane_ideal(self, ring_xyz, curve10):
        res = check_Z_separating(curve10, ["x"])
        images = eliminate_by_substitution(curve10, res.sep_tuple)
        # the image ideal equals <y^4 + y^2>: cross-check with a basis
        # computation over the remaining indeterminates
        o = degrevlex(3)
        gb = buchberger(images, o)
        assert gb.basis == [parse_poly("y^4 + y^2", ring_xyz)]

    def test_hand_built_coherent_tuple_accepted(self):
        # coherence is a property of the polynomials, not of how the tuple
        # was made
        ring = parse_ring("ring x, y;")
        f = parse_poly("x - y^2", ring)
        tup = SeparatingTuple(ring, (0,), (f,))
        assert tup.is_coherent()
        assert eliminate_by_substitution([f], tup) == []

    def test_incoherent_tuple_rejected(self, ring_xyzw, graph_surface):
        f1, f2, _ = graph_surface
        tup = SeparatingTuple(ring_xyzw, ring_xyzw.indices(("x", "y")),
                              (f1, f2))
        with pytest.raises(ValueError):
            eliminate_by_substitution(graph_surface, tup)


class TestRegularSequence:
    def test_graph_surface_pair(self, ring_xyzw, graph_surface):
        f1p = parse_poly("z*w^2 + w^3 + w^2 + x + 3z", ring_xyzw)
        assert check_regular_sequence([f1p, graph_surface[1]]) is True

    def test_coordinates(self):
        ring = parse_ring("ring x, y;")
        assert check_regular_sequence(polys(ring, ["x", "y"])) is True

    def test_colon_counterexample(self):
        ring = parse_ring("ring x, y;")
        assert check_regular_sequence(polys(ring, ["x", "x*y"])) is False

    def test_colon_ideal_oracle(self):
        # (x) : xy contains 1, witnessing failure
        ring = parse_ring("ring x, y;")
        x, xy = polys(ring, ["x", "x*y"])
        colon = colon_ideal_gens([x], xy)
        o = degrevlex(2)
        gb = buchberger(colon, o)
        assert gb.basis == [Poly.constant(ring, 1)]

    def test_refuses_large_rings(self):
        ring = Ring([f"v{i}" for i in range(8)])
        with pytest.raises(ValueError):
            check_regular_sequence([Poly.variable(ring, 0)])


class TestEliminationOrderingIndependence:
    def test_reduced_bases_coincide_when_elimination_is_zero(
            self, ring_xyzw, graph_surface):
        # once the image ideal vanishes, the reduced basis is the same
        # under every elimination ordering for the separated block
        from reembed.ordering import TermOrdering
        Z = ring_xyzw.indices(("x", "y"))
        o1 = elimination_for(ring_xyzw, Z)
        o2 = elimination_degree_block(Z, 4)
        # a third one: reversed marker block over a lex tail
        rows = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        o3 = TermOrdering(rows, kind="custom")
        bases = [set(map(str, buchberger(graph_surface, o).basis))
                 for o in (o1, o2, o3)]
        assert bases[0] == bases[1] == bases[2]

    def test_budget_abort_returns_none(self):
        ring = parse_ring("ring x, y;")
        assert check_regular_sequence(polys(ring, ["x", "y"]),
                                      limit=0) is None

    def test_interreduce_budget_failure(self, monkeypatch, ring_xyzw,
                                        graph_surface):
        monkeypatch.setattr(groebner, "INTERREDUCE_MAX_PASSES", 0)
        f1, f2, _ = graph_surface
        tup = SeparatingTuple(ring_xyzw, ring_xyzw.indices(("x", "y")),
                              (f1, f2))
        with pytest.raises(CoherenceError):
            coherent_interreduce(tup)


class TestSubstitutedMembership:
    def test_images_land_in_the_elimination_ideal(self, ring_xyz, curve10):
        # substituting the separating rule into every generator yields
        # members of the image ideal
        res = check_Z_separating(curve10, ["x"])
        images = eliminate_by_substitution(curve10, res.sep_tuple)
        o = degrevlex(3)
        target = buchberger([parse_poly("y^4 + y^2", ring_xyz)], o)
        for img in images:
            assert normal_form(img, target.basis, o).is_zero()


class TestNormalFormRemainder:
    @pytest.mark.parametrize("ring_text", ["ring x, y;", "ring x, y mod 7;"])
    def test_exact_remainder_by_non_monic_element(self, ring_text):
        ring = parse_ring(ring_text)
        f, g, expected = polys(ring, ["x*y + y + 1", "2x", "y + 1"])
        assert normal_form(f, [g], degrevlex(2)) == expected

    @pytest.mark.parametrize("ring_text", ["ring x, y;", "ring x, y mod 7;"])
    def test_zero_f_or_empty_basis_returns_f(self, ring_text):
        ring = parse_ring(ring_text)
        f, g = polys(ring, ["x*y + y + 1", "2x"])
        zero = Poly.zero(ring)
        o = degrevlex(2)
        assert normal_form(zero, [g], o) == zero
        assert normal_form(f, [], o) == f
        assert normal_form(f, [zero], o) == f


class TestGBResultContains:
    def test_member_and_non_member(self):
        ring = parse_ring("ring x, y;")
        o = degrevlex(2)
        gb = buchberger(polys(ring, ["x^2 - y"]), o)
        member, non_member = polys(ring, ["x^3 - x*y", "x"])
        assert normal_form(member, gb.basis, o).is_zero()
        assert normal_form(non_member, gb.basis, o) == non_member


# ---------- reduced bases against sympy ----------

@st.composite
def small_ideals(draw):
    """(n, p, generators as {exponent tuple: int}) with p = 0 for QQ: up to
    three generators of 1-3 terms and total degree <= 2 in 2 or 3
    indeterminates, none zero over the field."""
    n = draw(st.sampled_from((2, 3)))
    p = draw(st.sampled_from((0, 5, 101)))
    exps = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: sum(e) <= 2)
    coeff = st.integers(-3, 3).filter(lambda c: c % p if p else c)
    gen = st.dictionaries(exps, coeff, min_size=1, max_size=3)
    return n, p, draw(st.lists(gen, min_size=1, max_size=3))


def _two_grevlex_blocks(k):
    """sympy's product of grevlex on the first k indeterminates and grevlex
    on the rest."""
    return ProductOrder((sympy_grevlex, lambda m: m[:k]),
                        (sympy_grevlex, lambda m: m[k:]))


# order name -> (the engine's ordering of a ring, sympy's order for n
# indeterminates); the block orders are the ones the separating check uses
ORDERS = {
    "lex": (lambda ring: lex(ring.n), lambda n: sympy_lex),
    "grevlex": (lambda ring: degrevlex(ring.n), lambda n: sympy_grevlex),
    "elimination-one": (lambda ring: elimination_for(ring, [0]),
                        lambda n: _two_grevlex_blocks(1)),
    "degree-block": (
        lambda ring: elimination_degree_block(range(ring.n - 1), ring.n),
        lambda n: _two_grevlex_blocks(n - 1)),
}


def _canonical(basis, key, p):
    """A basis of {exponent tuple: coefficient} dicts as a set of monic
    polynomials, leading terms taken under the sympy monomial order key;
    coefficients are ints mod p, or Fractions for p = 0."""
    out = set()
    for d in basis:
        lead = d[max(d, key=key)]
        scale = pow(lead, p - 2, p) if p else 1 / lead
        out.add(frozenset((e, c * scale % p if p else c * scale)
                          for e, c in d.items()))
    return out


class TestBuchbergerAgainstSympy:
    @pytest.mark.parametrize("order", tuple(ORDERS))
    @given(ideal=small_ideals())
    def test_reduced_basis_and_members(self, order, ideal):
        n, p, gens = ideal
        ring = Ring([f"x{i}" for i in range(n)], PrimeField(p) if p else QQ)
        ours, theirs = ORDERS[order]
        ordering = ours(ring)
        sympy_order = theirs(n)
        fs = [Poly(ring, g) for g in gens]
        gb = buchberger(fs, ordering)
        assert gb.complete
        got = [{e: c.v if p else Fraction(c.numerator, c.denominator)
                for e, c in g.coeffs.items()} for g in gb.basis]

        xs = sympy.symbols(f"x0:{n}")
        exprs = [sum(c * sympy.prod(x ** k for x, k in zip(xs, e))
                     for e, c in g.items()) for g in gens]
        field = {"modulus": p} if p else {"domain": sympy.QQ}
        ref = sympy.groebner(exprs, *xs, order=sympy_order, **field)
        want = [{e: int(c) % p if p else Fraction(int(c.p), int(c.q))
                 for e, c in q.terms()} for q in ref.polys]
        assert _canonical(got, sympy_order, p) == \
            _canonical(want, sympy_order, p)
        # the leading terms the engine returns are the basis' own
        assert gb.lts == [max(d, key=sympy_order) for d in got]

        # every combination of the generators reduces to 0
        rng = random.Random(repr(ideal))
        member = Poly.zero(ring)
        for f in fs:
            mult = Poly(ring, {tuple(rng.randint(0, 1) for _ in range(n)):
                               rng.choice((-3, -1, 1, 2)) for _ in range(2)})
            member = member + mult * f
        assert normal_form(member, gb.basis, ordering).is_zero()
