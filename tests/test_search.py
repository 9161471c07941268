"""The re-embedding searches and their certificates."""

import random
import re
from dataclasses import replace
from itertools import combinations

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from reembed import search
from reembed.groebner import check_Z_separating
from reembed.parse import parse_poly, parse_ring
from reembed.poly import Poly, linear_part_of_ideal
from reembed.ring import Ring
from reembed.search import (
    candidate_tuples_via_cotangent,
    candidate_tuples_via_gfan,
    certify_affine_cell,
    certify_optimal,
    find_reembedding_via_cotangent,
    find_reembedding_via_gfan,
)
from reembed.cotangent import cotangent_classes


class TestViaGfan:
    def test_twisted_curve_pipeline(self, ring_xyzw, twisted_curve):
        report = find_reembedding_via_gfan(twisted_curve, s=3)
        assert report.status == "found"
        # the candidate before the accepted one is rejected first
        assert report.tried[0][0] == ring_xyzw.indices(("x", "y", "z"))
        assert report.tried[0][1] == "no"
        assert report.tried[1][0] == ring_xyzw.indices(("x", "y", "w"))
        assert report.tried[1][1] == "yes"
        res = report.result
        assert res.z_labels() == ("x", "y", "w")
        assert res.y_labels() == ("z",)
        assert res.substitution[ring_xyzw.index("x")] == \
            parse_poly("1/2z^6 + z^4 + z^2", ring_xyzw)
        assert res.substitution[ring_xyzw.index("y")] == \
            parse_poly("-1/2z^6 - z^4", ring_xyzw)
        assert res.substitution[ring_xyzw.index("w")] == \
            parse_poly("-z^3 - z", ring_xyzw)
        assert res.certificate.basis == [
            parse_poly("x - 1/2z^6 - z^4 - z^2", ring_xyzw),
            parse_poly("y + 1/2z^6 + z^4", ring_xyzw),
            parse_poly("w + z^3 + z", ring_xyzw),
        ]
        assert res.optimal and res.affine_cell
        assert certify_optimal(res, twisted_curve)
        assert certify_affine_cell(res, twisted_curve) is True

    def test_parabola(self):
        ring = parse_ring("ring x1, x2;")
        gens = [parse_poly("x1 - x2^2", ring)]
        report = find_reembedding_via_gfan(gens, s=1)
        assert report.status == "found"
        assert report.result.Z == (0,)

    def test_negative_control_not_affine_cell(self, ring_xyz):
        # dropping to the plane leaves a nonzero relation behind
        gens = [parse_poly("x - y^2", ring_xyz),
                parse_poly("y^4 + y^2", ring_xyz)]
        report = find_reembedding_via_gfan(gens, s=1)
        assert report.status == "found"
        res = report.result
        assert res.z_labels() == ("x",)
        assert not res.affine_cell
        assert certify_affine_cell(res, gens) is False
        assert res.elimination_gens == [parse_poly("y^4 + y^2", ring_xyz)]

    def test_affine_cell_certificate_must_agree(self, ring_xyz,
                                                twisted_curve):
        # the substitution and the elimination basis decide the same flag;
        # a certificate that disagrees either way trips the cross-check
        gens = [parse_poly("x - y^2", ring_xyz),
                parse_poly("y^4 + y^2", ring_xyz)]
        res = find_reembedding_via_gfan(gens, s=1).result
        with pytest.raises(AssertionError):
            certify_affine_cell(replace(res, elimination_gens=[]), gens)
        res = find_reembedding_via_gfan(twisted_curve, s=3).result
        res.elimination_gens = [twisted_curve[0]]
        with pytest.raises(AssertionError):
            certify_affine_cell(res, twisted_curve)

    def test_inconclusive_on_budget(self, curve10):
        report = find_reembedding_via_gfan(curve10, s=1, limit=0)
        assert report.status == "inconclusive"
        assert report.unverified

    def test_rejects_trivial_cases(self):
        ring = parse_ring("ring x, y;")
        with pytest.raises(ValueError):
            find_reembedding_via_gfan([parse_poly("x", ring),
                                       parse_poly("y", ring)])
        single = Ring(["x"])
        with pytest.raises(ValueError):
            find_reembedding_via_gfan([Poly.variable(single, 0)])

    def test_candidate_completeness_brute_force(self):
        # every separating tuple found by exhaustive search over all
        # s-subsets must appear among the fan candidates
        rng = random.Random(61)
        for _ in range(12):
            ring = Ring([f"v{i}" for i in range(rng.randint(2, 5))])
            gens = _random_m_ideal(rng, ring)
            lin = linear_part_of_ideal(gens)
            s = len(lin)
            if s == 0:
                continue
            candidates = set(candidate_tuples_via_gfan(gens, s))
            for Z in combinations(range(ring.n), s):
                check = check_Z_separating(gens, Z)
                assert check.status in ("yes", "no")
                if check.yes:
                    assert Z in candidates


def _random_m_ideal(rng, ring, max_gens=3):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        p = Poly.zero(ring)
        for _ in range(rng.randint(1, 3)):
            t = [0] * ring.n
            for _ in range(rng.randint(1, 2)):
                t[rng.randrange(ring.n)] += 1
            p = p + Poly(ring, {tuple(t): rng.randint(-3, 3)})
        if not p.is_zero():
            gens.append(p)
    if not gens:
        gens = [Poly.variable(ring, 0) - Poly.variable(ring, 1) ** 2]
    return gens


class TestViaCotangent:
    def test_graph_surface(self, ring_xyzw, graph_surface):
        report = find_reembedding_via_cotangent(graph_surface)
        assert report.status == "all"
        assert len(report.results) == 1
        res = report.results[0]
        assert res.z_labels() == ("x", "y")
        assert res.optimal and res.affine_cell
        assert certify_affine_cell(res, graph_surface) is True

    def test_no_proper_classes_and_empty_trivial(self):
        ring = parse_ring("ring a, b;")
        # x^2-style generators: no linear part at all
        gens = [parse_poly("a*b", ring)]
        report = find_reembedding_via_cotangent(gens)
        assert report.results == [] and report.status == "not_found"

    def test_matches_gfan_candidates_on_binomial_parts(self):
        rng = random.Random(62)
        for _ in range(10):
            n = rng.randint(2, 7)
            ring = Ring([f"v{i}" for i in range(n)])
            gens = _random_binomial_part_ideal(rng, ring)
            lin = linear_part_of_ideal(gens)
            if not lin:
                continue
            classes = cotangent_classes(lin, ring)
            a = set(candidate_tuples_via_cotangent(classes))
            b = set(candidate_tuples_via_gfan(gens))
            assert a == b


def _random_binomial_part_ideal(rng, ring, max_gens=4):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        i = rng.randrange(ring.n)
        j = rng.randrange(ring.n)
        lin = Poly.variable(ring, i)
        if i != j and rng.random() < 0.8:
            lin = lin - Poly.variable(ring, j) * rng.choice([1, 1, 2])
        quad = Poly.zero(ring)
        if rng.random() < 0.7:
            t = [0] * ring.n
            t[rng.randrange(ring.n)] += 1
            t[rng.randrange(ring.n)] += 1
            quad = Poly(ring, {tuple(t): rng.randint(-2, 2)})
        gens.append(lin + quad)
    return gens


class TestCertificates:
    def test_optimal_size_check(self, ring_xyzw, twisted_curve):
        report = find_reembedding_via_gfan(twisted_curve, s=2)
        if report.status == "found":
            assert not certify_optimal(report.result, twisted_curve)

    def test_membership_of_substituted_generators(self, ring_xyzw,
                                                  twisted_curve):
        # composing the substitution into the original generators lands in
        # the elimination ideal (here: zero)
        report = find_reembedding_via_gfan(twisted_curve, s=3)
        res = report.result
        for g in twisted_curve:
            img = g.substitute(res.substitution)
            assert img.is_zero()


class TestLinearPartOnce:
    """A search reduces the linear part of its generators once."""

    @pytest.fixture
    def lin_calls(self, monkeypatch):
        calls = []
        original = search.linear_part_of_ideal

        def counting(gens):
            calls.append(len(gens))
            return original(gens)

        monkeypatch.setattr(search, "linear_part_of_ideal", counting)
        return calls

    def test_gfan_search(self, lin_calls, twisted_curve):
        find_reembedding_via_gfan(twisted_curve, s=3)
        assert len(lin_calls) == 1

    def test_cotangent_search_with_linear_generators(self, lin_calls):
        ring = parse_ring("ring x, y, z, w;")
        gens = [parse_poly(s, ring) for s in ("x - y", "z - 2w")]
        report = find_reembedding_via_cotangent(gens)
        assert report.status == "all"
        assert len(lin_calls) == 1

    def test_cotangent_search_falling_back_to_the_fan(self, lin_calls):
        ring = parse_ring("ring x, y, z, w;")
        gens = [parse_poly("x + y - z + w^2", ring)]
        with pytest.warns(UserWarning, match="not binomial"):
            report = find_reembedding_via_cotangent(gens)
        assert report.results
        assert len(lin_calls) == 1


# ---------- "yes" tuples against sympy on hidden-tuple ideals ----------

Z_LABELS = ("a", "b")
Y_LABELS = ("x", "y", "z")


def sympy_expr(text, symbols):
    """A polynomial printed by reembed (``1/2x^2*y``) as a sympy
    expression: juxtaposed coefficients get a ``*``, ``^`` becomes ``**``."""
    text = re.sub(r"(\d)([A-Za-z])", r"\1*\2", text).replace("^", "**")
    return sympy.sympify(text, locals=symbols)


@st.composite
def hidden_tuple_ideals(draw):
    """(ring text, generator texts): z_i - h_i(Y) for hidden Z, an optional
    relation among Y, each generator plus multiples of the later ones.

    h_i has at most one linear term, so the linear part stays binomial and
    both searches run on their own candidates.
    """
    k = draw(st.integers(1, 2))
    m = draw(st.integers(2, 3))
    zs, ys = Z_LABELS[:k], Y_LABELS[:m]
    coeff = st.integers(-3, 3).filter(bool)

    def monomial(labels, degree):
        factors = draw(st.lists(st.sampled_from(labels), min_size=degree,
                                max_size=degree))
        return f"({draw(coeff)})*" + "*".join(factors)

    def image():
        terms = [monomial(ys, draw(st.integers(2, 3)))
                 for _ in range(draw(st.integers(0, 2)))]
        if draw(st.booleans()):
            terms.append(monomial(ys, 1))
        return " + ".join(terms) or "0"

    base = [f"{z} - ({image()})" for z in zs]
    if draw(st.booleans()):
        base.append(monomial(ys, draw(st.integers(2, 3))))
    gens = []
    for i, g in enumerate(base):
        for later in base[i + 1:]:
            if draw(st.booleans()):
                g = f"{g} + ({monomial(zs + ys, 1)})*({later})"
        gens.append(g)
    order = draw(st.permutations(zs + ys))
    return order, [gens[i] for i in draw(st.permutations(range(len(gens))))]


class TestYesTuplesAgainstSympy:
    """Every "yes" tuple Z with images h: each z - h(Y) lies in the ideal,
    by sympy's reduced basis, and no h involves an indeterminate of Z.  Its
    flags agree with sympy: ``affine_cell`` exactly when substituting h
    kills every generator, ``optimal`` exactly when Z has the rank of the
    generators' linear coefficients; and with the ``certify_*``
    cross-checks."""

    @pytest.mark.parametrize("modulus", (None, 101))
    @given(ideal=hidden_tuple_ideals())
    def test_yes_tuples_are_sound(self, modulus, ideal):
        order, texts = ideal
        mod = f" mod {modulus}" if modulus else ""
        ring = parse_ring(f"ring {', '.join(order)}{mod};")
        gens = [parse_poly(t, ring) for t in texts]
        gens = [g for g in gens if g]
        if not gens:
            return
        results = (find_reembedding_via_gfan(gens).results
                   + find_reembedding_via_cotangent(gens).results)
        if not results:
            return
        symbols = {s: sympy.Symbol(s) for s in order}
        syms = list(symbols.values())
        domain = {"modulus": modulus} if modulus else {"domain": "QQ"}
        exprs = [sympy_expr(str(g), symbols) for g in gens]
        gb = sympy.groebner(exprs, *syms, order="grevlex", **domain)
        linear = [[sympy.Poly(e, *syms, **domain).coeff_monomial(x)
                   for x in syms] for e in exprs]
        if modulus:
            field = sympy.GF(modulus)
            rank = DomainMatrix([[field(int(c)) for c in row]
                                 for row in linear],
                                (len(linear), len(syms)), field).rank()
        else:
            rank = sympy.Matrix(linear).rank()
        for res in results:
            zset = {symbols[s] for s in res.z_labels()}
            images = {}
            for z, h in res.substitution.items():
                image = sympy_expr(str(h), symbols)
                assert not image.free_symbols & zset
                member = symbols[ring.labels[z]] - image
                assert gb.reduce(member)[1] == 0
                images[symbols[ring.labels[z]]] = image
            killed = all(sympy.Poly(e.xreplace(images), *syms,
                                    **domain).is_zero for e in exprs)
            assert res.affine_cell == killed
            assert res.optimal == (len(res.Z) == rank)
            assert res.affine_cell == certify_affine_cell(res, gens)
            assert res.optimal == certify_optimal(res, gens)
