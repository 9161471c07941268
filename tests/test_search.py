"""The re-embedding searches and their certificates."""

import random
from itertools import combinations

import pytest

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
            a = set(candidate_tuples_via_cotangent(classes, True))
            b = set(candidate_tuples_via_gfan(gens))
            assert a == b

    def test_nonoptimal_enumeration(self):
        ring = parse_ring("ring a, b, c;")
        gens = [parse_poly("a - b + a*c", ring)]
        lin = linear_part_of_ideal(gens)
        classes = cotangent_classes(lin, ring)
        cands = candidate_tuples_via_cotangent(classes, optimal_only=False)
        # proper class {a, b}: proper subsets {}, {a}, {b}; no trivial class
        assert sorted(set(cands)) == [(0,), (1,)]


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
