"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every expected value is exact (rational arithmetic, zero tolerance); the
timing bounds are part of the criteria.  Run with -s to watch the lines.
"""

import random
import time
from itertools import combinations

import pytest

from reembed.border_basis import BorderBasisScheme, order_ideal
from reembed.cotangent import (
    cotangent_classes,
    enumerate_ltgfan_binomial,
    sigma_leading_S,
)
from reembed.groebner import (
    SeparatingTuple,
    buchberger,
    check_Z_separating,
    check_regular_sequence,
    coherent_interreduce,
    eliminate_by_substitution,
)
from reembed.linear_gfan import CoeffMatrix, gfan_linear, ltgfan_linear, matroid_bases
from reembed.ordering import degrevlex, elimination_for
from reembed.parse import parse_poly
from reembed.poly import Poly, linear_part_of_ideal
from reembed.ring import Ring
from reembed.search import (
    candidate_tuples_via_gfan,
    certify_affine_cell,
    certify_optimal,
    find_reembedding_via_cotangent,
    find_reembedding_via_gfan,
)

from test_linear_gfan import oracle_bases

TIMINGS = {}


def _crit(number, label, elapsed, bound):
    TIMINGS[number] = elapsed
    line = f"ACCEPTANCE {number} PASS ({elapsed:.3f}s < {bound}s): {label}"
    print(line)
    assert elapsed < bound, f"criterion {number} exceeded {bound}s: {elapsed:.3f}s"


def test_criterion_1_linear_fan_exact(ring_xyzw, fan24):
    t0 = time.perf_counter()
    fan = gfan_linear(fan24)
    elapsed = time.perf_counter() - t0
    expect = [
        [("x", "x - z + 2w"), ("y", "y + 2w")],
        [("x", "x - y - z"), ("w", "w + 1/2y")],
        [("y", "y + 2w"), ("z", "z - x - 2w")],
        [("y", "y - x + z"), ("w", "w + 1/2x - 1/2z")],
        [("z", "z - x + y"), ("w", "w + 1/2y")],
    ]
    assert len(fan) == 5
    for gb, exp in zip(fan, expect):
        exp_pairs = tuple((ring_xyzw.index(m), parse_poly(s, ring_xyzw))
                          for m, s in exp)
        assert gb.pairs == exp_pairs
    _crit(1, "fan of two linear forms, 5 exact marked bases", elapsed, 0.1)


def test_criterion_2_elimination_basis(ring_xyz, curve10):
    t0 = time.perf_counter()
    gb = buchberger(curve10, elimination_for(ring_xyz, ["x"]))
    check = check_Z_separating(curve10, ["x"])
    elapsed = time.perf_counter() - t0
    assert gb.complete
    assert gb.basis == [parse_poly("x - y^2", ring_xyz),
                        parse_poly("y^4 + y^2", ring_xyz)]
    assert check.yes
    _crit(2, "ten generators collapse to {x - y^2, y^4 + y^2}; separating",
          elapsed, 1.0)


def test_criterion_3_fan_search_pipeline(ring_xyzw, twisted_curve):
    t0 = time.perf_counter()
    report = find_reembedding_via_gfan(twisted_curve, s=3)
    res = report.result
    cell = certify_affine_cell(res, twisted_curve)
    elapsed = time.perf_counter() - t0
    assert report.tried[0] == (ring_xyzw.indices(("x", "y", "z")), "no")
    assert report.tried[1] == (ring_xyzw.indices(("x", "y", "w")), "yes")
    assert res.certificate.basis == [
        parse_poly("x - 1/2z^6 - z^4 - z^2", ring_xyzw),
        parse_poly("y + 1/2z^6 + z^4", ring_xyzw),
        parse_poly("w + z^3 + z", ring_xyzw),
    ]
    assert cell is True
    _crit(3, "fan search rejects (x,y,z), accepts (x,y,w), exact basis",
          elapsed, 1.0)


def test_criterion_4_substitution_elimination(ring_xyzw, graph_surface):
    t0 = time.perf_counter()
    f1, f2, f3 = graph_surface
    tup = coherent_interreduce(SeparatingTuple(
        ring_xyzw, ring_xyzw.indices(("x", "y")), (f1, f2)))
    images = eliminate_by_substitution(graph_surface, tup)
    regular = check_regular_sequence(list(tup.polys))
    elapsed = time.perf_counter() - t0
    assert tup.polys[0] == parse_poly("z*w^2 + w^3 + w^2 + x + 3z", ring_xyzw)
    assert f3.substitute(tup.substitution()).is_zero()
    assert images == []
    assert regular is True
    report = find_reembedding_via_cotangent(graph_surface)
    assert certify_affine_cell(report.results[0], graph_surface) is True
    _crit(4, "interreduction, substitution to zero, regular sequence",
          elapsed, 1.0)


EXPECTED_E0 = {
    "c11", "c12", "c13", "c14", "c15", "c21", "c22", "c23", "c24", "c25",
    "c31", "c32", "c33", "c34", "c35", "c42", "c44", "c45", "c55", "c65"}
EXPECTED_BASIC = {
    "c53", "c61", "c62", "c63", "c64", "c71", "c72", "c73", "c74",
    "c81", "c82", "c83", "c84"}
EXPECTED_S_SIGMA = EXPECTED_E0 | {"c41", "c43", "c51", "c52"}
EXPECTED_LINEAR_BASIS = [
    "c65", "c51 - c85", "c45", "c44", "c55", "c43 - c54", "c42",
    "c41 - c75", "c52 - c75", "c35", "c34", "c33", "c31", "c25", "c24",
    "c23", "c22", "c21", "c32", "c15", "c14", "c13", "c12", "c11",
]


def test_criterion_5_border_basis_scheme_full_run():
    t0 = time.perf_counter()
    O = order_ideal([(0, 3), (1, 2), (2, 0)], 2)
    scheme = BorderBasisScheme(O)
    gens = scheme.defining_ideal()
    assert scheme.mu == 8 and scheme.nu == 5
    assert scheme.cring.n == 40
    assert len(gens) == 32

    lin = linear_part_of_ideal(gens)
    assert len(lin) == 24
    expected = [parse_poly(s, scheme.cring) for s in EXPECTED_LINEAR_BASIS]
    canon = lambda ps: sorted(tuple(sorted(p.coeffs.items())) for p in ps)
    assert canon(lin) == canon(expected)

    classes = scheme.cotangent()
    assert set(classes.labels(classes.trivial)) == EXPECTED_E0
    assert [set(classes.labels(e)) for e in classes.proper] == [
        {"c41", "c52", "c75"}, {"c43", "c54"}, {"c51", "c85"}]
    assert set(classes.labels(classes.basic)) == EXPECTED_BASIC
    assert len(classes.basic) == 13
    assert classes.basic <= scheme.rim_cvar_indices()
    assert classes.fan_size() == 12
    assert len(enumerate_ltgfan_binomial(classes)) == 12

    s_sigma = sigma_leading_S(classes, degrevlex(scheme.cring.n))
    assert {scheme.cring.labels[i] for i in s_sigma} == EXPECTED_S_SIGMA
    assert len(s_sigma) == 24 == (len(classes.trivial)
                                  + sum(len(e) for e in classes.proper)
                                  - len(classes.proper))

    report = find_reembedding_via_cotangent(gens)
    assert report.status == "all"
    assert len(report.results) == 12
    for res in report.results:
        assert len(res.Z) == 24
        assert len(res.Y) == 16
        assert certify_optimal(res, gens)
        assert certify_affine_cell(res, gens) is True
    elapsed = time.perf_counter() - t0
    _crit(5, "staircase scheme: 12 optimal tuples, all affine cells",
          elapsed, 60.0)


def test_criterion_6i_matroid_bases_vs_oracle():
    rng = random.Random(601)
    t0 = time.perf_counter()
    done = 0
    while done < 200:
        r = rng.randint(1, 4)
        n = rng.randint(r, 9)
        ring = Ring([f"x{i}" for i in range(n)])
        rows = [[ring.field.of(f"{rng.randint(-6, 6)}/{rng.randint(1, 4)}")
                 for _ in range(n)] for _ in range(r)]
        A = CoeffMatrix(ring, rows)
        if A.row_rank() != r:
            continue
        done += 1
        expect = oracle_bases(A)
        assert matroid_bases(A) == expect
    elapsed = time.perf_counter() - t0
    TIMINGS["6i"] = elapsed
    print(f"ACCEPTANCE 6(i) PASS ({elapsed:.1f}s): 200 matrices vs "
          "exhaustive-minor oracle")


def test_criterion_6ii_binomial_fan_closed_form():
    rng = random.Random(602)
    t0 = time.perf_counter()
    done = 0
    while done < 100:
        n = rng.randint(2, 12)
        ring = Ring([f"x{i}" for i in range(n)])
        forms = []
        for _ in range(rng.randint(1, max(1, n // 2))):
            i = rng.randrange(n)
            if rng.random() < 0.25:
                forms.append(Poly.variable(ring, i) * rng.choice([1, 2, -1]))
            else:
                j = rng.randrange(n)
                if j == i:
                    j = (i + 1) % n
                forms.append(Poly.variable(ring, i) * rng.choice([1, -2, 3])
                             + Poly.variable(ring, j) * rng.choice([1, -1, 2]))
        basis = linear_part_of_ideal(forms)
        if not basis:
            continue
        done += 1
        classes = cotangent_classes(basis, ring)
        closed = set(enumerate_ltgfan_binomial(classes))
        direct = set(ltgfan_linear(basis, ring=ring))
        assert closed == direct
        assert len(closed) == classes.fan_size()
    elapsed = time.perf_counter() - t0
    TIMINGS["6ii"] = elapsed
    print(f"ACCEPTANCE 6(ii) PASS ({elapsed:.1f}s): 100 binomial fans, "
          "closed form == matrix fan == product law")


def test_criterion_6iii_candidate_completeness():
    rng = random.Random(603)
    t0 = time.perf_counter()
    done = 0
    while done < 50:
        n = rng.randint(2, 6)
        ring = Ring([f"x{i}" for i in range(n)])
        gens = []
        for _ in range(rng.randint(1, 3)):
            p = Poly.zero(ring)
            for _ in range(rng.randint(1, 3)):
                t = [0] * n
                for _ in range(rng.randint(1, 2)):
                    t[rng.randrange(n)] += 1
                p = p + Poly(ring, {tuple(t): rng.randint(-3, 3)})
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        lin = linear_part_of_ideal(gens)
        s = len(lin)
        if s == 0 or s == n:
            continue
        done += 1
        candidates = set(candidate_tuples_via_gfan(gens, s))
        for Z in combinations(range(n), s):
            check = check_Z_separating(gens, Z)
            assert check.status in ("yes", "no")
            if check.yes:
                assert Z in candidates, (gens, Z)
    elapsed = time.perf_counter() - t0
    TIMINGS["6iii"] = elapsed
    print(f"ACCEPTANCE 6(iii) PASS ({elapsed:.1f}s): 50 ideals, brute-force "
          "separating tuples all inside the fan candidate set")


def test_criterion_6iv_structure_verifier_corpus():
    rng = random.Random(604)
    t0 = time.perf_counter()
    done = 0
    while done < 30:
        gens = [(rng.randint(0, 4), rng.randint(0, 4))
                for _ in range(rng.randint(1, 3))]
        O = order_ideal(gens, 2)
        done += 1
        report = BorderBasisScheme(O).verify_structure()
        assert report.all_pass, report.failures
    elapsed = time.perf_counter() - t0
    TIMINGS["6iv"] = elapsed
    print(f"ACCEPTANCE 6(iv) PASS ({elapsed:.1f}s): 30 random order ideals, "
          "all structural checks pass")


def test_criterion_6_total_budget():
    total = sum(TIMINGS.get(k, 0.0) for k in ("6i", "6ii", "6iii", "6iv"))
    print(f"ACCEPTANCE 6 PASS ({total:.1f}s < 300s): property suite total")
    assert total < 300.0


def test_criterion_7_negative_control(ring_xyz):
    gens = [parse_poly("x - y^2", ring_xyz),
            parse_poly("y^4 + y^2", ring_xyz)]
    report = find_reembedding_via_gfan(gens, s=1)
    res = report.result
    assert res.z_labels() == ("x",)
    assert certify_affine_cell(res, gens) is False
    assert res.elimination_gens == [parse_poly("y^4 + y^2", ring_xyz)]
    print("ACCEPTANCE 7 PASS: affine-cell criterion rejects the plane curve")
