"""Polynomial arithmetic, orderings, linear parts, and the text grammar."""

import random

import pytest

from reembed.field import QQ, PrimeField
from reembed.ordering import (
    TermOrdering,
    degrevlex,
    degrevlex_key,
    elimination_for,
    lex,
)
from reembed.parse import ParseError, parse_poly, parse_ring, parse_term
from reembed.poly import Poly, linear_part_of_ideal
from reembed.ring import Ring


def p(ring, s):
    return parse_poly(s, ring)


# ---------- orderings ----------

class TestOrderingCmp:
    def test_degrevlex_same_degree_tiebreak(self):
        o = degrevlex(2)
        # x^2 y against x^3: equal degree, revlex prefers the smaller
        # last exponent, so x^3 is the larger term.
        assert o.key((2, 1)) < o.key((3, 0))

    def test_reflexive(self):
        # keys compare equal exactly on equal terms
        o = degrevlex(3)
        box = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
        assert o.key((1, 2, 3)) == o.key((1, 2, 3))
        assert len({o.key(t) for t in box}) == len(box)

    def test_elimination_dominates_pure_tail_terms(self, ring_xyz):
        # Oracle for the block construction: a term containing the
        # eliminated indeterminate must exceed any power of the others.
        o = elimination_for(ring_xyz, ["x"])
        assert o.key((1, 0, 0)) > o.key((0, 9, 0))
        for k in range(1, 20):
            assert o.key((1, 0, 0)) > o.key((0, k, 0))
            assert o.key((1, 0, 0)) > o.key((0, 0, k))

    def test_multiplicative_compatibility(self):
        rng = random.Random(7)
        for o in (degrevlex(4), lex(4), elimination_for(Ring("abcd"), ["b", "d"])):
            for _ in range(200):
                s = tuple(rng.randrange(4) for _ in range(4))
                t = tuple(rng.randrange(4) for _ in range(4))
                u = tuple(rng.randrange(4) for _ in range(4))
                su = tuple(a + b for a, b in zip(s, u))
                tu = tuple(a + b for a, b in zip(t, u))
                ks, kt = o.key(s), o.key(t)
                ksu, ktu = o.key(su), o.key(tu)
                assert (ks > kt) == (ksu > ktu) and (ks < kt) == (ksu < ktu)
                # 1 is minimal
                assert o.key(s) >= o.key((0, 0, 0, 0))

    def test_key_agrees_with_matrix_rows(self):
        # the fast key paths must induce exactly the matrix ordering
        rng = random.Random(11)
        ring = Ring("vwxyz")
        for o in (degrevlex(5), lex(5), elimination_for(ring, ["w", "y"]),
                  elimination_for(ring, ["v"])):
            for _ in range(300):
                t = tuple(rng.randrange(5) for _ in range(5))
                full = tuple(sum(w * e for w, e in zip(row, t)) for row in o.rows)
                s = tuple(rng.randrange(5) for _ in range(5))
                full_s = tuple(sum(w * e for w, e in zip(row, s)) for row in o.rows)
                assert (o.key(t) < o.key(s)) == (full < full_s)


class TestEliminationConstruction:
    def test_block_matrix_single_indeterminate(self, ring_xyz):
        o = elimination_for(ring_xyz, ["x"])
        assert o.rows == ((1, 0, 0), (0, 1, 1), (0, 0, -1))

    def test_leading_term_of_mixed_polynomial(self, ring_xyzw):
        o = elimination_for(ring_xyzw, ["x", "y", "w"])
        f = p(ring_xyzw, "x - y - w^2")
        t, c = f.leading_term(o)
        assert t == (1, 0, 0, 0) and c == 1

    def test_full_block_equals_degrevlex(self):
        ring = Ring("abcde")
        o = elimination_for(ring, list("abcde"))
        assert o.rows == degrevlex(5).rows

    def test_duplicates_and_unknown_names_rejected(self, ring_xyz):
        with pytest.raises(ValueError):
            elimination_for(ring_xyz, ["x", "x"])
        with pytest.raises(ValueError):
            elimination_for(ring_xyz, ["q"])

    def test_invalid_matrix_rejected(self):
        from reembed.ordering import TermOrdering
        with pytest.raises(ValueError):
            TermOrdering([[1, 1], [2, 2]])  # rank 1
        with pytest.raises(ValueError):
            TermOrdering([[1, 0], [0, -1]][::-1])  # negative first weight


class TestLeadingTerm:
    def test_degrevlex_picks_top_degree(self, ring_xyzw):
        f = p(ring_xyzw, "w^2 + x - y + 3z")
        t, c = f.leading_term(degrevlex(4))
        assert t == (0, 0, 0, 2) and c == 1

    def test_elimination_picks_marked_indeterminate(self, ring_xyz):
        ring = parse_ring("ring x, y;")
        f = p(ring, "x - y^2")
        t, c = f.leading_term(elimination_for(ring, ["x"]))
        assert t == (1, 0) and c == 1

    def test_constant(self, ring_xyz):
        f = p(ring_xyz, "5")
        t, c = f.leading_term(degrevlex(3))
        assert t == (0, 0, 0) and c == 5

    def test_zero_rejected(self, ring_xyz):
        with pytest.raises(ValueError):
            Poly.zero(ring_xyz).leading_term(degrevlex(3))


# ---------- arithmetic ----------

class TestArithmetic:
    def test_add_sub_roundtrip(self, ring_xyz):
        rng = random.Random(3)
        for _ in range(50):
            f = _random_poly(ring_xyz, rng)
            g = _random_poly(ring_xyz, rng)
            assert (f + g) - g == f

    def test_mul_commutes(self, ring_xyz):
        rng = random.Random(4)
        for _ in range(30):
            f = _random_poly(ring_xyz, rng)
            g = _random_poly(ring_xyz, rng)
            assert f * g == g * f

    def test_distributive(self, ring_xyz):
        rng = random.Random(5)
        for _ in range(30):
            f = _random_poly(ring_xyz, rng)
            g = _random_poly(ring_xyz, rng)
            h = _random_poly(ring_xyz, rng)
            assert f * (g + h) == f * g + f * h

    def test_exact_rationals_no_rounding(self, ring_xyz):
        f = p(ring_xyz, "1/3x + 1/7")
        g = f * 21
        assert g == p(ring_xyz, "7x + 3")
        big = f ** 6
        small = big.constant_coefficient()
        assert small * 7 ** 6 == 1

    def test_power(self, ring_xyz):
        f = p(ring_xyz, "x + y")
        assert f ** 0 == Poly.constant(ring_xyz, 1)
        assert f ** 3 == p(ring_xyz, "x^3 + 3x^2*y + 3x*y^2 + y^3")

    def test_prime_field_arithmetic(self):
        ring = parse_ring("ring x, y mod 7;")
        f = parse_poly("3x + 5", ring)
        g = parse_poly("5x + 4", ring)
        assert f * g == parse_poly("x^2 + 2x + 6", ring)
        assert (f * g) - f * g == Poly.zero(ring)

    def test_float_rejected(self, ring_xyz):
        with pytest.raises(TypeError):
            Poly.constant(ring_xyz, 0.5)


def _random_poly(ring, rng, max_terms=5, max_deg=3):
    items = {}
    for _ in range(rng.randrange(max_terms + 1)):
        t = tuple(rng.randrange(max_deg) for _ in range(ring.n))
        items[t] = rng.randint(-8, 8)
    return Poly(ring, items)


class TestDegrevlexKey:
    def test_shared_key_is_the_weight_matrix_key(self):
        rng = random.Random(31)
        for n in range(1, 9):
            o = degrevlex(n)
            for _ in range(40):
                t = tuple(rng.randrange(5) for _ in range(n))
                by_rows = tuple(sum(w * e for w, e in zip(row, t))
                                for row in o.rows)
                assert degrevlex_key(t) == o.key(t) == by_rows

    def test_default_printing_and_support_order(self):
        rng = random.Random(32)
        for n in range(1, 9):
            ring = Ring([f"x{i}" for i in range(n)])
            by_rows = TermOrdering(degrevlex(n).rows)
            for _ in range(20):
                f = _random_poly(ring, rng)
                assert f.to_string() == f.to_string(degrevlex(n))
                assert f.to_string() == f.to_string(by_rows)
                assert sorted(f.coeffs, key=degrevlex_key, reverse=True) \
                    == sorted(f.coeffs, key=by_rows.key, reverse=True)


# ---------- linear parts ----------

class TestLinearPart:
    def test_basic(self, ring_xyzw):
        assert p(ring_xyzw, "x - y - w^2").linear_part() == p(ring_xyzw, "x - y")
        assert p(ring_xyzw, "z + w + z^3").linear_part() == p(ring_xyzw, "z + w")

    def test_homogeneous_quadratic_is_zero(self, ring_xyz):
        assert p(ring_xyz, "x*y + z^2").linear_part().is_zero()

    def test_constant_term_rejected(self, ring_xyz):
        with pytest.raises(ValueError):
            p(ring_xyz, "x + 1").linear_part()

    def test_linearity(self, ring_xyz):
        rng = random.Random(6)
        for _ in range(40):
            f = _random_poly(ring_xyz, rng)
            g = _random_poly(ring_xyz, rng)
            f = f - Poly.constant(ring_xyz, f.constant_coefficient())
            g = g - Poly.constant(ring_xyz, g.constant_coefficient())
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            lhs = (f * a + g * b).linear_part()
            rhs = f.linear_part() * a + g.linear_part() * b
            assert lhs == rhs


class TestLinearPartOfIdeal:
    def test_curve_in_4_space(self, ring_xyzw, twisted_curve):
        basis = linear_part_of_ideal(twisted_curve)
        assert basis == [p(ring_xyzw, "x"), p(ring_xyzw, "y"),
                         p(ring_xyzw, "z + w")]

    def test_no_linear_part(self, ring_xyz):
        ring = parse_ring("ring x, y;")
        assert linear_part_of_ideal([parse_poly("x^2 - y^3", ring)]) == []

    def test_invariant_under_recombination(self, ring_xyzw, twisted_curve):
        # Re-generating the ideal with an invertible recombination of the
        # generators must give the same canonical basis.
        rng = random.Random(12)
        base = linear_part_of_ideal(twisted_curve)
        for _ in range(20):
            gens = list(twisted_curve)
            for _ in range(6):
                i, j = rng.randrange(len(gens)), rng.randrange(len(gens))
                if i != j:
                    gens[i] = gens[i] + gens[j] * rng.randint(-3, 3)
                else:
                    gens[i] = gens[i] * rng.choice([1, -1, 2, 3])
            assert linear_part_of_ideal(gens) == base

    def test_generator_with_constant_term_rejected(self, ring_xyz):
        with pytest.raises(ValueError):
            linear_part_of_ideal([p(ring_xyz, "x + 1")])


# ---------- parsing and printing ----------

class TestParse:
    def test_ring_declaration(self):
        ring = parse_ring("ring x, y, z, w;")
        assert ring.labels == ("x", "y", "z", "w")
        assert ring.field == QQ

    def test_ring_mod_p(self):
        ring = parse_ring("ring a, b mod 13;")
        assert ring.field == PrimeField(13)

    def test_rational_coefficients_and_juxtaposition(self, ring_xyzw):
        f = p(ring_xyzw, "w + 1/2y")
        assert f.coeffs == {(0, 1, 0, 0): QQ.of("1/2"), (0, 0, 0, 1): 1}
        assert p(ring_xyzw, "2w") == Poly.variable(ring_xyzw, 3) * 2
        assert p(ring_xyzw, "x y") == p(ring_xyzw, "x*y")

    def test_caret_and_parens(self, ring_xyz):
        assert p(ring_xyz, "(x + y)^2") == p(ring_xyz, "x^2 + 2x*y + y^2")
        assert p(ring_xyz, "-x^2") == -p(ring_xyz, "x^2")

    def test_errors_carry_position(self, ring_xyz):
        with pytest.raises(ParseError) as e:
            parse_poly("x + q", ring_xyz)
        assert e.value.line == 1 and e.value.col == 5
        with pytest.raises(ParseError):
            parse_poly("", ring_xyz)
        with pytest.raises(ParseError):
            parse_poly("x ^ -2", ring_xyz)

    def test_parse_term(self, ring_xyz):
        assert parse_term("x*y^2", ring_xyz) == (1, 2, 0)
        with pytest.raises(ParseError):
            parse_term("2x", ring_xyz)

    def test_print_parse_roundtrip(self, ring_xyzw):
        rng = random.Random(9)
        for _ in range(120):
            f = _random_poly(ring_xyzw, rng)
            num = rng.randint(-7, 7)
            den = rng.randint(1, 9)
            f = f * QQ.of(f"{num}/{den}")
            assert parse_poly(f.to_string(), ring_xyzw) == f

    def test_roundtrip_with_rational_coefficients(self, ring_xyzw):
        f = p(ring_xyzw, "x - 1/2z^6 - z^4 - z^2")
        assert parse_poly(f.to_string(), ring_xyzw) == f
