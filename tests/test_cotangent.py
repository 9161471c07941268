"""Cotangent equivalence classes and the closed-form leading-term fan."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from reembed.cotangent import (
    CotangentClasses,
    cotangent_classes,
    enumerate_ltgfan_binomial,
    sigma_leading_S,
)
from reembed.field import QQ, PrimeField
from reembed.linear_gfan import ltgfan_linear
from reembed.ordering import degrevlex, lex
from reembed.parse import parse_poly
from reembed.poly import Poly, linear_part_of_ideal
from reembed.ring import Ring, tvar


def forms(ring, texts):
    return [parse_poly(s, ring) for s in texts]


def support_union(lin_basis, ring):
    """The indeterminates in the support of the reduced basis of the span.

    The reduced basis is canonical, so the union does not depend on the
    generating set.  For a binomial part the complement is exactly the set
    of basic indeterminates; for others it need not be: on a + b + c the
    support and the basic set are both {a, b, c}.
    """
    return frozenset(i for f in linear_part_of_ideal(lin_basis)
                     for t in f.coeffs for i in range(ring.n) if t[i])


def random_binomial_forms(rng, ring, count):
    out = []
    for _ in range(count):
        i = rng.randrange(ring.n)
        if rng.random() < 0.3:
            out.append(Poly.variable(ring, i) * rng.choice([1, 2, -1, 3]))
        else:
            j = rng.randrange(ring.n)
            while j == i:
                j = rng.randrange(ring.n)
            a = rng.choice([1, -1, 2, -3])
            b = rng.choice([1, -1, 2, 5])
            out.append(Poly.variable(ring, i) * a + Poly.variable(ring, j) * b)
    return out


class TestClasses:
    def test_single_monomial(self):
        ring = Ring(["x1", "x2"])
        c = cotangent_classes([Poly.variable(ring, 0)], ring)
        assert c.trivial == {0} and c.basic == {1} and c.proper == ()

    def test_chain_makes_one_proper_class(self):
        ring = Ring(["x1", "x2", "x3", "x4"])
        c = cotangent_classes(forms(ring, ["x1 - x2", "x2 - x3"]), ring)
        assert c.trivial == frozenset()
        assert c.basic == {3}
        assert c.proper == (frozenset({0, 1, 2}),)

    def test_chain_agrees_with_residue_rank_oracle(self):
        # the classes depend only on the span: a basis of the same span with
        # a non-binomial member reduces to the same echelon rows
        ring = Ring(["x1", "x2", "x3", "x4"])
        fs = forms(ring, ["x1 - x2", "x2 - x3"])
        fast = cotangent_classes(fs, ring)
        slow = cotangent_classes(
            [fs[0] + fs[1], fs[1]], ring)
        assert fast == slow

    def test_scaled_binomials_still_merge(self):
        ring = Ring(["a", "b"])
        c = cotangent_classes(forms(ring, ["2a - 3b"]), ring)
        assert c.proper == (frozenset({0, 1}),)

    def test_collapsing_pair_is_trivial(self):
        # x - y and x + y together span <x, y>
        ring = Ring(["x", "y", "z"])
        c = cotangent_classes(forms(ring, ["x - y", "x + y"]), ring)
        assert c.trivial == {0, 1} and c.basic == {2}

    def test_partition_property_random(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(2, 9)
            ring = Ring([f"v{i}" for i in range(n)])
            fs = random_binomial_forms(rng, ring, rng.randint(1, n))
            c = cotangent_classes(fs, ring)
            covered = set(c.trivial) | set(c.basic)
            for e in c.proper:
                assert len(e) >= 2
                assert not covered & e
                covered |= e
            assert covered == set(range(n))

    def test_general_linear_part(self):
        # non-binomial: x + y + z collapses no line; every residue distinct
        ring = Ring(["x", "y", "z"])
        c = cotangent_classes(forms(ring, ["x + y + z"]), ring)
        assert c.trivial == frozenset()
        assert c.proper == ()
        assert c.basic == {0, 1, 2}

    def test_nonlinear_rejected(self):
        ring = Ring(["x", "y"])
        with pytest.raises(ValueError):
            cotangent_classes(forms(ring, ["x^2"]), ring)


def span_rank(rows, n, p):
    """Rank over QQ (p = 0) or F_p, computed by sympy alone."""
    dom = sympy.GF(p) if p else sympy.QQ
    return DomainMatrix([[dom(x) for x in row] for row in rows],
                        (len(rows), n), dom).rank()


def rank_oracle_classes(rows, n, p):
    """Trivial set and same-class pairs from ranks of extended matrices.

    With r the rank of the rows, x_i is trivial iff adding e_i keeps the
    rank at r, and non-trivial x_i, x_j share a line iff adding e_i and e_j
    raises it to r + 1 only.
    """
    def unit(i):
        return [1 if c == i else 0 for c in range(n)]

    r = span_rank(rows, n, p)
    trivial = {i for i in range(n) if span_rank(rows + [unit(i)], n, p) == r}
    rest = [i for i in range(n) if i not in trivial]
    pairs = {(i, j) for i in rest for j in rest
             if i < j and span_rank(rows + [unit(i), unit(j)], n, p) == r + 1}
    return trivial, pairs


@st.composite
def spans(draw, p):
    """Binomial and general rows, with zero and dependent rows mixed in."""
    n = draw(st.integers(2, 10))
    small = st.integers(-3, 3)
    coeff = small if p else st.builds(Fraction, small,
                                      st.sampled_from((1, 2, 3)))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            row = [0] * n
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            row[j] = draw(coeff)
            row[i] = draw(coeff.filter(lambda x: x % p if p else x))
        else:
            row = draw(st.lists(st.one_of(st.just(0), coeff),
                                min_size=n, max_size=n))
        rows.append(row)
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            coeffs = draw(st.lists(small, min_size=len(rows),
                                   max_size=len(rows)))
            rows.append([sum(c * r[k] for c, r in zip(coeffs, rows))
                         for k in range(n)])
    rows += [[0] * n] * draw(st.integers(0, 2))
    return n, draw(st.permutations(rows))


class TestClassesAgainstRankOracle:
    @pytest.mark.parametrize("p", (0, 5, 101))
    @given(data=st.data())
    def test_matches_rank_oracle(self, p, data):
        n, rows = data.draw(spans(p))
        ring = Ring([f"v{i}" for i in range(n)], PrimeField(p) if p else QQ)
        fs = [Poly(ring, {tvar(n, c): x for c, x in enumerate(row) if x})
              for row in rows]
        c = cotangent_classes(fs, ring)
        trivial, pairs = rank_oracle_classes(rows, n, p)
        assert c.trivial == trivial
        same = {(i, j) for e in c.proper for i in e for j in e if i < j}
        assert same == pairs


class TestSupportUnion:
    def test_simple(self):
        ring = Ring(["x", "y", "z"])
        assert support_union(forms(ring, ["x + y"]), ring) == {0, 1}

    def test_complement_is_basic(self):
        rng = random.Random(42)
        for _ in range(40):
            n = rng.randint(2, 8)
            ring = Ring([f"v{i}" for i in range(n)])
            fs = random_binomial_forms(rng, ring, rng.randint(1, n))
            u = support_union(fs, ring)
            c = cotangent_classes(fs, ring)
            assert c.basic == set(range(n)) - u
            assert u == set(c.trivial) | set().union(*c.proper) if c.proper \
                else u == set(c.trivial)

    def test_invariant_under_recombination(self):
        rng = random.Random(43)
        ring = Ring([f"v{i}" for i in range(6)])
        for _ in range(25):
            fs = random_binomial_forms(rng, ring, 4)
            base = support_union(fs, ring)
            mixed = list(fs)
            for _ in range(6):
                i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
                if i != j:
                    mixed[i] = mixed[i] + mixed[j] * rng.randint(-2, 2)
            assert support_union(mixed, ring) == base


class TestSigmaLeading:
    def test_no_proper_classes(self):
        ring = Ring(["x", "y"])
        c = cotangent_classes([Poly.variable(ring, 0)], ring)
        assert sigma_leading_S(c, degrevlex(2)) == {0}

    def test_cardinality_formula(self):
        rng = random.Random(44)
        for _ in range(100):
            n = rng.randint(2, 9)
            ring = Ring([f"v{i}" for i in range(n)])
            fs = random_binomial_forms(rng, ring, rng.randint(1, n))
            c = cotangent_classes(fs, ring)
            for o in (degrevlex(n), lex(n)):
                s = sigma_leading_S(c, o)
                assert len(s) == (len(c.trivial)
                                  + sum(len(e) for e in c.proper)
                                  - len(c.proper))

    def test_smallest_member_survives(self):
        ring = Ring(["a", "b", "c"])
        c = cotangent_classes(forms(ring, ["a - c", "b - c"]), ring)
        assert c.proper == (frozenset({0, 1, 2}),)
        # degrevlex: a > b > c, smallest is c
        assert sigma_leading_S(c, degrevlex(3)) == {0, 1}


class TestEnumerateFan:
    def test_single_pair_class(self):
        ring = Ring(["a", "b"])
        c = cotangent_classes(forms(ring, ["a - b"]), ring)
        fan = enumerate_ltgfan_binomial(c)
        # deletions run in member order: drop 0 first, then drop 1
        assert fan == [frozenset({1}), frozenset({0})]

    def test_matches_matrix_fan_and_product_law(self):
        rng = random.Random(45)
        for _ in range(40):
            n = rng.randint(2, 10)
            ring = Ring([f"v{i}" for i in range(n)])
            fs = random_binomial_forms(rng, ring, rng.randint(1, n))
            basis = linear_part_of_ideal(fs) if any(fs) else []
            if not basis:
                continue
            c = cotangent_classes(basis, ring)
            closed = set(enumerate_ltgfan_binomial(c))
            direct = set(ltgfan_linear(basis, ring=ring))
            assert closed == direct
            assert len(closed) == c.fan_size()

    def test_basic_never_trivial_always(self):
        rng = random.Random(46)
        for _ in range(30):
            n = rng.randint(2, 8)
            ring = Ring([f"v{i}" for i in range(n)])
            fs = random_binomial_forms(rng, ring, rng.randint(1, n))
            c = cotangent_classes(fs, ring)
            for lt in enumerate_ltgfan_binomial(c):
                assert not (lt & c.basic)
                assert c.trivial <= lt

    def test_invalid_partition_rejected(self):
        ring = Ring(["a", "b"])
        with pytest.raises(ValueError):
            CotangentClasses(ring, trivial={0}, basic=set(), proper=[{0, 1}])
        with pytest.raises(ValueError):
            CotangentClasses(ring, trivial={0}, basic=set(), proper=[])
