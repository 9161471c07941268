"""Linear Groebner fan: minors, marked bases, matroid bases."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from reembed import linalg
from reembed.field import PrimeField
from reembed.linear_gfan import (
    CoeffMatrix,
    MarkedReducedGB,
    column_submatrix_rank_ok,
    gfan_linear,
    ltgfan_linear,
    matroid_bases,
    reduced_gb_for_basis,
)
from reembed.ordering import elimination_for
from reembed.parse import parse_poly, parse_ring
from reembed.poly import Poly
from reembed.ring import Ring, tvar

from test_linalg import dense_rref, laplace_det


def coeff_matrix(ring, forms):
    return CoeffMatrix.from_forms([parse_poly(s, ring) for s in forms], ring)


@pytest.fixture(scope="module")
def A24(ring_xyzw, fan24):
    return CoeffMatrix.from_forms(fan24, ring_xyzw)


def oracle_bases(A):
    """Brute-force bases via the independent cofactor-expansion determinant."""
    s = A.nrows
    out = []
    for idx in combinations(range(A.ring.n), s):
        sub = [[Fraction(x.numerator, x.denominator) for x in row]
               for row in A.column_submatrix(idx)]
        if laplace_det(sub) != 0:
            out.append(idx)
    return out


def random_full_rank_matrix(rng, r, n):
    ring = Ring([f"x{i+1}" for i in range(n)])
    while True:
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(r)]
        A = CoeffMatrix(ring, rows)
        if A.row_rank() == r:
            return A


class TestColumnRank:
    def test_the_singular_2x2(self, A24):
        # columns 1 and 3 (x and z) are dependent
        assert not column_submatrix_rank_ok(A24, (0, 2))
        assert column_submatrix_rank_ok(A24, (2,))

    def test_identity(self):
        ring = Ring("abc")
        A = CoeffMatrix(ring, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        for s in range(1, 4):
            for idx in combinations(range(3), s):
                assert column_submatrix_rank_ok(A, idx)

    def test_against_determinant_oracle(self):
        rng = random.Random(31)
        for _ in range(10):
            A = random_full_rank_matrix(rng, 3, 6)
            for idx in combinations(range(6), 3):
                sub = [[Fraction(int(x.numerator), int(x.denominator))
                        for x in row] for row in A.column_submatrix(idx)]
                assert column_submatrix_rank_ok(A, idx) == (laplace_det(sub) != 0)

    def test_bad_indices(self, A24):
        with pytest.raises(ValueError):
            column_submatrix_rank_ok(A24, (2, 1))
        with pytest.raises(ValueError):
            column_submatrix_rank_ok(A24, (0, 9))


class TestReducedGBForBasis:
    def test_first_cell(self, ring_xyzw, A24):
        gb = reduced_gb_for_basis(A24, (0, 1))
        assert gb.pairs == MarkedReducedGB(ring_xyzw, [
            (0, parse_poly("x - z + 2w", ring_xyzw)),
            (1, parse_poly("y + 2w", ring_xyzw)),
        ]).pairs

    def test_last_cell(self, ring_xyzw, A24):
        gb = reduced_gb_for_basis(A24, (2, 3))
        assert gb == MarkedReducedGB(ring_xyzw, [
            (2, parse_poly("z - x + y", ring_xyzw)),
            (3, parse_poly("w + 1/2y", ring_xyzw)),
        ])

    def test_identity_block(self):
        ring = Ring("abc")
        A = CoeffMatrix(ring, [[1, 0, 0], [0, 1, 0]])
        gb = reduced_gb_for_basis(A, (0, 1))
        assert gb.pairs == ((0, Poly.variable(ring, 0)),
                            (1, Poly.variable(ring, 1)))

    def test_marker_columns_are_identity(self):
        rng = random.Random(32)
        for _ in range(20):
            A = random_full_rank_matrix(rng, 3, 5)
            for idx in matroid_bases(A):
                gb = reduced_gb_for_basis(A, idx)
                for r, (m, form) in enumerate(gb.pairs):
                    assert form.coefficient(tvar(5, m)) == 1
                    for r2, (m2, _) in enumerate(gb.pairs):
                        if r2 != r:
                            assert not form.coefficient(tvar(5, m2))


class TestMatroidBases:
    def test_worked_fan(self, A24):
        assert matroid_bases(A24) == [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_identity(self):
        ring = Ring("abc")
        A = CoeffMatrix(ring, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert matroid_bases(A) == [(0, 1, 2)]

    def test_backends_agree_with_oracle(self):
        rng = random.Random(33)
        for _ in range(8):
            A = random_full_rank_matrix(rng, 3, 7)
            expect = oracle_bases(A)
            assert matroid_bases(A) == expect

    def test_prime_field_fan(self):
        # columns (a, b, c) have minor 7: nonzero over QQ, zero mod 7;
        # d is a zero column and e is parallel to b
        rows = [[1, 0, 1, 0, 0, 1, 2],
                [0, 1, 2, 0, 3, 1, 5],
                [0, 0, 7, 0, 0, 1, 3]]
        assert laplace_det([row[:3] for row in rows]) == 7
        expect = [idx for idx in combinations(range(7), 3)
                  if laplace_det([[row[j] for j in idx] for row in rows]) % 7]
        ring = parse_ring("ring a, b, c, d, e, f, g mod 7;")
        A = CoeffMatrix(ring, rows)
        bases = matroid_bases(A)
        assert bases == expect
        assert (0, 1, 2) not in bases
        assert (0, 1, 2) in matroid_bases(CoeffMatrix(Ring(ring.labels), rows))
        assert all(3 not in idx and not {1, 4} <= set(idx) for idx in bases)
        base_rref = dense_rref(A.rows, ring.field)
        fan = gfan_linear([A.form(i) for i in range(3)])
        assert [gb.markers for gb in fan] == bases
        for gb in fan:
            B = CoeffMatrix.from_forms(gb.forms, ring)
            for r, m in enumerate(gb.markers):
                assert [row[m] for row in B.rows] == [int(i == r)
                                                       for i in range(3)]
            assert dense_rref(B.rows, ring.field) == base_rref

    def test_rank_deficient_rejected(self):
        ring = Ring("abc")
        A = CoeffMatrix(ring, [[1, 1, 0], [2, 2, 0]])
        with pytest.raises(ValueError):
            matroid_bases(A)

    def test_exchange_axiom_on_output(self):
        # for bases B1, B2 and i in B1-B2 there is j in B2-B1 with
        # B1 - i + j a basis
        rng = random.Random(34)
        A = random_full_rank_matrix(rng, 3, 6)
        bases = set(matroid_bases(A))
        sample = rng.sample(sorted(bases), min(6, len(bases)))
        for b1 in sample:
            for b2 in sample:
                for i in set(b1) - set(b2):
                    assert any(
                        tuple(sorted((set(b1) - {i}) | {j})) in bases
                        for j in set(b2) - set(b1))


class TestGfanLinear:
    def test_worked_fan_exact(self, ring_xyzw, fan24):
        fan = gfan_linear(fan24)
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

    def test_single_indeterminates(self):
        ring = Ring(["a", "b", "c", "d"])
        forms = [Poly.variable(ring, 0), Poly.variable(ring, 2)]
        fan = gfan_linear(forms)
        assert len(fan) == 1
        assert fan[0].markers == (0, 2)

    def test_generic_2x4_has_6_cells(self):
        ring = Ring(["a", "b", "c", "d"])
        A = CoeffMatrix(ring, [[1, 2, 3, 4], [5, 3, 2, 1]])
        forms = [A.form(0), A.form(1)]
        fan = gfan_linear(forms)
        assert len(fan) == 6 == len(oracle_bases(A))

    def test_zero_ideal(self, ring_xyz):
        fan = gfan_linear([], ring=ring_xyz)
        assert len(fan) == 1 and fan[0].pairs == ()
        assert ltgfan_linear([], ring=ring_xyz) == [frozenset()]

    def test_dependent_input_auto_reduces_with_warning(self, ring_xyzw, fan24):
        forms = list(fan24) + [fan24[0] + fan24[1]]
        with pytest.warns(UserWarning):
            fan = gfan_linear(forms)
        assert len(fan) == 5

    def test_row_space_preserved(self, ring_xyzw, fan24):
        A = CoeffMatrix.from_forms(fan24, ring_xyzw)
        base_rref = dense_rref(A.rows, ring_xyzw.field)
        for gb in gfan_linear(fan24):
            B = CoeffMatrix.from_forms(gb.forms, ring_xyzw)
            assert dense_rref(B.rows, ring_xyzw.field) == base_rref


class TestReducedOnce:
    """A fan reduces its forms once: one rref and no rank, dependent or
    not."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting(name):
            original = getattr(linalg, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for name in ("rref", "rank"):
            monkeypatch.setattr(linalg, name, counting(name))
        return calls

    @pytest.mark.parametrize("fan", (gfan_linear, ltgfan_linear))
    def test_one_rref_no_rank(self, calls, fan, fan24):
        independent = fan(fan24)
        assert calls == ["rref"]
        calls.clear()
        with pytest.warns(UserWarning, match="dependent"):
            dependent = fan(list(fan24) + [fan24[0] - 2 * fan24[1]])
        assert calls == ["rref"]
        assert dependent == independent and len(independent) == 5


class TestLtgfan:
    def test_worked_fan(self, ring_xyzw, fan24):
        sets = ltgfan_linear(fan24)
        names = [frozenset(ring_xyzw.labels[i] for i in s) for s in sets]
        assert names == [frozenset(s) for s in
                         [{"x", "y"}, {"x", "w"}, {"y", "z"}, {"y", "w"},
                          {"z", "w"}]]

    def test_bijection_with_bases(self):
        rng = random.Random(35)
        for _ in range(10):
            A = random_full_rank_matrix(rng, rng.randint(1, 3), 6)
            forms = [A.form(i) for i in range(A.nrows)]
            fan = gfan_linear(forms)
            lt = ltgfan_linear(forms)
            bases = matroid_bases(A)
            assert len(fan) == len(lt) == len(bases)
            assert [gb.marker_set for gb in fan] == lt
            assert [tuple(sorted(s)) for s in lt] == list(bases)


def test_pair_strings_match_elimination_rendering():
    # the marker-first text equals the form printed under an elimination
    # ordering for its marker
    rng = random.Random(36)
    fields = [None, PrimeField(5), PrimeField(101)]
    for trial in range(12):
        field = fields[trial % 3]
        n = rng.randint(3, 7)
        r = rng.randint(1, min(4, n))
        labels = [f"x{i}" for i in range(n)]
        ring = Ring(labels) if field is None else Ring(labels, field)
        while True:
            rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                     if field is None else rng.randint(-5, 5)
                     for _ in range(n)] for _ in range(r)]
            A = CoeffMatrix(ring, rows)
            if A.row_rank() == r:
                break
        for gb in gfan_linear([A.form(i) for i in range(r)]):
            expect = [(ring.labels[m], f.to_string(elimination_for(ring, [m])))
                      for m, f in gb.pairs]
            assert gb.pair_strings() == expect


def test_reduced_gb_for_basis_rejects_singular(A24):
    from reembed.linalg import SingularMatrixError
    with pytest.raises(SingularMatrixError):
        reduced_gb_for_basis(A24, (0, 2))
    with pytest.raises(ValueError):
        reduced_gb_for_basis(A24, (0,))
