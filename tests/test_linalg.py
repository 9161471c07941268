"""Exact linear algebra against naive independent oracles."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from reembed.field import QQ, PrimeField
from reembed.linalg import (
    SingularMatrixError,
    bareiss_det_int,
    bareiss_rank_int,
    det,
    int_scaled_rows,
    rank,
    rref,
    solve_left_inverse_times,
)


def laplace_det(m):
    """Cofactor-expansion determinant; the independent oracle."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * Fraction(m[0][j]) * laplace_det(minor)
    return total


def dense_rref(rows, field):
    """rref on dense rows: each goes in as its sparse row and the reduced
    rows come back dense, so the checks below compare lists."""
    ncols = len(rows[0]) if rows else 0
    reduced, pivots = rref([dict(enumerate(row)) for row in rows], field)
    zero = field.zero()
    return [[row.get(c, zero) for c in range(ncols)] for row in reduced], pivots


def random_int_matrix(rng, r, c, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


def random_rational_matrix(rng, r, c):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
             for _ in range(c)] for _ in range(r)]


class TestBareiss:
    def test_det_matches_laplace(self):
        rng = random.Random(21)
        for _ in range(150):
            n = rng.randint(1, 5)
            m = random_int_matrix(rng, n, n)
            assert bareiss_det_int(m) == laplace_det(m)

    def test_rank_matches_rref(self):
        rng = random.Random(22)
        for _ in range(150):
            r, c = rng.randint(1, 5), rng.randint(1, 6)
            m = random_int_matrix(rng, r, c, -4, 4)
            expect = len(dense_rref(m, QQ)[0])
            assert bareiss_rank_int(m) == expect

    def test_rank_of_rigged_dependent_rows(self):
        m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        assert bareiss_rank_int(m) == 2

    def test_rational_det(self):
        rng = random.Random(23)
        for _ in range(80):
            n = rng.randint(1, 4)
            m = random_rational_matrix(rng, n, n)
            assert det(m, QQ) == laplace_det(m)


class TestRref:
    def test_canonical_form(self):
        rows, pivots = dense_rref([[0, 2, 4], [1, 1, 1]], QQ)
        assert pivots == (0, 1)
        assert rows == [[1, 0, -1], [0, 1, 2]]

    def test_idempotent(self):
        rng = random.Random(24)
        for _ in range(60):
            m = random_rational_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
            r1, piv1 = dense_rref(m, QQ)
            if not r1:
                continue
            r2, piv2 = dense_rref(r1, QQ)
            assert r1 == r2 and piv1 == piv2

    def test_sparse_rows_in_and_out(self):
        rows = [{3: "0", 1: 2, 2: 4}, {0: 0, 2: "1/2", 1: 1}]
        before = [dict(r) for r in rows]
        got, pivots = rref(rows, QQ)
        assert rows == before
        assert pivots == (1, 2)
        assert got == [{1: 1}, {2: 1}]
        assert all(isinstance(x, type(QQ.one())) and x
                   for row in got for x in row.values())

    def test_over_prime_field(self):
        f5 = PrimeField(5)
        rows, pivots = dense_rref([[2, 1], [4, 2]], f5)
        assert pivots == (0,)
        assert len(rows) == 1
        assert rows[0][0] == 1 and rows[0][1] == f5.of(3)


def entries(denominators):
    """Matrix entries as ints or as "a/b" strings, zero-heavy."""
    small = st.integers(-3, 3)
    ints = st.one_of(st.just(0), small)
    strings = st.builds(lambda a, b: f"{a}/{b}", small,
                        st.sampled_from(denominators))
    return st.one_of(ints, strings)


@st.composite
def matrices(draw, denominators):
    """Rows with zero rows and rows dependent on the others mixed in."""
    ncols = draw(st.integers(1, 6))
    row = st.lists(entries(denominators), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows),
                                   max_size=len(rows)))
            rows.append([str(sum(c * Fraction(r[j])
                                 for c, r in zip(coeffs, rows)))
                         for j in range(ncols)])
    rows += [[0] * ncols] * draw(st.integers(0, 2))
    if not rows:
        rows = [[0] * ncols]
    return draw(st.permutations(rows))


def dense_rref_mod(rows, p):
    """Dense Gauss-Jordan over F_p on ints; the reference for prime fields."""
    def residue(x):
        x = Fraction(x)
        return x.numerator * pow(x.denominator, -1, p) % p

    m = [[residue(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], tuple(pivots)


class TestRrefProperties:
    @given(matrices((1, 2, 3, 5, 7)))
    @example([[0, 0, 0], [0, 0, 0]])
    @example([[3], ["0"], ["-1/2"]])
    def test_matches_sympy_over_qq(self, rows):
        got, pivots = dense_rref(rows, QQ)
        ref, ref_pivots = sympy.Matrix(
            [[sympy.Rational(str(x)) for x in row] for row in rows]).rref()
        assert pivots == tuple(ref_pivots)
        assert got == [[Fraction(int(x.p), int(x.q)) for x in ref.row(i)]
                       for i in range(len(ref_pivots))]

    @pytest.mark.parametrize("p", (5, 101))
    @given(rows=matrices((1, 2, 3, 4)))
    @example(rows=[[0, 0], [0, 0]])
    @example(rows=[[2], ["3/4"], [0]])
    def test_matches_dense_reference_over_prime_fields(self, p, rows):
        got, pivots = dense_rref(rows, PrimeField(p))
        assert (([[x.v for x in row] for row in got], pivots)
                == dense_rref_mod(rows, p))


class TestSolve:
    def test_inverse_times_identity_block(self):
        rng = random.Random(25)
        for _ in range(50):
            s = rng.randint(1, 4)
            sub = random_int_matrix(rng, s, s)
            if laplace_det(sub) == 0:
                continue
            full = random_int_matrix(rng, s, s + 2)
            got = solve_left_inverse_times(sub, full, QQ)
            # sub * got == full
            for i in range(s):
                for j in range(s + 2):
                    acc = sum(QQ.of(sub[i][k]) * got[k][j] for k in range(s))
                    assert acc == full[i][j]

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_left_inverse_times([[1, 2], [2, 4]], [[1, 0], [0, 1]], QQ)


def test_int_scaling_preserves_minor_vanishing():
    rng = random.Random(26)
    for _ in range(60):
        m = random_rational_matrix(rng, 3, 3)
        scaled = int_scaled_rows([[QQ.of(x) for x in row] for row in m])
        assert (laplace_det(m) == 0) == (bareiss_det_int(scaled) == 0)
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]]) == 2
