"""Border basis scheme: order ideals, relations, structure checks."""

import random
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reembed.border_basis import (
    BorderBasisScheme,
    NeighbourGenerator,
    OrderIdeal,
    border,
    form_string,
    order_ideal,
    rim_interior,
)
from reembed.cotangent import cotangent_classes
from reembed.field import QQ, PrimeField
from reembed.jobs import parse_job, run_job
from reembed.linalg import rref
from reembed.parse import parse_poly, parse_term
from reembed.poly import Poly, linear_part_of_ideal
from reembed.ring import tvar
from reembed.search import find_reembedding_via_cotangent


@pytest.fixture(scope="module")
def stairs8():
    # maximal terms y^3, x y^2, x^2 over two indeterminates
    return order_ideal([(0, 3), (1, 2), (2, 0)], 2)


@pytest.fixture(scope="module")
def scheme8(stairs8):
    return BorderBasisScheme(stairs8)


def terms_of(ring, texts):
    return [parse_term(t, ring) for t in texts]


class TestOrderIdeal:
    def test_staircase_layout(self, stairs8):
        # 1, y, x, y^2, xy, x^2, y^3, xy^2 in that exact position order
        assert stairs8.terms == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1),
                                 (2, 0), (0, 3), (1, 2))

    def test_singleton(self):
        assert order_ideal([(0, 0)], 2).terms == ((0, 0),)

    def test_divisor_count(self):
        # closure of x^2 y^3 has (2+1)(3+1) members
        assert len(order_ideal([(2, 3)], 2)) == 12

    def test_closure_validated(self):
        with pytest.raises(ValueError):
            OrderIdeal(2, ((0, 0), (2, 0)))
        with pytest.raises(ValueError):
            order_ideal([], 2)


class TestBorder:
    def test_staircase_border(self, stairs8):
        # x^2 y, x^3, y^4, x y^3, x^2 y^2 in that order
        assert border(stairs8) == ((2, 1), (3, 0), (0, 4), (1, 3), (2, 2))

    def test_singleton(self):
        O = order_ideal([(0, 0)], 2)
        assert border(O) == ((0, 1), (1, 0))

    def test_against_set_arithmetic_oracle(self):
        rng = random.Random(71)
        for _ in range(15):
            gens = [tuple(rng.randint(0, 3) for _ in range(3))
                    for _ in range(rng.randint(1, 3))]
            O = order_ideal(gens, 3)
            if len(O) > 20:
                continue
            # oracle: (x1 O u x2 O u x3 O) \ O as plain set arithmetic
            shifted = set()
            for k in range(3):
                e = tvar(3, k)
                shifted |= {tuple(a + b for a, b in zip(t, e))
                            for t in O.terms}
            assert set(border(O)) == shifted - set(O.terms)


class TestRimInterior:
    def test_staircase_split(self, stairs8):
        rim, interior = rim_interior(stairs8)
        # 1, y, x, y^2 are interior; xy, x^2, y^3, xy^2 are rim
        assert interior == (0, 1, 2, 3)
        assert rim == (4, 5, 6, 7)

    def test_singleton_is_rim(self):
        O = order_ideal([(0, 0)], 2)
        assert rim_interior(O) == ((0,), ())


def cvar(scheme, i, j):
    """The indeterminate c_ij of the scheme, numbered i * nu + j."""
    return Poly.variable(scheme.cring, i * scheme.nu + j)


def multiplication_matrices(scheme):
    """The generic multiplication matrices A_1 .. A_n, dense mu x mu over
    K[C], read off the order ideal and its border: column m of A_k is the
    unit vector of x_k t_m when that term lies in O, and the column
    (c_1j .. c_mu j) when it is the border term b_j."""
    terms, border_terms = scheme.O.terms, scheme.border_terms
    zero = Poly.zero(scheme.cring)
    one = Poly.constant(scheme.cring, 1)
    mats = []
    for k in range(scheme.nvars):
        A = [[zero] * scheme.mu for _ in range(scheme.mu)]
        for m, t in enumerate(terms):
            u = tuple(e + (v == k) for v, e in enumerate(t))
            if u in terms:
                A[terms.index(u)][m] = one
            else:
                j = border_terms.index(u)
                for i in range(scheme.mu):
                    A[i][m] = cvar(scheme, i, j)
        mats.append(A)
    return mats


def commutator_entries(scheme):
    """Nonzero entries of all commutators A_a A_b - A_b A_a: the classical
    equations of the scheme."""
    mats = multiplication_matrices(scheme)
    zero = Poly.zero(scheme.cring)
    out = []
    for a in range(scheme.nvars):
        for b in range(a + 1, scheme.nvars):
            A, B = mats[a], mats[b]
            for r in range(scheme.mu):
                for c in range(scheme.mu):
                    acc = zero
                    for m in range(scheme.mu):
                        acc = acc + A[r][m] * B[m][c] - B[r][m] * A[m][c]
                    if acc:
                        out.append(acc)
    return out


def arrow_degree_of_term(scheme, exponents):
    """The arrow degree of a term of K[C]: the sum over its indeterminates
    c_ij, with multiplicity, of log(b_j) - log(t_i)."""
    total = [0] * scheme.nvars
    for index, e in enumerate(exponents):
        i, j = divmod(index, scheme.nu)
        for v, (b, t) in enumerate(zip(scheme.border_terms[j],
                                       scheme.O.terms[i])):
            total[v] += e * (b - t)
    return tuple(total)


class TestMultiplicationMatrices:
    """The dense matrices that the reference generators are built from."""

    def test_shapes_and_ring(self, scheme8):
        assert scheme8.mu == 8 and scheme8.nu == 5
        assert scheme8.cring.n == 40
        mats = multiplication_matrices(scheme8)
        assert len(mats) == 2
        for m in mats:
            assert len(m) == 8 and all(len(row) == 8 for row in m)

    def test_unit_columns(self, scheme8):
        # x * y = xy: the column of t_2 = y in A_x is the unit at t_5 = xy
        m = multiplication_matrices(scheme8)[0]
        col = [m[i][1] for i in range(8)]
        assert col[4] == 1
        assert all(col[i].is_zero() for i in range(8) if i != 4)

    def test_border_columns(self, scheme8):
        # x * x^2 = x^3 = b_2: the column of t_6 = x^2 in A_x is c[., b_2]
        m = multiplication_matrices(scheme8)[0]
        for i in range(8):
            assert m[i][5] == cvar(scheme8, i, 1)
            assert str(m[i][5]) == scheme8.clabel(i, 1)

    def test_one_by_one_case(self):
        O = order_ideal([(0,)], 1)
        s = BorderBasisScheme(O)
        (m,) = multiplication_matrices(s)
        assert len(m) == 1 and m[0][0] == cvar(s, 0, 0)


class TestNeighbourPairs:
    def test_staircase_pairs(self, scheme8):
        # one next-door pair (x^2 y^2 = y * x^2 y), three across-the-rim
        nd = scheme8.next_door_pairs()
        assert nd == [(4, 0, 1)]
        ar = scheme8.across_rim_pairs()
        assert [(j, jp) for j, jp, *_ in ar] == [(0, 1), (2, 3), (3, 4)]
        # parents: x^2 for (b_1, b_2), y^3 for (b_3, b_4), xy^2 for (b_4, b_5)
        assert [p for *_, p in ar] == [5, 6, 7]

    def test_generator_count(self, scheme8):
        gens = scheme8.neighbour_generators()
        assert len(gens) == 32

    def test_smallest_case_vanishes(self):
        # over a single point the commutator relations are trivial
        O = order_ideal([(0, 0)], 2)
        s = BorderBasisScheme(O)
        assert s.next_door_pairs() == []
        ar = s.across_rim_pairs()
        assert len(ar) == 1 and ar[0][:2] == (0, 1)
        assert s.defining_ideal() == []

    def test_commutator_entries_match(self, scheme8):
        # the nonzero commutator entries and the neighbour generators have
        # the same linear span of linear parts and the same count up to sign
        comm = commutator_entries(scheme8)
        gens = scheme8.defining_ideal()
        assert len(comm) == len(gens)
        lin_a = linear_part_of_ideal(gens)
        lin_b = linear_part_of_ideal(comm)
        assert lin_a == lin_b

        def keyed(ps):
            out = set()
            for p in ps:
                items = tuple(sorted(p.coeffs.items()))
                neg = tuple(sorted((-p).coeffs.items()))
                out.add(min(items, neg))
            return out
        assert keyed(comm) == keyed(gens)


class TestArrowGrading:
    def test_examples(self, scheme8):
        # c_11: b_1 = x^2 y over t_1 = 1
        assert scheme8.arrow_degree(0, 0) == (2, 1)
        # t_5 = xy under b_1 = x^2 y
        assert scheme8.arrow_degree(4, 0) == (1, 0)

    def test_homogeneity_of_all_generators(self, scheme8):
        for g in scheme8.neighbour_generators():
            degs = {arrow_degree_of_term(scheme8, t) for t in g.poly.coeffs}
            assert len(degs) == 1


EXPECTED_LINEAR_FORMS = [
    "c65", "c51 - c85", "c45", "c44", "c55", "c43 - c54", "c42",
    "c41 - c75", "c52 - c75", "c35", "c34", "c33", "c31", "c25", "c24",
    "c23", "c22", "c21", "c32", "c15", "c14", "c13", "c12", "c11",
]


class TestStaircaseStructure:
    def test_linear_part_basis_is_the_listed_one(self, scheme8):
        # the canonical reduced basis of the span of the generators'
        # linear parts is exactly the published monomial/binomial list
        gens = scheme8.defining_ideal()
        basis = linear_part_of_ideal(gens)
        expected = [parse_poly(s, scheme8.cring)
                    for s in EXPECTED_LINEAR_FORMS]
        assert len(basis) == 24

        def canon(polys):
            return sorted(tuple(sorted(p.coeffs.items())) for p in polys)

        assert canon(basis) == canon(expected)

    def test_cotangent_classes(self, scheme8):
        classes = scheme8.cotangent()
        lab = lambda s: set(classes.labels(s))
        assert lab(classes.trivial) == {
            "c11", "c12", "c13", "c14", "c15", "c21", "c22", "c23", "c24",
            "c25", "c31", "c32", "c33", "c34", "c35", "c42", "c44", "c45",
            "c55", "c65"}
        assert [set(classes.labels(e)) for e in classes.proper] == [
            {"c41", "c52", "c75"}, {"c43", "c54"}, {"c51", "c85"}]
        assert lab(classes.basic) == {
            "c53", "c61", "c62", "c63", "c64", "c71", "c72", "c73", "c74",
            "c81", "c82", "c83", "c84"}

    def test_basic_indeterminates_are_rim(self, scheme8):
        classes = scheme8.cotangent()
        rim = scheme8.rim_cvar_indices()
        assert classes.basic <= rim
        # and the witnesses named in the proper classes are rim as well
        for name in ("c85", "c54", "c75"):
            assert scheme8.cring.index(name) in rim

    def test_verify_structure_passes(self, scheme8):
        report = scheme8.verify_structure()
        assert report.all_pass, report.failures

    def test_verify_structure_small_case(self):
        O = order_ideal([(1, 0), (0, 1)], 2)
        report = BorderBasisScheme(O).verify_structure()
        assert report.all_pass, report.failures

    def test_verify_structure_random_corpus(self):
        rng = random.Random(72)
        for _ in range(10):
            gens = [tuple(rng.randint(0, 3) for _ in range(2))
                    for _ in range(rng.randint(1, 3))]
            O = order_ideal(gens, 2)
            if len(O) > 12:
                continue
            report = BorderBasisScheme(O).verify_structure()
            assert report.all_pass, report.failures

    def test_metadata(self, scheme8):
        assert scheme8.dimension() == 16
        assert len(scheme8.defining_ideal()) == 32


def test_verify_structure_three_indeterminates():
    rng = random.Random(73)
    checked = 0
    while checked < 6:
        gens = [tuple(rng.randint(0, 2) for _ in range(3))
                for _ in range(rng.randint(1, 2))]
        O = order_ideal(gens, 3)
        if len(O) > 10:
            continue
        checked += 1
        report = BorderBasisScheme(O).verify_structure()
        assert report.all_pass, report.failures


class TestBuiltOnce:
    """A scheme builds its generators once however many views read them."""

    @pytest.fixture
    def matvec_calls(self, monkeypatch):
        calls = []
        original = BorderBasisScheme._matvec

        def counting(self, k, jcol):
            calls.append((k, jcol))
            return original(self, k, jcol)

        monkeypatch.setattr(BorderBasisScheme, "_matvec", counting)
        return calls

    @pytest.mark.parametrize("text,chain", [
        ("y^3, x*y^2, x^2", False),
        ("x^2, y", True),
    ])
    def test_bbs_job_builds_the_generators_once(self, matvec_calls, text,
                                                chain):
        spec = parse_job(f"ring x, y;\n{text}\n", command="bbs")
        spec.chain_reembed = chain
        run_job(spec)
        per_job = len(matvec_calls)
        matvec_calls.clear()
        BorderBasisScheme(order_ideal(spec.terms, 2)).neighbour_generators()
        assert per_job == len(matvec_calls) > 0

    def test_cache_is_not_mutable_by_callers(self, stairs8):
        scheme = BorderBasisScheme(stairs8)
        first = scheme.defining_ideal()
        first.clear()
        assert len(scheme.defining_ideal()) == 32
        assert isinstance(scheme.generators, tuple)
        assert scheme.generators is scheme.generators
        assert scheme.cotangent() is scheme.cotangent()
        assert [g.poly for g in scheme.neighbour_generators()] \
            == scheme.defining_ideal()


# ---------- the index form against plain Poly arithmetic ----------

@st.composite
def small_order_ideals(draw):
    """Order ideals of at most 12 terms in 2 or 3 indeterminates."""
    n = draw(st.sampled_from((2, 3)))
    top = 3 if n == 2 else 2
    terms = draw(st.lists(st.tuples(*[st.integers(0, top)] * n),
                          min_size=1, max_size=3))
    O = order_ideal(terms, n)
    if len(O) > 12:
        O = order_ideal(terms[:1], n)
    if len(O) > 12:
        O = order_ideal([tuple(min(e, 1) for e in terms[0])], n)
    return O


def reference_generators(scheme):
    """(kind, j, j', row, meta, poly) of every nonzero relation entry,
    from the dense matrices A_k: c_j - A_ell c_j' and A_k c_j - A_ell c_j'."""
    mats = multiplication_matrices(scheme)
    zero = Poly.zero(scheme.cring)

    def column(j):
        return [cvar(scheme, i, j) for i in range(scheme.mu)]

    def apply(A, v):
        return [sum((A[r][m] * v[m] for m in range(scheme.mu)), zero)
                for r in range(scheme.mu)]

    out = []
    for j, jp, ell in scheme.next_door_pairs():
        entries = [a - b for a, b in zip(column(j),
                                         apply(mats[ell], column(jp)))]
        out += [("next-door", j, jp, i, (ell,), p)
                for i, p in enumerate(entries) if p]
    for j, jp, k, ell, parent in scheme.across_rim_pairs():
        entries = [a - b for a, b in zip(apply(mats[k], column(j)),
                                         apply(mats[ell], column(jp)))]
        out += [("across-rim", j, jp, m, (k, ell, parent), p)
                for m, p in enumerate(entries) if p]
    return out


class TestIndexForm:
    @given(O=small_order_ideals(), p=st.sampled_from((0, 2, 3, 101)))
    def test_generators_rendering_and_classes(self, O, p):
        scheme = BorderBasisScheme(O, PrimeField(p) if p else QQ)
        gens = scheme.generators
        assert [(g.kind, g.j, g.jp, g.row, g.meta, g.poly) for g in gens] \
            == reference_generators(scheme)
        labels = scheme.cring.labels
        for g in gens:
            assert form_string(g.form, labels) == g.poly.to_string()
        if gens:
            lin = linear_part_of_ideal(scheme.defining_ideal())
            assert scheme.cotangent() == cotangent_classes(lin, scheme.cring)

    def test_bbs_report_renders_every_generator(self, stairs8):
        spec = parse_job("ring x, y;\ny^3, x*y^2, x^2\n", command="bbs")
        data = run_job(spec).data
        scheme = BorderBasisScheme(stairs8)
        assert data["generators"] == [str(p) for p in scheme.defining_ideal()]


class TestVerifyStructureCatchesCorruption:
    """Each generator check fails once one generator's index form is
    corrupted in the way that check guards against."""

    @pytest.fixture
    def scheme(self, stairs8):
        scheme = BorderBasisScheme(stairs8)
        assert scheme.verify_structure().all_pass
        return scheme

    def corrupt(self, scheme, pick, change):
        g = next(g for g in scheme.generators if pick(g))
        change(g.form)
        return scheme.verify_structure()

    def test_flipped_linear_sign(self, scheme):
        def flip(form):
            key = next(k for k in form if len(k) == 1)
            form[key] = -form[key]

        report = self.corrupt(
            scheme, lambda g: sum(len(k) == 1 for k in g.form) == 2, flip)
        assert not report.checks["linear_case_table"]
        assert report.checks["arrow_homogeneous"]
        assert report.checks["quadratic_shape"]

    def test_disallowed_quadratic_pair(self, scheme):
        def add_square(form):
            a = next(k for k in form if len(k) == 2)[0]
            form[(a, a)] = scheme.cring.field.one()

        report = self.corrupt(
            scheme, lambda g: any(len(k) == 2 for k in g.form), add_square)
        assert not report.checks["quadratic_shape"]

    def test_shifted_arrow_degree(self, scheme):
        # c_{i,j} -> c_{i,j+1}: the same O term under another border term
        def shift(form):
            key = next(k for k in form
                       if len(k) == 1 and scheme.cpair(k[0])[1] + 1
                       < scheme.nu)
            form[(key[0] + 1,)] = form.pop(key)

        report = self.corrupt(
            scheme, lambda g: any(len(k) == 1 and scheme.cpair(k[0])[1] + 1
                                  < scheme.nu for k in g.form), shift)
        assert not report.checks["arrow_homogeneous"]


def _planar_order_ideals(max_exp=4):
    """Every two-variable order ideal with exponents at most max_exp: one
    per non-increasing row-length sequence in a (max_exp + 1)-square box."""
    out = []
    for rows in combinations_with_replacement(range(max_exp + 2),
                                              max_exp + 1):
        lengths = sorted(rows, reverse=True)
        if lengths[0]:
            out.append(OrderIdeal(2, tuple(
                (a, b) for b, n in enumerate(lengths) for a in range(n))))
    return out


class TestPlanarSchemeDimension:
    """Exact claims from a theorem, independent of the search's answers.

    In two indeterminates the border basis scheme of a mu-term order ideal
    is an open part of the Hilbert scheme of mu points in the plane, which
    is smooth and irreducible of dimension 2 mu (J. Fogarty, "Algebraic
    families on an algebraic surface", Amer. J. Math. 90, 1968).  So the
    indeterminates left free by the linear part number 2 mu, and a
    separating re-embedding of optimal size leaves K[Y] of dimension
    2 mu = |Y|, so its image ideal is zero: every result is an affine cell.
    """

    IDEALS = _planar_order_ideals()

    def test_tangent_dimension_is_two_mu(self):
        # lattice paths in a 5 x 5 box, less the empty one
        assert len({O.terms for O in self.IDEALS}) == 251
        # a fixed stratum (at most 10 terms, 86 ideals) keeps this fast
        stratum = [O for O in self.IDEALS if len(O) <= 10]
        assert len(stratum) == 86
        for O in stratum:
            classes = BorderBasisScheme(O).cotangent()
            assert len(classes.basic) + len(classes.proper) == 2 * len(O), \
                O.terms

    def test_every_result_is_an_affine_cell_of_dimension_two_mu(self):
        small = [O for O in self.IDEALS if 3 <= len(O) <= 4]
        assert len(small) == 8
        for O in small:
            scheme = BorderBasisScheme(O)
            report = find_reembedding_via_cotangent(scheme.defining_ideal())
            assert report.status == "all" and report.results, O.terms
            for res in report.results:
                assert res.optimal, (O.terms, res.z_labels())
                assert len(res.Y) == 2 * scheme.mu, (O.terms, res.z_labels())
                assert res.affine_cell, (O.terms, res.z_labels())
