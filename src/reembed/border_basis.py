"""Border basis scheme construction and structural verification.

From an order ideal O with border B, the scheme lives in one indeterminate
c_ij per (term of O, term of B) pair.  Its defining ideal is generated by
the next-door and across-the-rim relations, each computed as an exact
symbolic matrix-vector product of the generic multiplication matrices.  The
module also classifies rim/interior indeterminates, carries the arrow
grading, and verifies the structural facts the construction promises
(arrow homogeneity, the linear-part case table, the quadratic support
shape, and the placement of rim indeterminates in the cotangent classes).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cotangent import cotangent_classes
from .field import QQ
from .ordering import degrevlex
from .poly import Poly, linear_part_of_ideal
from .ring import Ring, tdeg, tmul, tvar


@dataclass(frozen=True)
class OrderIdeal:
    """A finite divisor-closed set of terms, sorted degree-then-degrevlex."""

    nvars: int
    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("empty order ideal")
        key = degrevlex(self.nvars).key
        object.__setattr__(self, "terms",
                           tuple(sorted(set(self.terms), key=key)))
        members = set(self.terms)
        for t in self.terms:
            for i in range(self.nvars):
                if t[i]:
                    below = tuple(e - 1 if k == i else e
                                  for k, e in enumerate(t))
                    if below not in members:
                        raise ValueError("term set is not divisor-closed")
        if (0,) * self.nvars not in members:
            raise ValueError("an order ideal contains 1")

    def __len__(self):
        return len(self.terms)

    def position(self, term):
        return self.terms.index(term)


def order_ideal(generators, nvars):
    """Divisor closure of the given terms."""
    generators = list(generators)
    if not generators:
        raise ValueError("empty generator list")
    closed = set()
    for g in generators:
        if len(g) != nvars or any(e < 0 for e in g):
            raise ValueError(f"bad term {g}")
        for divisor in product(*(range(e + 1) for e in g)):
            closed.add(divisor)
    return OrderIdeal(nvars, tuple(closed))


def border(O):
    """The border terms of O, sorted like O itself."""
    members = set(O.terms)
    out = set()
    for t in O.terms:
        for k in range(O.nvars):
            u = tmul(t, tvar(O.nvars, k))
            if u not in members:
                out.add(u)
    key = degrevlex(O.nvars).key
    return tuple(sorted(out, key=key))


def rim_interior(O):
    """Positions of rim terms (a border multiple exists) and interior terms."""
    members = set(O.terms)
    rim = []
    interior = []
    for pos, t in enumerate(O.terms):
        if any(tmul(t, tvar(O.nvars, k)) not in members
               for k in range(O.nvars)):
            rim.append(pos)
        else:
            interior.append(pos)
    return tuple(rim), tuple(interior)


@dataclass(frozen=True)
class NeighbourGenerator:
    """One entry of a next-door or across-the-rim relation tuple."""

    kind: str       # "next-door" | "across-rim"
    j: int          # border position of b_j
    jp: int         # border position of b_j'
    row: int        # entry index into the tuple (an O position)
    meta: tuple     # ND: (ell,); AR: (k, ell, parent position)
    poly: Poly


@dataclass
class StructureReport:
    checks: dict
    failures: list

    @property
    def all_pass(self):
        return all(self.checks.values())


class BorderBasisScheme:
    """All data attached to the border basis scheme of one order ideal."""

    def __init__(self, O, field=QQ):
        self.O = O
        self.border_terms = border(O)
        self.mu = len(O.terms)
        self.nu = len(self.border_terms)
        self.nvars = O.nvars
        self._opos = {t: i for i, t in enumerate(O.terms)}
        self._bpos = {t: j for j, t in enumerate(self.border_terms)}
        wide = self.mu > 9 or self.nu > 9
        labels = []
        for i in range(self.mu):
            for j in range(self.nu):
                labels.append(f"c{i+1}_{j+1}" if wide else f"c{i+1}{j+1}")
        self.cring = Ring(labels, field)
        self.rim_positions, self.interior_positions = rim_interior(O)
        self._matcols = [self._columns(k) for k in range(self.nvars)]
        self._generators = None
        self._classes = None

    # ---------- indeterminates and grading ----------

    def cvar_index(self, i, j):
        return i * self.nu + j

    def cvar(self, i, j):
        return Poly.variable(self.cring, self.cvar_index(i, j))

    def clabel(self, i, j):
        return self.cring.labels[self.cvar_index(i, j)]

    def cpair(self, index):
        return divmod(index, self.nu)

    def arrow_degree(self, i, j):
        """log(b_j) - log(t_i), the multidegree of c_ij."""
        b = self.border_terms[j]
        t = self.O.terms[i]
        return tuple(be - te for be, te in zip(b, t))

    def arrow_degree_of_term(self, exponents):
        total = (0,) * self.nvars
        for idx, e in enumerate(exponents):
            if e:
                i, j = self.cpair(idx)
                d = self.arrow_degree(i, j)
                total = tuple(a + e * b for a, b in zip(total, d))
        return total

    def rim_cvar_indices(self):
        rim = set(self.rim_positions)
        return frozenset(self.cvar_index(i, j) for i in rim
                         for j in range(self.nu))

    # ---------- multiplication matrices ----------

    def _columns(self, k):
        """Column description of A_k: ("unit", p) or ("border", lambda)."""
        cols = []
        xk = tvar(self.nvars, k)
        for t in self.O.terms:
            u = tmul(t, xk)
            if u in self._opos:
                cols.append(("unit", self._opos[u]))
            else:
                cols.append(("border", self._bpos[u]))
        return cols

    def multiplication_matrix(self, k):
        """A_k as a dense mu x mu matrix of polynomials in K[C]."""
        zero = Poly.zero(self.cring)
        one = Poly.constant(self.cring, 1)
        mat = [[zero for _ in range(self.mu)] for _ in range(self.mu)]
        for m, (kind, pos) in enumerate(self._matcols[k]):
            if kind == "unit":
                mat[pos][m] = one
            else:
                for i in range(self.mu):
                    mat[i][m] = self.cvar(i, pos)
        return mat

    def multiplication_matrices(self):
        """The generic multiplication matrices A_1 .. A_n."""
        return [self.multiplication_matrix(k) for k in range(self.nvars)]

    def _matvec(self, k, jcol):
        """A_k applied to the jcol-th column of (c_ij)."""
        acc = [Poly.zero(self.cring) for _ in range(self.mu)]
        for m, (kind, pos) in enumerate(self._matcols[k]):
            cmj = self.cvar(m, jcol)
            if kind == "unit":
                acc[pos] = acc[pos] + cmj
            else:
                for i in range(self.mu):
                    acc[i] = acc[i] + self.cvar(i, pos) * cmj
        return acc

    # ---------- neighbour pairs and generators ----------

    def next_door_pairs(self):
        """(j, j', ell) with b_j = x_ell b_j'."""
        out = []
        for j, b in enumerate(self.border_terms):
            for ell in range(self.nvars):
                if b[ell]:
                    down = tuple(e - 1 if k == ell else e
                                 for k, e in enumerate(b))
                    jp = self._bpos.get(down)
                    if jp is not None:
                        out.append((j, jp, ell))
        out.sort()
        return out

    def across_rim_pairs(self):
        """(j, j', k, ell, parent) with b_j = x_ell t_parent, b_j' = x_k t_parent."""
        out = []
        for parent, t in enumerate(self.O.terms):
            children = []
            for v in range(self.nvars):
                jb = self._bpos.get(tmul(t, tvar(self.nvars, v)))
                if jb is not None:
                    children.append((jb, v))
            children.sort()
            for a in range(len(children)):
                for b in range(a + 1, len(children)):
                    j, ell = children[a]
                    jp, k = children[b]
                    out.append((j, jp, k, ell, parent))
        out.sort()
        return out

    def nd_tuple(self, j, jp, ell):
        """The relation tuple c_j - A_ell c_j' for a next-door pair."""
        prod = self._matvec(ell, jp)
        return [self.cvar(i, j) - prod[i] for i in range(self.mu)]

    def ar_tuple(self, j, jp, k, ell):
        """The relation tuple A_k c_j - A_ell c_j' for an across-the-rim pair."""
        left = self._matvec(k, j)
        right = self._matvec(ell, jp)
        return [left[m] - right[m] for m in range(self.mu)]

    def neighbour_generators(self):
        """All nonzero relation entries, with their provenance.

        Builds them anew on every call; the scheme's own users read the
        copy kept in ``generators``.
        """
        out = []
        for j, jp, ell in self.next_door_pairs():
            tup = self.nd_tuple(j, jp, ell)
            for i, p in enumerate(tup):
                if not p.is_zero():
                    out.append(NeighbourGenerator("next-door", j, jp, i,
                                                  (ell,), p))
        for j, jp, k, ell, parent in self.across_rim_pairs():
            tup = self.ar_tuple(j, jp, k, ell)
            for m, p in enumerate(tup):
                if not p.is_zero():
                    out.append(NeighbourGenerator("across-rim", j, jp, m,
                                                  (k, ell, parent), p))
        return out

    @property
    def generators(self):
        """The neighbour generators as a tuple, built on first use only."""
        if self._generators is None:
            self._generators = tuple(self.neighbour_generators())
        return self._generators

    def defining_ideal(self):
        """Generators of the scheme's vanishing ideal in K[C]."""
        return [g.poly for g in self.generators]

    def dimension(self):
        return self.mu * self.nvars

    # ---------- cross-check backend ----------

    def commutator_entries(self):
        """Nonzero entries of all commutators A_a A_b - A_b A_a."""
        out = []
        mats = [self.multiplication_matrix(k) for k in range(self.nvars)]
        for a in range(self.nvars):
            for b in range(a + 1, self.nvars):
                A, B = mats[a], mats[b]
                for r in range(self.mu):
                    for c in range(self.mu):
                        acc = Poly.zero(self.cring)
                        for m in range(self.mu):
                            acc = acc + A[r][m] * B[m][c] - B[r][m] * A[m][c]
                        if not acc.is_zero():
                            out.append(acc)
        return out

    # ---------- cotangent view ----------

    def cotangent(self):
        """Cotangent classes of the defining ideal, computed once."""
        if self._classes is None:
            lin = linear_part_of_ideal(self.defining_ideal())
            self._classes = cotangent_classes(lin, self.cring)
        return self._classes

    # ---------- structural verification ----------

    def _predicted_nd_linear(self, j, jp, ell, i):
        t = self.O.terms[i]
        lin = self.cvar(i, j)
        if t[ell]:
            below = tuple(e - 1 if k == ell else e for k, e in enumerate(t))
            lin = lin - self.cvar(self._opos[below], jp)
        return lin

    def _predicted_ar_linear(self, j, jp, k, ell, m):
        t = self.O.terms[m]
        lin = Poly.zero(self.cring)
        if t[k]:
            below = tuple(e - 1 if v == k else e for v, e in enumerate(t))
            lin = lin + self.cvar(self._opos[below], j)
        if t[ell]:
            below = tuple(e - 1 if v == ell else e for v, e in enumerate(t))
            lin = lin - self.cvar(self._opos[below], jp)
        return lin

    def _exposed(self, v):
        """(border position, exposing O position) pairs for x_v."""
        out = []
        for t in self.O.terms:
            jb = self._bpos.get(tmul(t, tvar(self.nvars, v)))
            if jb is not None:
                out.append((jb, self._opos[t]))
        return out

    def _allowed_quadratic(self, gen):
        """Exponent vectors the quadratic part may use."""
        allowed = set()
        if gen.kind == "next-door":
            (ell,) = gen.meta
            for lam, rho in self._exposed(ell):
                u = tmul(tvar(self.cring.n, self.cvar_index(gen.row, lam)),
                         tvar(self.cring.n, self.cvar_index(rho, gen.jp)))
                allowed.add(u)
        else:
            k, ell, _ = gen.meta
            for kap, rho in self._exposed(k):
                u = tmul(tvar(self.cring.n, self.cvar_index(gen.row, kap)),
                         tvar(self.cring.n, self.cvar_index(rho, gen.j)))
                allowed.add(u)
            for lam, sig in self._exposed(ell):
                u = tmul(tvar(self.cring.n, self.cvar_index(gen.row, lam)),
                         tvar(self.cring.n, self.cvar_index(sig, gen.jp)))
                allowed.add(u)
        return allowed

    def verify_structure(self):
        """Check the promised shape of every neighbour generator."""
        checks = {
            "arrow_homogeneous": True,
            "linear_case_table": True,
            "quadratic_shape": True,
            "basic_are_rim": True,
            "proper_contain_rim": True,
        }
        failures = []
        gens = self.generators
        rim_cols = self.rim_cvar_indices()

        for g in gens:
            degs = {self.arrow_degree_of_term(t) for t in g.poly.coeffs}
            if g.kind == "next-door":
                expected = self.arrow_degree(g.row, g.j)
            else:
                k, _, _ = g.meta
                base = self.arrow_degree(g.row, g.j)
                expected = tuple(b + (1 if v == k else 0)
                                 for v, b in enumerate(base))
            if degs != {expected}:
                checks["arrow_homogeneous"] = False
                failures.append(f"arrow degree of {g.kind} ({g.j},{g.jp}) "
                                f"entry {g.row}: {degs} != {expected}")

            lin = g.poly.homogeneous_component(1)
            if g.kind == "next-door":
                pred = self._predicted_nd_linear(g.j, g.jp, g.meta[0], g.row)
            else:
                k, ell, _ = g.meta
                pred = self._predicted_ar_linear(g.j, g.jp, k, ell, g.row)
            if lin != pred and lin != -pred:
                checks["linear_case_table"] = False
                failures.append(f"linear part of {g.kind} ({g.j},{g.jp}) "
                                f"entry {g.row}: {lin} vs predicted {pred}")

            allowed = self._allowed_quadratic(g)
            for t in g.poly.coeffs:
                if tdeg(t) == 2 and t not in allowed:
                    checks["quadratic_shape"] = False
                    failures.append(f"quadratic term {t} of {g.kind} "
                                    f"({g.j},{g.jp}) entry {g.row} "
                                    "outside the allowed shape")

        if gens:
            classes = self.cotangent()
            for b in classes.basic:
                if b not in rim_cols:
                    checks["basic_are_rim"] = False
                    failures.append(
                        f"basic indeterminate {self.cring.labels[b]} "
                        "is interior")
            for e in classes.proper:
                if not (e & rim_cols):
                    checks["proper_contain_rim"] = False
                    failures.append("proper class without rim indeterminate: "
                                    + str(sorted(self.cring.labels[i]
                                                 for i in e)))
        return StructureReport(checks, failures)
