"""Border basis scheme construction and structural verification.

From an order ideal O with border B, the scheme lives in one indeterminate
c_ij per (term of O, term of B) pair, numbered i * nu + j.  Its defining
ideal is generated by the next-door and across-the-rim relations: the
entries of c_j - A_ell c_j' and A_k c_j - A_ell c_j', where A_k is the
generic multiplication matrix of x_k and c_j the j-th column of (c_ij).
Every entry is a sum of single indeterminates and products of two, so each
generator is built and checked in its index form: a dict from a sorted
tuple of c-indices, (a,) or (a, b) with a <= b, to a field element.  The
cost of a term is then its 1-2 indices, not the 25-180 exponents of the
ring.  A generator is kept in index form only: ``defining_ideal`` builds
its ``Poly`` when asked, which only the search of ``bbs --reembed`` does.

The module also classifies rim/interior indeterminates, carries the arrow
grading, and verifies the structural facts the construction promises
(arrow homogeneity, the linear-part case table, the quadratic support
shape, and the placement of rim indeterminates in the cotangent classes).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cotangent import (
    cotangent_classes,  # not called here: perfbench/spans.py binds it here
    cotangent_classes_of_rows,
)
from .field import QQ
from .ordering import degrevlex
from .poly import Poly, join_terms
from .ring import Ring, tmul, tvar


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
    """One nonzero entry of a next-door or across-the-rim relation tuple.

    ``form`` is the entry in index form ({sorted c-index tuple: coefficient},
    see the module docstring), its only stored form; equality compares it.
    ``BorderBasisScheme.defining_ideal`` turns it into a ``Poly``.
    """

    kind: str       # "next-door" | "across-rim"
    j: int          # border position of b_j
    jp: int         # border position of b_j'
    row: int        # entry index into the tuple (an O position)
    meta: tuple     # ND: (ell,); AR: (k, ell, parent position)
    form: dict


def _add(form, key, c):
    """Add c to one coefficient of an index form, in place."""
    s = form.get(key)
    if s is None:
        form[key] = c
    else:
        s = s + c
        if s:
            form[key] = s
        else:
            del form[key]


def _difference(a, b):
    """The index form a - b."""
    out = dict(a)
    for key, c in b.items():
        _add(out, key, -c)
    return out


def _linear_part(form):
    """The degree-one terms of an index form."""
    return {key: c for key, c in form.items() if len(key) == 1}


def _key_string(key, labels):
    """An index-form term as text: c11*c23, or c11^2 for a square."""
    if len(key) == 2 and key[0] == key[1]:
        return f"{labels[key[0]]}^2"
    return "*".join(labels[a] for a in key)


def form_string(form, labels):
    """An index form as ``Poly.to_string`` renders the same polynomial.

    Descending degrevlex on sorted index tuples is ascending order by
    (-degree, reversed indices).
    """
    order = sorted(form, key=lambda key: (-len(key), key[::-1]))
    return join_terms((form[key], _key_string(key, labels)) for key in order)


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

    def clabel(self, i, j):
        return self.cring.labels[self.cvar_index(i, j)]

    def cpair(self, index):
        return divmod(index, self.nu)

    def arrow_degree(self, i, j):
        """log(b_j) - log(t_i), the multidegree of c_ij."""
        b = self.border_terms[j]
        t = self.O.terms[i]
        return tuple(be - te for be, te in zip(b, t))

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

    def _matvec(self, k, jcol):
        """A_k applied to the jcol-th column of (c_ij), as index forms."""
        one = self.cring.field.one()
        nu = self.nu
        acc = [{} for _ in range(self.mu)]
        for m, (kind, pos) in enumerate(self._matcols[k]):
            cmj = m * nu + jcol
            if kind == "unit":
                _add(acc[pos], (cmj,), one)
            else:
                for i in range(self.mu):
                    ci = i * nu + pos
                    _add(acc[i], (ci, cmj) if ci <= cmj else (cmj, ci), one)
        return acc

    def _poly(self, form):
        """The Poly of an index form, sharing its coefficients."""
        n = self.cring.n
        coeffs = {}
        for key, c in form.items():
            e = [0] * n
            for a in key:
                e[a] += 1
            coeffs[tuple(e)] = c
        return Poly._trusted(self.cring, coeffs)

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

    def neighbour_generators(self):
        """All nonzero relation entries, with their provenance.

        Builds them anew on every call; the scheme's own users read the
        copy kept in ``generators``.
        """
        out = []

        def emit(kind, j, jp, row, meta, form):
            if form:
                out.append(NeighbourGenerator(kind, j, jp, row, meta, form))

        one = self.cring.field.one()
        for j, jp, ell in self.next_door_pairs():
            prod = self._matvec(ell, jp)
            for i in range(self.mu):
                own = {(self.cvar_index(i, j),): one}
                emit("next-door", j, jp, i, (ell,),
                     _difference(own, prod[i]))
        for j, jp, k, ell, parent in self.across_rim_pairs():
            left = self._matvec(k, j)
            right = self._matvec(ell, jp)
            for m in range(self.mu):
                emit("across-rim", j, jp, m, (k, ell, parent),
                     _difference(left[m], right[m]))
        return out

    @property
    def generators(self):
        """The neighbour generators as a tuple, built on first use only."""
        if self._generators is None:
            self._generators = tuple(self.neighbour_generators())
        return self._generators

    def defining_ideal(self):
        """Generators of the scheme's vanishing ideal in K[C], built anew."""
        return [self._poly(g.form) for g in self.generators]

    def dimension(self):
        return self.mu * self.nvars

    # ---------- cotangent view ----------

    def cotangent(self):
        """Cotangent classes of the defining ideal, computed once from the
        row {a: coefficient} of each form's degree-one keys (a,)."""
        if self._classes is None:
            rows = [{key[0]: c for key, c in g.form.items() if len(key) == 1}
                    for g in self.generators]
            self._classes = cotangent_classes_of_rows(rows, self.cring)
        return self._classes

    # ---------- structural verification ----------

    def _below(self, pos, v):
        """Position of t_pos / x_v in O, or None when x_v does not divide."""
        t = self.O.terms[pos]
        if not t[v]:
            return None
        return self._opos[tuple(e - 1 if k == v else e
                                for k, e in enumerate(t))]

    def _predicted_linear(self, gen):
        """The linear part the case table predicts, in index form."""
        one = self.cring.field.one()
        pred = {}
        if gen.kind == "next-door":
            (ell,) = gen.meta
            pred[(self.cvar_index(gen.row, gen.j),)] = one
        else:
            k, ell, _ = gen.meta
            up = self._below(gen.row, k)
            if up is not None:
                pred[(self.cvar_index(up, gen.j),)] = one
        down = self._below(gen.row, ell)
        if down is not None:
            pred[(self.cvar_index(down, gen.jp),)] = -one
        return pred

    def _exposed(self, v):
        """(border position, exposing O position) pairs for x_v."""
        out = []
        for t in self.O.terms:
            jb = self._bpos.get(tmul(t, tvar(self.nvars, v)))
            if jb is not None:
                out.append((jb, self._opos[t]))
        return out

    def _allowed_quadratic(self, gen, exposed):
        """Index pairs the quadratic part may use; exposed[v] is _exposed(v)."""
        def pairs(v, col):
            for b, o in exposed[v]:
                a, c = self.cvar_index(gen.row, b), self.cvar_index(o, col)
                yield (a, c) if a <= c else (c, a)

        if gen.kind == "next-door":
            return set(pairs(gen.meta[0], gen.jp))
        k, ell, _ = gen.meta
        return set(pairs(k, gen.j)) | set(pairs(ell, gen.jp))

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
        labels = self.cring.labels
        adeg = [self.arrow_degree(*self.cpair(c)) for c in range(self.cring.n)]
        exposed = [self._exposed(v) for v in range(self.nvars)]

        for g in gens:
            where = f"{g.kind} ({g.j},{g.jp}) entry {g.row}"
            degs = {tuple(map(sum, zip(*(adeg[a] for a in key))))
                    for key in g.form}
            expected = adeg[self.cvar_index(g.row, g.j)]
            if g.kind == "across-rim":
                k = g.meta[0]
                expected = tuple(b + (1 if v == k else 0)
                                 for v, b in enumerate(expected))
            if degs != {expected}:
                checks["arrow_homogeneous"] = False
                failures.append(f"arrow degree of {where}: "
                                f"{degs} != {expected}")

            lin = _linear_part(g.form)
            pred = self._predicted_linear(g)
            if lin != pred and lin != {a: -c for a, c in pred.items()}:
                checks["linear_case_table"] = False
                failures.append(f"linear part of {where}: "
                                f"{form_string(lin, labels)} vs predicted "
                                f"{form_string(pred, labels)}")

            allowed = self._allowed_quadratic(g, exposed)
            for key in g.form:
                if len(key) == 2 and key not in allowed:
                    checks["quadratic_shape"] = False
                    failures.append(f"quadratic term "
                                    f"{_key_string(key, labels)} of {where} "
                                    "outside the allowed shape")

        if gens:
            classes = self.cotangent()
            for b in classes.basic:
                if b not in rim_cols:
                    checks["basic_are_rim"] = False
                    failures.append(
                        f"basic indeterminate {labels[b]} is interior")
            for e in classes.proper:
                if not (e & rim_cols):
                    checks["proper_contain_rim"] = False
                    failures.append("proper class without rim indeterminate: "
                                    + str(sorted(labels[i] for i in e)))
        return StructureReport(checks, failures)
