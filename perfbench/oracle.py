"""Independent checks of job reports.

Nothing here imports ``reembed``.  Worked examples compare ``Report.data``
with ``jobs/golden/*.json``.  Generated jobs are checked against what the
generator built: fan cells against every nonzero maximal minor and, on a
seeded sample of cells, against sympy's inverse-times-matrix product,
re-embeddings by substituting every verified ``z -> h(Y)`` into every
generator, border basis schemes against a direct construction of the
next-door and across-the-rim relations.

Each check returns a list of disagreements; an empty list means the report
agrees with the reference.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from itertools import combinations

from sympy import Matrix, QQ, Rational
from sympy.polys.rings import ring as sympy_ring

from corpus import JOBS_DIR, shape_border, shape_terms

_COEFF = re.compile(r"(\d+)(?:/(\d+))?")


def make_ring(labels):
    R, *gens = sympy_ring(",".join(labels), QQ)
    return R, dict(zip(labels, gens))


def from_dict(R, p):
    """A generator-side {exponent tuple: Fraction} polynomial in R."""
    return R({t: QQ(c.numerator, c.denominator) for t, c in p.items()})


def parse_output(text, R, names):
    """Parse a polynomial as the program prints it (``1/2z^6 - x*y``)."""
    text = text.strip()
    total = R.zero
    if text == "0":
        return total
    for piece in text.replace(" - ", " + -").split(" + "):
        sign = 1
        if piece.startswith("-"):
            sign, piece = -1, piece[1:]
        coeff = QQ(1)
        m = _COEFF.match(piece)
        if m:
            coeff = QQ(int(m.group(1)), int(m.group(2) or 1))
            piece = piece[m.end():]
        term = R.one
        if piece:
            for factor in piece.split("*"):
                name, _, exp = factor.partition("^")
                term *= names[name] ** int(exp or 1)
        total += sign * coeff * term
    return total


def _job_rng(job):
    return random.Random(job.text)


# ---------- worked examples ----------

def check_golden(job, data):
    path = JOBS_DIR / "golden" / f"{job.expect['name']}.json"
    golden = json.loads(path.read_text(encoding="utf-8"))
    return [] if data == golden else [f"{path.name}: report differs"]


# ---------- linear-fan ----------

FAN_CELL_SAMPLES = 2


def fraction_det(rows):
    """Determinant by Gaussian elimination over Fractions."""
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def check_fan(job, data):
    rows = job.expect["matrix"]
    A = Matrix([[Rational(c.numerator, c.denominator) for c in row]
                for row in rows])
    r = job.expect["rank"]
    labels = job.expect["labels"]
    n = len(labels)
    errors = []
    bases = [tuple(b) for b in data["bases"]]
    if len(data["gbs"]) != len(bases):
        errors.append("one marked basis per cell expected")
    # every column subset with a nonzero maximal minor; zero columns are in
    # none, so only the nonzero columns are enumerated
    support = [j for j in range(n) if any(row[j] for row in rows)]
    want = [tuple(j + 1 for j in S) for S in combinations(support, r)
            if fraction_det([[row[j] for j in S] for row in rows])]
    if bases != want:
        errors.append(f"{len(bases)} cells reported, {len(want)} nonzero "
                      "maximal minors")
    if errors:
        return errors
    rng = _job_rng(job)
    R, names = make_ring(labels)
    for k in rng.sample(range(len(bases)), min(FAN_CELL_SAMPLES, len(bases))):
        S = [j - 1 for j in bases[k]]
        reduced = A[:, S].inv() * A
        pairs = data["gbs"][k]
        if [m for m, _ in pairs] != [labels[j] for j in S]:
            errors.append(f"cell {bases[k]}: markers differ")
            continue
        for row, (_, form) in enumerate(pairs):
            want = sum((reduced[row, j] * names[labels[j]]
                        for j in range(n) if reduced[row, j]), R.zero)
            if parse_output(form, R, names) != want:
                errors.append(f"cell {bases[k]}: form {form!r} differs")
    return errors


def check_cotangent(job, data):
    e = job.expect
    labels = e["labels"]

    def names(idx):
        return sorted(labels[i] for i in idx)

    errors = []
    if data["trivial"] != names(e["trivial"]):
        errors.append("trivial class differs")
    if data["basic"] != names(e["basic"]):
        errors.append("basic indeterminates differ")
    proper = sorted(names(c) for c in e["proper"])
    if sorted(data["proper"]) != proper:
        errors.append("proper classes differ")
    size = 1
    for c in e["proper"]:
        size *= len(c)
    if data["ltgfan_size"] != size:
        errors.append("leading-term fan size differs")
    want = set()
    for drops in _product([[set(c) - {d} for d in c] for c in e["proper"]]):
        s = set(e["trivial"])
        for part in drops:
            s |= part
        want.add(tuple(names(s)))
    got = {tuple(s) for s in data.get("ltgfan", [])}
    if got != want or len(data.get("ltgfan", [])) != len(want):
        errors.append("leading-term sets differ")
        return errors
    # each reported set carries a nonzero maximal minor of the linear part
    rows = []
    for g in e["gens"]:
        lin = [0] * len(labels)
        for t, c in g.items():
            if sum(t) == 1:
                lin[t.index(1)] = Rational(c.numerator, c.denominator)
        rows.append(lin)
    M = Matrix(rows).rref()[0]
    M = M[:M.rank(), :]
    index = {lab: i for i, lab in enumerate(labels)}
    for s in _job_rng(job).sample(sorted(got), min(2, len(got))):
        if M[:, [index[lab] for lab in s]].det() == 0:
            errors.append(f"leading-term set {s} has a vanishing minor")
    return errors


def _product(lists):
    out = [[]]
    for choices in lists:
        out = [prefix + [c] for prefix in out for c in choices]
    return out


# ---------- reembed-dense ----------

def check_reembed(job, data):
    e = job.expect
    labels = e["labels"]
    R, names = make_ring(labels)
    gens = [from_dict(R, g) for g in e["gens"]]
    errors = []
    results = data["results"]
    want_status = "found" if e["alg"] == "gfan" else "all"
    if data["status"] != want_status or not results:
        return [f"status {data['status']} with {len(results)} results, "
                f"expected {want_status} with at least one"]
    yes = [t["Z"] for t in data["tried"] if t["check"] == "yes"]
    if any(t["check"] not in ("yes", "no") for t in data["tried"]):
        errors.append("a candidate check is neither yes nor no")
    if sorted(yes) != sorted(r["Z"] for r in results):
        errors.append("verified candidates and results differ")
    hidden = [labels[i] for i in e["Z"]]
    if e["alg"] == "cotangent" and hidden not in [r["Z"] for r in results]:
        errors.append(f"hidden tuple {hidden} not among the results")
    for res in results:
        Z, Y = res["Z"], res["Y"]
        if sorted(Z + Y) != sorted(labels) or len(Z) != len(hidden):
            errors.append(f"Z={Z}, Y={Y} is not an optimal split")
            continue
        if not (res["optimal"] and res["affine_cell"]):
            errors.append(f"Z={Z}: optimal and affine_cell expected")
        if sorted(res["substitution"]) != sorted(Z):
            errors.append(f"Z={Z}: substitution keys differ")
            continue
        images = []
        for z in Z:
            h = parse_output(res["substitution"][z], R, names)
            if any(h.degree(names[v]) > 0 for v in Z):
                errors.append(f"Z={Z}: image of {z} involves Z")
            images.append((names[z], h))
        for g in gens:
            if g.compose(images) != 0:
                errors.append(f"Z={Z}: substitution leaves a generator")
                break
    return errors


# ---------- bbs-scheme ----------

def bbs_reference(heights):
    """Order ideal, border and defining generators, built from scratch."""
    key = lambda t: (t[0] + t[1], t[0])   # degrevlex ascending, x > y
    O = sorted(shape_terms(heights), key=key)
    B = sorted(shape_border(heights), key=key)
    mu, nu = len(O), len(B)
    wide = mu > 9 or nu > 9
    labels = [f"c{i + 1}_{j + 1}" if wide else f"c{i + 1}{j + 1}"
              for i in range(mu) for j in range(nu)]
    R, names = make_ring(labels)
    c = [[names[labels[i * nu + j]] for j in range(nu)] for i in range(mu)]
    opos = {t: i for i, t in enumerate(O)}
    bpos = {t: j for j, t in enumerate(B)}
    step = ((1, 0), (0, 1))

    def times(t, k):
        return (t[0] + step[k][0], t[1] + step[k][1])

    def matvec(k, col):
        acc = [R.zero] * mu
        for m, t in enumerate(O):
            u = times(t, k)
            if u in opos:
                acc[opos[u]] += c[m][col]
            else:
                for i in range(mu):
                    acc[i] += c[i][bpos[u]] * c[m][col]
        return acc

    gens = []
    for j, b in enumerate(B):
        for ell in range(2):
            if b[ell]:
                down = (b[0] - step[ell][0], b[1] - step[ell][1])
                if down in bpos:
                    prod = matvec(ell, bpos[down])
                    gens += [c[i][j] - prod[i] for i in range(mu)]
    for t in O:
        children = sorted((bpos[times(t, v)], v) for v in range(2)
                          if times(t, v) in bpos)
        for a, b in combinations(children, 2):
            (j, ell), (jp, k) = a, b
            left, right = matvec(k, j), matvec(ell, jp)
            gens += [left[m] - right[m] for m in range(mu)]
    gens = [g for g in gens if g]
    rim = [t for t in O if any(times(t, k) not in opos for k in range(2))]
    return O, B, labels, R, names, gens, rim


def _term_text(t):
    parts = []
    for name, e in zip("xy", t):
        if e:
            parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) or "1"


def _up_to_sign(p):
    return p if p.LC > 0 else -p


def check_bbs(job, data):
    heights = job.expect["heights"]
    O, B, labels, R, names, gens, rim = bbs_reference(heights)
    errors = []
    mu, nu = len(O), len(B)
    if (data["mu"], data["nu"], data["num_indets"], data["dimension"]) != \
            (mu, nu, mu * nu, 2 * mu):
        errors.append("mu, nu, ring size or dimension differ")
    if data["order_ideal"] != [_term_text(t) for t in O]:
        errors.append("order ideal differs")
    if data["border"] != [_term_text(t) for t in B]:
        errors.append("border differs")
    if data["rim_terms"] != [_term_text(t) for t in rim]:
        errors.append("rim terms differ")
    if not all(data["verification"].values()):
        errors.append("a structural check failed")
    got = sorted(sorted(_up_to_sign(parse_output(g, R, names)).items())
                 for g in data["generators"])
    want = sorted(sorted(_up_to_sign(g).items()) for g in gens)
    if got != want:
        errors.append("defining generators differ")
    if job.expect["reembed"]:
        errors += _check_bbs_reembed(data, labels, gens)
    return errors


def _check_bbs_reembed(data, labels, gens):
    summary = data.get("reembed")
    if summary is None:
        return ["no re-embedding summary"]
    errors = []
    if summary["count"] != len(summary["results"]):
        errors.append("re-embedding count differs from its results")
    rows = []
    for g in gens:
        rows.append([g.coeff(gen) for gen in g.ring.gens])
    lin_dim = Matrix(rows).rank() if rows else 0
    for res in summary["results"]:
        Z, Y = res["Z"], res["Y"]
        if sorted(Z + Y) != sorted(labels):
            errors.append(f"Z={Z}, Y={Y} do not split the indeterminates")
        if not res["optimal"] or len(Z) != lin_dim:
            errors.append(f"Z={Z}: optimal tuple of size {lin_dim} expected")
    return errors


CHECKS = {
    "golden": check_golden,
    "fan": check_fan,
    "cotangent": check_cotangent,
    "reembed": check_reembed,
    "bbs": check_bbs,
}


def check(job, data):
    try:
        return CHECKS[job.check](job, data)
    except (KeyError, ValueError, TypeError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
