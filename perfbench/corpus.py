"""Seeded job corpora for the benchmark workloads.

The program under test sees only job-file text, exactly what a user would
hand to ``reembed <subcommand> <jobfile>``.  Each generated job also carries
the generator's own description of its input (matrix, hidden re-embedding,
order-ideal shape) for the oracle; that description never reaches the
program.

A workload is a sequence of rounds.  Every round has the same composition
(job classes and how many of each); the seed only draws the instances inside
each class and their order.  Runs therefore see the same mix of work on
every seed, and per-seed differences average out over the rounds of a run.
Instances are never filtered or re-drawn by how the program behaves on
them: every rule below depends on the input alone.

Workloads, why each was chosen, and which layers it should and should not
load:

``linear-fan``
    ``gfan-linear`` jobs on seeded rational matrices of rank 3-6 with 12-30
    columns and mixed sparsity (dense, coordinate, parallel, two-entry and
    zero columns), plus ``cotangent --fan`` jobs on binomial systems and the
    ``fan_two_forms`` worked example.  Column counts fall on both sides of
    ``EXHAUSTIVE_COLUMN_LIMIT = 20``, so both matroid enumeration paths run
    (exhaustive minors, basis exchange).  Should load ``linalg``
    (determinants, per-cell solves), ``linear_gfan``, ``cotangent`` and the
    report writer in ``jobs`` (50-200 cells, tens of kilobytes per report;
    matrices with thousands of cells take seconds per job, too few to fit a
    run).  Should not load ``groebner``, ``search`` or ``border_basis``.

``reembed-dense``
    ``reembed`` jobs (``--alg gfan`` and ``--alg cotangent --all``) on
    seeded hidden re-embedding ideals in 4-7 indeterminates -- generators
    ``z_i - h_i(Y)`` bulked up by polynomial multiples, in the style of the
    ten-generator curve and the twisted curve -- plus the worked examples
    ``gb_ten_generators``, ``reembed_twisted_curve`` and
    ``reembed_graph_surface``.  This is the paper's main pipeline: should
    load ``groebner`` (Buchberger with rational coefficient growth in few
    indeterminates), ``search`` and ``poly.substitute``.  Should not load
    ``border_basis``.  The input rules in ``hidden_reembedding`` keep every
    candidate check short; jobs take milliseconds, so a run holds thousands.

``bbs-scheme``
    ``bbs`` jobs on seeded order ideals in two indeterminates with
    exponents at most 4 whose schemes live in rings of 25-180
    indeterminates; the ``bbs_staircase`` worked example with ``--reembed``
    (40 indeterminates, 7-9 s, mostly Buchberger) in every round; and
    ``bbs --reembed`` on every order ideal with three or four terms (6-20
    indeterminates) in every round.  The ``--reembed`` rule is fixed on the
    input size: shapes with five or more terms made the search run from
    seconds to well past 20 s.  Scheme jobs are drawn band by band, each
    job from its own slice of the band's shapes sorted by ring size (see
    ``BBS_BANDS``), so every round covers each band from small to large
    rings; the jobs that set the round's median and 90th percentile are
    then the same mix of work on every seed.  Should load ``border_basis``
    (construction and structure verification) and the ``ring``/``poly``
    term work of wide rings, and ``groebner`` in its sparse form: many
    indeterminates with +-1 coefficients, unlike ``reembed-dense``, so a
    change that helps one use of ``groebner`` and hurts the other shows up.
    The three ``reembed``/``gb`` worked examples ride along in every round
    so their golden reports are checked in every run.

``BENCHMARK.json`` lists ``linear-fan`` and ``bbs-scheme``.  ``reembed-dense``
stays runnable by hand.  Runs are long (45 s) so that each holds several
rounds, and a time budget for repeated runs of every listed workload then
holds two workloads.  The layers of ``reembed-dense`` stay measured:
``groebner``, ``search`` and ``poly.substitute`` through the staircase and
``--reembed`` jobs of ``bbs-scheme``, ``linear_gfan``/``linalg``/
``cotangent`` in ``linear-fan``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOBS_DIR = ROOT / "jobs"

# worked examples: job name -> (command, JobSpec fields as the CLI flags set
# them in each file's "Run:" line)
WORKED = {
    "fan_two_forms": ("gfan-linear", {}),
    "gb_ten_generators": ("gb", {"ordering_spec": "elim(x)"}),
    "reembed_twisted_curve": ("reembed", {"alg": "gfan", "size": 3}),
    "reembed_graph_surface": ("reembed", {"alg": "cotangent",
                                          "all_results": True}),
    "bbs_staircase": ("bbs", {"chain_reembed": True}),
}


@dataclass
class Job:
    """One job: the text the program sees plus what the oracle needs."""

    kind: str        # job class, e.g. "gfan-linear/exchange/5x28"; every
                     # round of a workload holds the same classes
    text: str        # job-file text
    command: str
    options: dict    # JobSpec fields, as the command-line flags set them
    check: str       # oracle name
    expect: dict     # generator-side description of the input


# ---------- polynomials as {exponent tuple: Fraction} ----------

def padd(p, q, scale=1):
    out = dict(p)
    for t, c in q.items():
        v = out.get(t, 0) + scale * c
        if v:
            out[t] = v
        else:
            out.pop(t, None)
    return out


def pmul(p, q):
    out = {}
    for s, a in p.items():
        for t, b in q.items():
            u = tuple(x + y for x, y in zip(s, t))
            v = out.get(u, 0) + a * b
            if v:
                out[u] = v
            else:
                out.pop(u)
    return out


def unit(n, i, c=1):
    return {tuple(1 if k == i else 0 for k in range(n)): Fraction(c)}


def coefficient_text(c):
    return str(c.numerator) if c.denominator == 1 else \
        f"{c.numerator}/{c.denominator}"


def poly_text(p, labels):
    """Job-file text of a polynomial; terms by descending degree."""
    if not p:
        return "0"
    out = []
    for t in sorted(p, key=lambda t: (-sum(t), tuple(-e for e in t))):
        c = p[t]
        mono = "*".join(lab if e == 1 else f"{lab}^{e}"
                        for lab, e in zip(labels, t) if e)
        mag = abs(c)
        if not mono:
            body = coefficient_text(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{coefficient_text(mag)}*{mono}"
        if not out:
            out.append(f"-{body}" if c < 0 else body)
        else:
            out.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(out)


def job_text(command, labels, lines):
    return (f"job: {command};\nring {', '.join(labels)};\n"
            + "\n".join(lines) + "\n")


def small_rational(rng):
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 9),
                    rng.choice((1, 1, 1, 2, 3)))


def random_monomial(rng, n, degree, among=None):
    among = list(range(n)) if among is None else list(among)
    e = [0] * n
    for _ in range(degree):
        e[rng.choice(among)] += 1
    return tuple(e)


# ---------- worked examples ----------

def worked_job(name):
    command, options = WORKED[name]
    text = (JOBS_DIR / f"{name}.job").read_text(encoding="utf-8")
    return Job(f"worked/{name}", text, command, dict(options), "golden",
               {"name": name})


# ---------- linear-fan ----------

# (rows, columns, dense, coordinate, parallel, two-entry) columns; the rest
# of the columns are zero.  Dense columns have every entry nonzero, a
# coordinate column has one nonzero entry (rows in turn), a parallel column
# is a multiple of a dense column, a two-entry column has two random rows.
# The first shapes take the exhaustive-minor path (<= 20 columns), the rest
# the basis-exchange path.  The cheapest shape comes three times a round, so
# the median job of a round lies inside its class, not between two classes.
FAN_SHAPES = (
    (3, 12, 3, 3, 1, 1),
    (3, 12, 3, 3, 1, 1),
    (3, 12, 3, 3, 1, 1),
    (3, 16, 3, 4, 2, 1),
    (4, 14, 3, 3, 1, 1),
    (4, 20, 4, 3, 1, 1),
    (5, 18, 4, 3, 1, 1),
    (3, 24, 3, 3, 1, 1),
    (4, 26, 4, 3, 1, 1),
    (5, 28, 4, 4, 1, 1),
    (6, 30, 5, 3, 1, 1),
)


def fan_matrix(rng, rows, cols, dense, coord, parallel, two):
    columns = []
    dense_cols = []
    for _ in range(dense):
        col = [small_rational(rng) for _ in range(rows)]
        dense_cols.append(col)
        columns.append(col)
    for k in range(coord):
        col = [Fraction(0)] * rows
        col[k % rows] = small_rational(rng)
        columns.append(col)
    for _ in range(parallel):
        c = small_rational(rng)
        columns.append([c * x for x in rng.choice(dense_cols)])
    for _ in range(two):
        col = [Fraction(0)] * rows
        for i in rng.sample(range(rows), 2):
            col[i] = small_rational(rng)
        columns.append(col)
    while len(columns) < cols:
        columns.append([Fraction(0)] * rows)
    rng.shuffle(columns)
    return [[columns[j][i] for j in range(cols)] for i in range(rows)]


def fan_job(rng, shape):
    rows, cols = shape[0], shape[1]
    matrix = fan_matrix(rng, *shape)
    labels = [f"x{j + 1}" for j in range(cols)]
    lines = [poly_text({tuple(1 if k == j else 0 for k in range(cols)): c
                        for j, c in enumerate(row) if c}, labels)
             for row in matrix]
    path = "exhaustive" if cols <= 20 else "exchange"
    return Job(f"gfan-linear/{path}/{rows}x{cols}",
               job_text("gfan-linear", labels, lines), "gfan-linear", {},
               "fan", {"matrix": matrix, "rank": rows, "labels": labels})


def binomial_system_job(rng):
    """A system whose linear part is binomial: trivial, proper, basic."""
    n = rng.randint(10, 16)
    order = list(range(n))
    rng.shuffle(order)
    ntriv = rng.randint(1, 2)
    trivial = order[:ntriv]
    rest = order[ntriv:]
    proper = []
    pos = 0
    for _ in range(rng.randint(2, 4)):
        size = rng.randint(2, 3)
        if pos + size > len(rest):
            break
        proper.append(rest[pos:pos + size])
        pos += size
    basic = rest[pos:]
    labels = [f"x{j + 1}" for j in range(n)]

    def tail():
        p = {}
        for _ in range(rng.randint(1, 2)):
            p = padd(p, {random_monomial(rng, n, rng.randint(2, 3)):
                         small_rational(rng)})
        return p

    gens = [padd(unit(n, v, small_rational(rng)), tail()) for v in trivial]
    for members in proper:
        for a, b in zip(members, members[1:]):
            edge = padd(unit(n, a), unit(n, b, small_rational(rng)))
            gens.append(padd(edge, tail()))
    gens.append(tail())
    rng.shuffle(gens)
    lines = [poly_text(g, labels) for g in gens if g]
    return Job("cotangent/binomial", job_text("cotangent", labels, lines),
               "cotangent", {"show_fan": True}, "cotangent",
               {"labels": labels, "trivial": trivial, "basic": basic,
                "proper": proper, "gens": gens})


def linear_fan_round(rng):
    jobs = [fan_job(rng, shape) for shape in FAN_SHAPES]
    jobs += [binomial_system_job(rng) for _ in range(5)]
    jobs.append(worked_job("fan_two_forms"))
    rng.shuffle(jobs)
    return jobs


# ---------- reembed-dense ----------

def hidden_reembedding(rng, n, m, link):
    """Generators of an ideal whose quotient is K[Y], |Y| = n - m.

    Z-variables z_i = h_i(Y), nonlinear terms of degree 2-3.  With ``link``,
    about half of the h_i get one linear term in a Y-variable of their own
    with a larger index than z_i, and nonlinear terms use only the other
    Y-variables: the fan of the linear part then has cells that swap z_i
    for its linked variable, and the hidden tuple is the lexicographically
    first cell, the first candidate the fan search checks.  Checks of the
    swapped candidates occasionally ran past 60 s, so they are never
    reached: ``--alg gfan`` stops at the first verified tuple, and jobs
    that verify every candidate (``--alg cotangent --all``) get no links.
    The m defining generators z_i - h_i are mixed by a triangular matrix
    with constant diagonal and polynomial entries above it, and 1-2
    redundant polynomial combinations are appended.
    """
    Z = sorted(rng.sample(range(n), m))
    free = [i for i in range(n) if i not in Z]
    linked = {}
    for z in Z:
        later = [y for y in free if y > z]
        if link and len(free) > 1 and later and rng.random() < 0.5:
            linked[z] = rng.choice(later)
            free.remove(linked[z])
    base = []
    for z in Z:
        h = {}
        if z in linked:
            h = unit(n, linked[z], small_rational(rng))
        for _ in range(rng.randint(1, 2)):
            h = padd(h, {random_monomial(rng, n, rng.randint(2, 3), free):
                         small_rational(rng)})
        base.append(padd(unit(n, z), h, -1))

    def multiplier():
        return {random_monomial(rng, n, 1): small_rational(rng)}

    # unitriangular mixing (up to the constant diagonal) with polynomial
    # entries is invertible over the polynomial ring, so the ideal is kept
    gens = []
    for j in range(m):
        g = padd({}, base[j], small_rational(rng))
        for i in range(j + 1, m):
            g = padd(g, base[i], small_rational(rng))
            if rng.random() < 0.5:
                g = padd(g, pmul(multiplier(), base[i]))
        gens.append(g)
    for _ in range(rng.randint(1, 2)):
        g = {}
        for b in base:
            g = padd(g, pmul(multiplier(), b))
        if g:
            gens.append(g)
    rng.shuffle(gens)
    return Z, gens


def reembed_job(rng, n, m, alg):
    Z, gens = hidden_reembedding(rng, n, m, link=(alg == "gfan"))
    labels = [f"x{j + 1}" for j in range(n)]
    options = ({"alg": "gfan"} if alg == "gfan"
               else {"alg": "cotangent", "all_results": True})
    lines = [poly_text(g, labels) for g in gens]
    return Job(f"reembed/{alg}/{n}-{m}", job_text("reembed", labels, lines),
               "reembed", options, "reembed",
               {"labels": labels, "gens": gens, "Z": Z, "alg": alg})


# (indeterminates, hidden Z size) per job class, each run once with each
# search algorithm
REEMBED_SHAPES = ((4, 1), (4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (7, 3))


REEMBED_WORKED = ("gb_ten_generators", "reembed_twisted_curve",
                  "reembed_graph_surface")


def reembed_dense_round(rng):
    jobs = [reembed_job(rng, n, m, alg) for n, m in REEMBED_SHAPES
            for alg in ("gfan", "cotangent")]
    jobs += [worked_job(name) for name in REEMBED_WORKED]
    rng.shuffle(jobs)
    return jobs


# ---------- bbs-scheme ----------

def staircase_shapes():
    """Column heights (non-increasing) of every order ideal in two
    indeterminates with both exponents at most 4."""
    out = []

    def extend(prefix, cap):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == 5:
            return
        for h in range(1, cap + 1):
            extend(prefix + [h], h)

    extend([], 5)
    return out


def shape_terms(heights):
    """(x exponent, y exponent) of every term of the order ideal."""
    return [(a, b) for a, h in enumerate(heights) for b in range(h)]


def shape_border(heights):
    terms = set(shape_terms(heights))
    return {(a + da, b + db) for a, b in terms
            for da, db in ((1, 0), (0, 1))} - terms


def shape_indets(heights):
    return len(shape_terms(heights)) * len(shape_border(heights))


def corner_text(heights):
    """Maximal terms of the order ideal as job-file content."""
    corners = []
    for a, h in enumerate(heights):
        nxt = heights[a + 1] if a + 1 < len(heights) else 0
        if nxt < h:
            corners.append((a, h - 1))
    parts = []
    for a, b in corners:
        mono = "*".join(p for p in (("x" if a == 1 else f"x^{a}") if a else "",
                                    ("y" if b == 1 else f"y^{b}") if b else "")
                        if p)
        parts.append(mono or "1")
    return ", ".join(parts)


def bbs_job(heights, reembed, kind):
    text = job_text("bbs", ["x", "y"], [corner_text(heights)])
    return Job(kind, text, "bbs", {"chain_reembed": reembed}, "bbs",
               {"heights": heights, "reembed": reembed})


# scheme jobs per round by ring size band (indeterminates, inclusive).  A
# band's shapes are sorted by size and cut into as many strata as the band
# has jobs per round; each job is drawn from its own stratum, so every round
# spans its band from small to large rings and a band's median time moves
# little from seed to seed.  The 25-36 band has every shape twice: its 38
# jobs are the middle of a round (23 jobs are slower, 8 faster), so the
# median job of a round lies well inside it, and most jobs are small so a
# run holds 100+.  The 78-105 band's 8 jobs hold the 90th percentile of a
# round; four jobs of a round are slower.
BBS_BANDS = (((25, 36), 38), ((40, 54), 6), ((56, 77), 3), ((78, 105), 8),
             ((108, 140), 1), ((141, 180), 1))
# --reembed on every order ideal with 3 to this many terms (6-20
# indeterminates), each its own job class
BBS_REEMBED_MAX_TERMS = 4


def stratified(rng, items, count):
    """One item from each of ``count`` consecutive, near-equal slices of
    ``items``, each item repeated so that no slice is empty."""
    repeat = -(-count // len(items))
    items = [item for item in items for _ in range(repeat)]
    cuts = [round(k * len(items) / count) for k in range(count + 1)]
    return [rng.choice(items[a:b]) for a, b in zip(cuts, cuts[1:])]


def bbs_scheme_round(rng):
    shapes = sorted(staircase_shapes(), key=lambda s: (shape_indets(s), s))
    jobs = []
    for (lo, hi), count in BBS_BANDS:
        band = [s for s in shapes if lo <= shape_indets(s) <= hi]
        jobs += [bbs_job(s, False, f"bbs/scheme/{lo}-{hi}")
                 for s in stratified(rng, band, count)]
    jobs += [bbs_job(s, True, "bbs/reembed/" + ",".join(map(str, s)))
             for s in shapes
             if 3 <= len(shape_terms(s)) <= BBS_REEMBED_MAX_TERMS]
    jobs += [worked_job(name)
             for name in ("bbs_staircase",) + REEMBED_WORKED]
    rng.shuffle(jobs)
    return jobs


# ---------- workloads ----------

WORKLOADS = ("linear-fan", "reembed-dense", "bbs-scheme")


class Corpus:
    """Rounds of one workload, drawn on demand from one seed.

    Round i depends only on (seed, workload, i), so a run that needs more
    rounds draws the same ones on every run with that seed.
    """

    def __init__(self, workload, seed):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed

    def round(self, index):
        rng = random.Random(f"{self.workload}/{self.seed}/{index}")
        if self.workload == "linear-fan":
            return linear_fan_round(rng)
        if self.workload == "reembed-dense":
            return reembed_dense_round(rng)
        return bbs_scheme_round(rng)
