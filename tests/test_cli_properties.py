"""Whatever job text and flags it gets, the command line ends cleanly.

Job text is drawn from a small grammar: every command, at most three
indeterminates and three content lines, junk tokens, deep parentheses, huge
exponents and powers of sums.  ``bbs`` jobs get order ideals of at most four
terms, and ``--reembed`` only in two indeterminates, as in the benchmark
corpus.  Flags are drawn from the real ones, with ``--budget`` between 0
and 20.  Every run must exit 0, 1 or 2 and print nothing on stderr but
``error:`` lines, library warnings and argparse's usage errors.

Huge exponents reach only the commands that run no Groebner basis
(``gfan-linear``, ``cotangent``): the budget counts pair reductions, not
the steps of one reduction, so ``gb --budget 1`` on ``y^(10^30) - x,
y - 3`` reduces for ever.  ``test_budget_bounds_a_huge_reduction`` keeps
that failure in view until the budget counts work (ROADMAP item 6b).
"""

import contextlib
import io
import itertools
import re
import signal

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from reembed.cli import main

COMMANDS = ("gb", "gfan-linear", "cotangent", "reembed", "bbs")
LABELS = ("x", "y", "z")
JUNK = (")", "@", "(", "^", "**", "1/0", "x^", ";", ",", "#", "mod", "ring",
        "job: gb;", "0x10", "1e5", "--", "^^", "/", "w", "é", "3/0",
        "(((")
HUGE = (10 ** 6, 10 ** 30)
# our error and warning lines, and argparse's usage errors
STDERR_LINE = re.compile(
    r"error:|reembed: warning:|usage:|reembed[^:]*: error:")


def order_ideals(n, max_terms=4):
    """Every order ideal of at most max_terms terms in n indeterminates,
    as a tuple of exponent tuples, built up one term at a time."""
    one = (0,) * n
    found = {frozenset([one])}
    frontier = [frozenset([one])]
    while frontier:
        grown = []
        for ideal in frontier:
            if len(ideal) == max_terms:
                continue
            for t in ideal:
                for k in range(n):
                    u = t[:k] + (t[k] + 1,) + t[k + 1:]
                    closed = all(u[:i] + (u[i] - 1,) + u[i + 1:] in ideal
                                 for i in range(n) if u[i])
                    bigger = ideal | {u}
                    if u not in ideal and closed and bigger not in found:
                        found.add(bigger)
                        grown.append(bigger)
        frontier = grown
    return sorted(tuple(sorted(ideal)) for ideal in found)


ORDER_IDEALS = {n: order_ideals(n) for n in (1, 2, 3)}


def monomial_text(labels, exponents):
    parts = [lab if e == 1 else f"{lab}^{e}"
             for lab, e in zip(labels, exponents) if e]
    return "*".join(parts) or "1"


@st.composite
def expressions(draw, labels, huge, depth=2):
    """Polynomial text: sums and products of coefficients, powers of
    indeterminates and parenthesised powers of sums; exponents from HUGE
    only if huge."""
    big = HUGE if huge else ()
    exponent = st.one_of(st.integers(0, 3), st.sampled_from((3,) + big))
    coefficient = st.one_of(st.integers(0, 9).map(str),
                            st.builds("{}/{}".format, st.integers(0, 5),
                                      st.integers(1, 4)))
    atoms = [coefficient,
             st.builds("{}^{}".format, st.sampled_from(labels), exponent),
             st.sampled_from(labels)]
    if depth:
        inner = expressions(labels, huge, depth - 1)
        atoms.append(st.builds("({})^{}".format, inner,
                               st.one_of(st.integers(2, 7),
                                         st.sampled_from((40,) + big))))
        atoms.append(st.builds(lambda d, e: "(" * d + e + ")" * d,
                               st.sampled_from((1, 1, 1, 30, 3000)),
                               inner))
    pieces = draw(st.lists(st.one_of(*atoms), min_size=1, max_size=3))
    ops = draw(st.lists(st.sampled_from((" + ", " - ", "*", " ")),
                        min_size=len(pieces) - 1,
                        max_size=len(pieces) - 1))
    out = pieces[0]
    for op, piece in zip(ops, pieces[1:]):
        out += op + piece
    return out


def linear_forms(labels):
    """Text of a linear form with small rational coefficients."""
    term = st.builds("{}{}{}".format, st.sampled_from((" + ", " - ")),
                     st.sampled_from(("", "2", "1/3*", "5 ")),
                     st.sampled_from(labels))
    return st.lists(term, min_size=1, max_size=3).map(
        lambda terms: "".join(terms).removeprefix(" + ").strip())


def with_junk(draw, line):
    """The line, one time in four with a junk token spliced in."""
    if draw(st.integers(0, 3)):
        return line
    at = draw(st.integers(0, len(line)))
    return line[:at] + draw(st.sampled_from(JUNK)) + line[at:]


@st.composite
def jobs(draw):
    """(command, indeterminates, job text): an optional directive, a ring
    of at most three indeterminates and one to three content lines."""
    command = draw(st.sampled_from(COMMANDS))
    n = draw(st.integers(1, 3))
    labels = LABELS[:n]
    header = []
    if draw(st.booleans()):
        header.append(f"job: {draw(st.sampled_from(COMMANDS + ('nope',)))};")
    modulus = draw(st.sampled_from(("", "", "", "", " mod 2", " mod 7",
                                    " mod 9")))
    header.append(f"ring {', '.join(labels)}{modulus};")
    if command == "bbs":
        ideal = draw(st.sampled_from(ORDER_IDEALS[n]))
        terms = draw(st.lists(st.sampled_from(ideal), min_size=1,
                              max_size=3))
        lines = [", ".join(monomial_text(labels, t) for t in terms)]
    else:
        linear = linear_forms(labels)
        if command == "gfan-linear":
            line = linear
        else:
            polys = expressions(labels, command == "cotangent")
            line = st.one_of(linear, polys,
                             st.builds("{} - {}".format, linear, polys))
        lines = draw(st.lists(line, min_size=1, max_size=3))
    lines = [with_junk(draw, line) for line in lines]
    return command, n, "\n".join(header + lines) + "\n"


@st.composite
def flags(draw, command, n):
    """Real flags of the command, --budget between 0 and 20."""
    argv = ["--budget", str(draw(st.integers(0, 20)))]
    if draw(st.booleans()):
        argv.append("--json")
    if command == "gb" and draw(st.booleans()):
        argv += ["--ordering", draw(st.sampled_from((
            "degrevlex", "lex", "elim(x)", "elim(y, z)", "elim(q)",
            "[[1,1,1],[0,1,0],[0,0,1]]", "[[1,0],[0,1]]", "[[1,2]",
            "[[0,1,0],[1,0,0],[0,0,-1]]", "[[-1,0,0],[0,1,0],[0,0,1]]",
            "[[1.5,0,0],[0,1,0],[0,0,1]]", "mystery")))]
    if command == "cotangent" and draw(st.booleans()):
        argv.append("--fan")
    if command == "reembed":
        argv += ["--alg", draw(st.sampled_from(("gfan", "cotangent")))]
        if draw(st.booleans()):
            argv += ["--size", str(draw(st.integers(-1, 4)))]
        if draw(st.booleans()):
            argv.append("--all")
    if command == "bbs" and n <= 2 and draw(st.booleans()):
        argv.append("--reembed")
    return argv


@pytest.fixture(scope="module")
def job_file(tmp_path_factory):
    return tmp_path_factory.mktemp("cli") / "drawn.job"


@settings(max_examples=300)
@given(job=jobs(), data=st.data())
def test_every_run_ends_cleanly(job_file, job, data):
    command, n, text = job
    job_file.write_text(text, encoding="utf-8")
    argv = [command] + data.draw(flags(command, n)) + [str(job_file)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    stderr = err.getvalue()
    event(f"{command} exit {code}")
    assert code in (0, 1, 2), (argv, text, stderr)
    assert "Traceback" not in stderr
    for line in stderr.splitlines():
        assert STDERR_LINE.match(line), (argv, text, line)


class _Hang(Exception):
    pass


def _hang(signum, frame):
    raise _Hang()


@pytest.mark.xfail(strict=True, raises=_Hang,
                   reason="the budget does not bound one reduction's steps")
def test_budget_bounds_a_huge_reduction(job_file):
    job_file.write_text(f"ring x, y mod 7;\ny^{10 ** 30} - 5x\ny - 3\n")
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gb", "--budget", "1", str(job_file)]) in (0, 1, 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_order_ideals_are_closed_and_small():
    for n, ideals in ORDER_IDEALS.items():
        assert len(ideals) == len(set(ideals))
        for ideal in ideals:
            assert len(ideal) <= 4
            for t, k in itertools.product(ideal, range(n)):
                if t[k]:
                    assert t[:k] + (t[k] - 1,) + t[k + 1:] in ideal
