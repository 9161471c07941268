"""Job parsing, report generation, golden files, exit codes."""

import argparse
import contextlib
import dataclasses
import io
import json
import pathlib
import random
import shlex
import time
from itertools import combinations

import pytest

from reembed import search
from reembed.cli import build_parser, main
from reembed.groebner import SeparatingTuple, check_Z_separating
from reembed.jobs import JobSpec, parse_job, parse_ordering_spec, run_job
from reembed.linear_gfan import ltgfan_linear
from reembed.ordering import degrevlex, elimination_for, lex
from reembed.parse import ParseError, parse_poly, parse_ring
from reembed.poly import Poly, linear_part_of_ideal
from reembed.ring import Ring, tvar

ROOT = pathlib.Path(__file__).resolve().parent.parent
JOBS = ROOT / "jobs"


class TestParseJob:
    def test_fan_job(self):
        spec = parse_job((JOBS / "fan_two_forms.job").read_text())
        assert spec.command == "gfan-linear"
        assert spec.ring.labels == ("x", "y", "z", "w")
        assert len(spec.polys) == 2

    def test_empty_file_errors_at_start(self):
        with pytest.raises(ParseError) as e:
            parse_job("")
        assert e.value.line == 1 and e.value.col == 1

    def test_staircase_job_derives_counts(self):
        from reembed.border_basis import BorderBasisScheme, order_ideal
        spec = parse_job((JOBS / "bbs_staircase.job").read_text())
        assert spec.command == "bbs"
        assert len(spec.terms) == 3
        scheme = BorderBasisScheme(order_ideal(spec.terms, spec.ring.n))
        assert scheme.mu == 8 and scheme.nu == 5

    def test_bad_content_carries_line_number(self):
        with pytest.raises(ParseError) as e:
            parse_job("job: gb;\nring x, y;\nx + q\n")
        assert e.value.line == 3

    def test_cli_command_wins_over_directive(self):
        spec = parse_job("job: reembed;\nring x, y;\nx - y^2\n",
                         command="cotangent")
        assert spec.command == "cotangent"

    def test_gfan_rejects_nonlinear(self):
        with pytest.raises(ParseError):
            parse_job("job: gfan-linear;\nring x, y;\nx^2 + y\n")

    def test_ordering_specs(self):
        ring = parse_ring("ring x, y, z;")
        assert parse_ordering_spec("degrevlex", ring) == degrevlex(3)
        assert parse_ordering_spec("lex", ring) == lex(3)
        assert parse_ordering_spec("elim(x, z)", ring) == \
            elimination_for(ring, ["x", "z"])
        custom = parse_ordering_spec("[[1,1,1],[0,1,0],[0,0,1]]", ring)
        assert custom.rows == ((1, 1, 1), (0, 1, 0), (0, 0, 1))
        with pytest.raises(ValueError):
            parse_ordering_spec("mystery", ring)


def _run_lines():
    """{job name: argv} from the ``# Run:`` comment of every job file."""
    runs = {}
    for job in sorted(JOBS.glob("*.job")):
        for line in job.read_text().splitlines():
            if line.startswith("# Run:"):
                runs[job.stem] = shlex.split(line[len("# Run:"):])
    return runs


RUNS = _run_lines()
STAIRCASE = "bbs_staircase"


def _count_coherence(mp):
    """Count SeparatingTuple.is_coherent calls through the monkeypatch mp."""
    calls = []
    original = SeparatingTuple.is_coherent

    def counting(self):
        calls.append(1)
        return original(self)

    mp.setattr(SeparatingTuple, "is_coherent", counting)
    return calls


@pytest.fixture(scope="module")
def staircase_run():
    """(exit code, stdout, is_coherent calls) of one run of the staircase
    job's documented command; its golden and its coherence count both read
    this run, since the job takes seconds."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_coherence(mp)
        with contextlib.redirect_stdout(out):
            code = main(TestGolden._argv(STAIRCASE))
    return code, out.getvalue(), len(calls)


class TestGolden:
    """Each golden is the output of the command its job file documents."""

    @staticmethod
    def _argv(name):
        argv = RUNS[name]
        assert argv[0] == "reembed" and argv[-1] == f"{name}.job"
        return argv[1:-1] + [str(JOBS / f"{name}.job")]

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_byte_identical_reports(self, name, capsys, request):
        if name == STAIRCASE:
            code, out, _ = request.getfixturevalue("staircase_run")
        else:
            code = main(self._argv(name))
            out = capsys.readouterr().out
        assert out == (JOBS / "golden" / f"{name}.json").read_text()
        assert code == 0

    @pytest.mark.parametrize(
        "name", sorted(n for n in RUNS if RUNS[n][1] == "reembed"))
    def test_reembed_job_reduces_its_linear_part_once(self, name, capsys,
                                                      monkeypatch):
        # each result's optimal flag comes from the check that verified it
        calls = []
        original = search.linear_part_of_ideal

        def counting(gens):
            calls.append(len(gens))
            return original(gens)

        monkeypatch.setattr(search, "linear_part_of_ideal", counting)
        assert main(self._argv(name)) == 0
        assert json.loads(capsys.readouterr().out)["results"]
        assert len(calls) == 1

    def test_every_golden_has_a_documented_job(self):
        # and every job file with a Run: line has a golden
        goldens = {g.stem for g in (JOBS / "golden").glob("*.json")}
        assert goldens == set(RUNS)

    def test_schema_field_present(self):
        for name in RUNS:
            data = json.loads((JOBS / "golden" / f"{name}.json").read_text())
            assert data["schema"] == 1


class TestRenderOnce:
    """Each printed polynomial is rendered once per report."""

    def test_gfan_pairs_build_no_difference(self, monkeypatch):
        spec = parse_job((JOBS / "fan_two_forms.job").read_text())
        calls = []
        original = Poly.__sub__

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(Poly, "__sub__", counting)
        report = run_job(spec)
        assert report.data["gbs"]
        assert calls == []

    @pytest.mark.parametrize(
        "name", sorted(n for n in RUNS if RUNS[n][1] in ("gb", "reembed")))
    def test_each_polynomial_once(self, name, capsys, monkeypatch):
        calls = []
        original = Poly.to_string

        def counting(self, ordering=None):
            calls.append(1)
            return original(self, ordering)

        monkeypatch.setattr(Poly, "to_string", counting)
        assert main(TestGolden._argv(name)) == 0
        data = json.loads(capsys.readouterr().out)
        printed = len(data.get("basis", ()))
        for r in data.get("results", ()):
            printed += len(r["substitution"]) + len(r["elimination_gens"]) \
                + len(r["certificate"])
        assert printed
        assert len(calls) == printed

    @pytest.mark.parametrize(
        "name", sorted(n for n in RUNS if RUNS[n][1] in ("reembed", "bbs")))
    def test_coherence_checked_twice_per_tuple(self, name, capsys,
                                               monkeypatch, request):
        # once where the check builds the tuple, once before substituting
        if name == STAIRCASE:
            code, out, calls = request.getfixturevalue("staircase_run")
        else:
            counted = _count_coherence(monkeypatch)
            code = main(TestGolden._argv(name))
            out, calls = capsys.readouterr().out, len(counted)
        assert code == 0
        data = json.loads(out)
        tuples = len(data.get("results") or data["reembed"]["results"])
        assert tuples
        assert calls == 2 * tuples


class TestRunJob:
    def test_gb_inconclusive_exit_code(self, capsys):
        code = main(["gb", "--budget", "0",
                     str(JOBS / "gb_ten_generators.job")])
        assert code == 2

    @pytest.mark.parametrize("argv,text,message", [
        (["reembed", "--alg", "cotangent"], "ring a, b, c;\na + b + c\n",
         "linear part is not binomial; falling back to fan candidates"),
        (["gfan-linear"], "ring x, y;\nx + y\n2x + 2y\n",
         "linear forms are dependent; auto-reducing to a basis"),
    ], ids=("cotangent-fallback", "dependent-forms"))
    def test_warning_prints_as_one_line(self, tmp_path, capsys, argv, text,
                                        message):
        job = tmp_path / "warn.job"
        job.write_text(text)
        assert main(argv + [str(job)]) == 0
        captured = capsys.readouterr()
        assert captured.out
        assert captured.err == f"reembed: warning: {message}\n"

    def test_missing_file(self, capsys):
        assert main(["gb", str(JOBS / "no_such.job")]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.job"
        bad.write_text("ring x, y;\nx + unknown\n")
        assert main(["gb", str(bad)]) == 1
        assert "unknown indeterminate" in capsys.readouterr().err

    @pytest.mark.parametrize("matrix", [
        "[[1,0],[0,1]]", "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"])
    def test_ordering_must_match_the_ring(self, tmp_path, capsys, matrix):
        # a two-column matrix used to ignore z, and the basis read x*z, x
        job = tmp_path / "xz.job"
        job.write_text("ring x, y, z;\nx*z - x\nx*z + x\n")
        assert main(["gb", "--ordering", matrix, str(job)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ordering has" in captured.err

    @staticmethod
    def _assert_one_error_line(captured):
        assert captured.out == ""
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("matrix", [
        # rows that are not lists used to raise TypeError from the ordering
        "[1,2,3]", "[[1,1,1],2,[0,0,1]]",
        # weights that are not ints used to run as int() of them
        "[[1.5,0,0],[0,1,0],[0,0,1]]", "[[true,0,0],[0,1,0],[0,0,1]]",
        "[[\"1\",0,0],[0,1,0],[0,0,1]]", "[[1,0,0],[0,1,null],[0,0,1]]"])
    def test_weight_matrix_of_integer_rows_only(self, tmp_path, capsys,
                                                matrix):
        job = tmp_path / "xyz.job"
        job.write_text("ring x, y, z;\nx*z - x\nx*z + y\n")
        assert main(["gb", "--json", "--ordering", matrix, str(job)]) == 1
        self._assert_one_error_line(capsys.readouterr())

    def test_custom_weight_matrix_report(self, tmp_path, capsys):
        job = tmp_path / "xyz.job"
        job.write_text("ring x, y, z;\nx*z - x\nx*z + y\n")
        assert main(["gb", "--json", "--ordering",
                     "[[1,1,1],[0,1,0],[0,0,1]]", str(job)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ordering"] == {"kind": "custom",
                                    "matrix": [[1, 1, 1], [0, 1, 0],
                                               [0, 0, 1]]}
        assert data["basis"] == ["x*z - x", "y + x"]

    def test_undecodable_job_file(self, tmp_path, capsys):
        job = tmp_path / "binary.job"
        job.write_bytes(b"\xff\xfe")
        assert main(["gb", str(job)]) == 1
        self._assert_one_error_line(capsys.readouterr())

    @pytest.mark.parametrize("argv", [
        ["gb", "--no-such-flag", str(JOBS / "gb_ten_generators.job")],
        ["gb"],
        ["no-such-command", str(JOBS / "gb_ten_generators.job")],
        ["reembed", "--alg", "nope", str(JOBS / "reembed_twisted_curve.job")],
        ["reembed", "--subsets", str(JOBS / "reembed_twisted_curve.job")],
        ["bbs", "--subsets", str(JOBS / "bbs_staircase.job")],
        # a negative budget used to run, exit 2 and report "budget": -5
        ["gb", "--budget", "-5", str(JOBS / "gb_ten_generators.job")],
    ])
    def test_usage_error_exits_1(self, argv, capsys):
        # 2 means "inconclusive"; a usage error is an error
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: reembed") and "error:" in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["bbs", "--help"])
        assert e.value.code == 0
        assert "usage: reembed bbs" in capsys.readouterr().out

    def test_cotangent_report(self, capsys):
        code = main(["cotangent", "--json",
                     str(JOBS / "reembed_twisted_curve.job")])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["trivial"] == ["x", "y"]
        assert data["proper"] == [["w", "z"]]
        assert data["ltgfan_size"] == 2

    def test_cotangent_fan_of_a_non_binomial_part(self, tmp_path, capsys):
        # every indeterminate is basic, and the fan still has three cells
        job = tmp_path / "sum.job"
        job.write_text("ring a, b, c;\na + b + c\n")
        assert main(["cotangent", "--json", "--fan", str(job)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["basic"] == ["a", "b", "c"]
        assert data["ltgfan_size"] == 3
        assert data["ltgfan"] == [["a"], ["b"], ["c"]]

    def test_cotangent_fan_is_the_fan_walk_off_binomial(self):
        rng = random.Random(18)
        checked = 0
        while checked < 30:
            n = rng.randint(3, 7)
            ring = Ring([f"v{i}" for i in range(n)])
            forms = [Poly(ring, {tvar(n, j): rng.choice([-2, -1, 1, 3])
                                 for j in rng.sample(range(n),
                                                     rng.randint(1, n))})
                     for _ in range(rng.randint(1, n - 1))]
            lin = linear_part_of_ideal(forms)
            if all(len(f) <= 2 for f in lin):
                continue
            checked += 1
            data = run_job(JobSpec(command="cotangent", ring=ring,
                                   polys=forms, show_fan=True)).data
            fan = ltgfan_linear(lin)
            assert data["ltgfan_size"] == len(fan)
            assert data["ltgfan"] == [sorted(ring.labels[i] for i in s)
                                      for s in fan]

    def test_text_mode_mirrors_notation(self, capsys):
        main(["gfan-linear", str(JOBS / "fan_two_forms.job")])
        out = capsys.readouterr().out
        assert "{(x, x - z + 2w), (y, y + 2w)}" in out

    def test_zero_forms_empty_fan(self, tmp_path, capsys):
        job = tmp_path / "zero.job"
        job.write_text("job: gfan-linear;\nring x, y;\nx - x\n")
        code = main(["gfan-linear", "--json", str(job)])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["bases"] == [[]]
        assert data["gbs"] == [[]]


def test_every_flag_stores_into_a_job_field():
    # the CLI copies each parsed arg onto the JobSpec field of the same name,
    # so a flag whose dest names no field would be silently dropped
    fields = {f.name for f in dataclasses.fields(JobSpec)}
    top = build_parser()
    (subparsers,) = [a for a in top._actions
                     if isinstance(a, argparse._SubParsersAction)]
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.dest in ("help", "jobfile"):
                continue
            assert action.dest in fields, (command, action.option_strings)


# two proper cotangent classes {a, b} and {c, d}; the fan's marker sets are
# ac, ad, bc, bd and the cotangent closed form lists them bd, bc, ad, ac
FOUR_TEXT = "ring a, b, c, d;\na - b + c^2\nc - d + a*b\n"


class TestReembedFlags:
    """Each reembed flag either acts or is refused."""

    @pytest.fixture
    def job(self, tmp_path):
        path = tmp_path / "four.job"
        path.write_text(FOUR_TEXT)
        return str(path)

    @staticmethod
    def _run(capsys, *argv):
        code = main(["reembed", "--json", *argv])
        return code, json.loads(capsys.readouterr().out)

    def test_gfan_all_lists_every_tuple_in_fan_order(self, job, capsys):
        code, data = self._run(capsys, "--alg", "gfan", "--all", job)
        assert code == 0
        assert data["algorithm"] == "gfan"
        assert data["status"] == "all"
        assert [t["Z"] for t in data["tried"]] == [
            ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]]
        assert [r["Z"] for r in data["results"]] == [["a", "d"], ["b", "d"]]

    def test_cotangent_refuses_a_size(self, job, capsys):
        assert main(["reembed", "--alg", "cotangent", "--size", "1",
                     job]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--size" in captured.err

    @pytest.mark.parametrize("s", [1, 2])
    def test_size_all_lists_every_separating_subset(self, job, capsys, s):
        code, data = self._run(capsys, "--size", str(s), "--all", job)
        assert code == 0
        ring = parse_ring("ring a, b, c, d;")
        gens = [parse_poly(line, ring) for line in FOUR_TEXT.split("\n")[1:3]]
        subsets = {sub for markers in ("ac", "ad", "bc", "bd")
                   for sub in combinations(markers, s)}
        want = sorted(sub for sub in subsets
                      if check_Z_separating(gens, ring.indices(sub)).yes)
        assert want
        assert [tuple(r["Z"]) for r in data["results"]] == want


class TestErrorPositions:
    """A bad job file exits 1 with file:line:col of the bad line on stderr."""

    @pytest.mark.parametrize("command,text,where,message", [
        ("gfan-linear", "ring x, y, z;\nx + y\n\ny - z\nx*y + z\n",
         "5:1", "not a linear form: x*y + z"),
        ("gb", "# a comment\n\njob: frobnicate;\nring x, y;\nx\n",
         "3:1", "unknown job command 'frobnicate'"),
        ("gb", "ring x, y mod 91;\nx\n", "1:15", "91 is not prime"),
        # columns count from the start of the line, indentation included
        ("gb", "ring x, y;\n    x + q\n", "2:9", "unknown indeterminate 'q'"),
        ("gb", "  ring x, y mod 91;\nx\n", "1:17", "91 is not prime"),
        ("gfan-linear", "ring x, y, z;\n  x*y + z\n", "2:3",
         "not a linear form: x*y + z"),
        ("bbs", "job: bbs;\nring x, y;\n  x^2, y y z\n", "3:12",
         "unknown indeterminate 'z'"),
        ("bbs", "job: bbs;\nring x, y;\n  x^2, 2y\n", "3:8",
         "expected a term with coefficient 1"),
        # a job without content errors at its ring declaration
        ("gb", "# note\nring x, y;\n", "2:1",
         "job needs at least one polynomial"),
        ("bbs", "# note\nring x, y;\n", "2:1",
         "order-ideal job needs at least one term"),
        # nothing may follow the ring declaration on its line
        ("gb", "ring x, y; x + y\n", "1:12", "unexpected trailing input 'x'"),
        ("gb", "ring x, y; garbage ) (\nx + y\n", "1:12",
         "unexpected trailing input 'garbage'"),
        # a negative exponent is reported at its sign
        ("gb", "ring x, y;\nx^-2 + y\n", "2:3", "negative exponent"),
        ("gb", "ring x, y;\nx^-2\n", "2:3", "negative exponent"),
        ("gb", "ring x, y;\n(x+y)^-1\n", "2:7", "negative exponent"),
        # a denominator that is zero in F_p used to raise ZeroDivisionError
        ("gb", "ring x mod 7;\nx + 1/14\n", "2:7", "zero denominator"),
    ], ids=("nonlinear-form", "unknown-directive", "composite-modulus",
            "indented-form", "indented-ring", "indented-nonlinear-form",
            "bbs-term", "bbs-coefficient", "no-polynomial", "no-term",
            "ring-then-polynomial", "ring-then-garbage",
            "negative-exponent-then-sum", "negative-exponent",
            "negative-exponent-of-sum", "zero-denominator-mod-p"))
    def test_error_names_its_line(self, tmp_path, capsys, command, text,
                                  where, message):
        bad = tmp_path / "bad.job"
        bad.write_text(text)
        assert main([command, str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"{bad}:{where}: {message}" in err

    def test_huge_modulus_fails_fast(self, tmp_path, capsys):
        bad = tmp_path / "bad.job"
        bad.write_text(
            "job: gb;\nring x, y mod 1000000000000000000000000000057;\nx\n")
        start = time.perf_counter()
        assert main(["gb", str(bad)]) == 1
        assert time.perf_counter() - start < 1.0
        assert f"{bad}:2:15: modulus" in capsys.readouterr().err

    @pytest.mark.parametrize("line,at", [
        ("(a+b+c+d+e)^30 - a", "^"),
        ("(a+b+c+d+e)^7*(a+b+c+d+e)^7", "*"),
        ("(a+b+c+d+e)^7 (a+b+c+d+e)^7", " (")],
        ids=("power", "product", "juxtaposition"))
    def test_huge_expansion_fails_fast(self, tmp_path, capsys, line, at):
        # the parse refuses at the operator, before any budget applies
        bad = tmp_path / "bad.job"
        bad.write_text(f"ring a, b, c, d, e;\n{line}\n")
        start = time.process_time()
        assert main(["gb", "--budget", "1", str(bad)]) == 1
        assert time.process_time() - start < 1.0
        col = line.index(at) + len(at)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}:2:{col}: expansion "
                                       "exceeds the parse limit")

    @pytest.mark.parametrize("line,col", [
        ("(4)^10000000000000000000 + a", 4), ("a - (2/3*b)^9999", 12),
        ("((3)^40)^40000", 9)], ids=("constant", "term", "nested"))
    def test_huge_coefficient_power_fails_fast(self, tmp_path, capsys, line,
                                               col):
        # 4^(10^19) used to be computed and never finished
        bad = tmp_path / "bad.job"
        bad.write_text(f"ring a, b;\n{line}\n")
        start = time.process_time()
        assert main(["gb", str(bad)]) == 1
        assert time.process_time() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: {bad}:2:{col}: power exceeds the parse limit of 10000 "
            "coefficient bits\n")

    def test_power_within_the_parse_limit(self, ring_xyz):
        ring = parse_ring("ring a, b, c, d, e;")
        assert len(parse_poly("(a+b+c+d+e)^10", ring)) == 1001
        assert parse_poly("(x - y)^3 (x + y)", ring_xyz) \
            == parse_poly("x^4 - 2x^3*y + 2x*y^3 - y^4", ring_xyz)


class TestRoundTrip:
    def test_print_parse_roundtrip_random(self):
        rng = random.Random(81)
        ring = parse_ring("ring a, b, c, d;")
        from reembed.poly import Poly
        for _ in range(150):
            coeffs = {}
            for _ in range(rng.randrange(6)):
                t = tuple(rng.randrange(4) for _ in range(4))
                coeffs[t] = rng.choice([1, -1, 2, -3,
                                        ring.field.of("1/2"),
                                        ring.field.of("-5/7")])
            f = Poly(ring, coeffs)
            assert parse_poly(f.to_string(), ring) == f
