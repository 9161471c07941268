"""Job parsing, report generation, golden files, exit codes."""

import json
import pathlib
import random
import time

import pytest

from reembed.cli import main
from reembed.jobs import JobSpec, parse_job, parse_ordering_spec, run_job
from reembed.ordering import degrevlex, elimination_for, lex
from reembed.parse import ParseError, parse_poly, parse_ring

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


GOLDENS = [
    ("fan_two_forms", ["gfan-linear", "--json"]),
    ("gb_ten_generators", ["gb", "--ordering", "elim(x)", "--json"]),
    ("reembed_twisted_curve", ["reembed", "--alg", "gfan", "--size", "3",
                               "--json"]),
    ("reembed_graph_surface", ["reembed", "--alg", "cotangent", "--all",
                               "--json"]),
    ("bbs_staircase", ["bbs", "--reembed", "--json"]),
]


class TestGolden:
    @pytest.mark.parametrize("name,argv", GOLDENS, ids=[g[0] for g in GOLDENS])
    def test_byte_identical_reports(self, name, argv, capsys):
        code = main(argv + [str(JOBS / f"{name}.job")])
        out = capsys.readouterr().out
        assert out == (JOBS / "golden" / f"{name}.json").read_text()
        assert code == 0

    def test_schema_field_present(self):
        for name, _ in GOLDENS:
            data = json.loads((JOBS / "golden" / f"{name}.json").read_text())
            assert data["schema"] == 1


class TestRunJob:
    def test_gb_inconclusive_exit_code(self, capsys):
        code = main(["gb", "--budget", "0",
                     str(JOBS / "gb_ten_generators.job")])
        assert code == 2

    def test_missing_file(self, capsys):
        assert main(["gb", str(JOBS / "no_such.job")]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.job"
        bad.write_text("ring x, y;\nx + unknown\n")
        assert main(["gb", str(bad)]) == 1
        assert "unknown indeterminate" in capsys.readouterr().err

    def test_env_budget(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REEMBED_BUDGET", "0")
        code = main(["gb", str(JOBS / "gb_ten_generators.job")])
        assert code == 2
        monkeypatch.setenv("REEMBED_BUDGET", "junk")
        with pytest.raises(SystemExit):
            main(["gb", str(JOBS / "gb_ten_generators.job")])

    @pytest.mark.parametrize("argv", [
        ["gb", "--no-such-flag", str(JOBS / "gb_ten_generators.job")],
        ["gb"],
        ["no-such-command", str(JOBS / "gb_ten_generators.job")],
        ["reembed", "--alg", "nope", str(JOBS / "reembed_twisted_curve.job")],
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


class TestErrorPositions:
    """A bad job file exits 1 with file:line:col of the bad line on stderr."""

    @pytest.mark.parametrize("command,text,where,message", [
        ("gfan-linear", "ring x, y, z;\nx + y\n\ny - z\nx*y + z\n",
         "5:1", "not a linear form: x*y + z"),
        ("gb", "# a comment\n\njob: frobnicate;\nring x, y;\nx\n",
         "3:1", "unknown job command 'frobnicate'"),
        ("gb", "ring x, y mod 91;\nx\n", "1:15", "91 is not prime"),
    ], ids=("nonlinear-form", "unknown-directive", "composite-modulus"))
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
