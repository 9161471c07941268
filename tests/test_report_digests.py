"""Every round-0 report of the benchmark corpora stays byte-identical.

The jobs are drawn with ``perfbench/corpus.py`` (round 0 of ``linear-fan``,
``reembed-dense`` and ``bbs-scheme`` at seeds 1 and 2) and their options
applied as ``perfbench/run.py`` applies them.  The staircase job is left
out: its golden (``TestGolden``) covers it, and it takes most of the time.
``report_digests.json`` holds, per job, the sha256 of the JSON report and
of the text report, and the exit code, keyed
``workload/seed/index/kind``.  ``perfbench/`` is only read.

A change that alters a report on purpose rewrites the file and shows the
change as its diff::

    PYTHONPATH=src python3 tests/test_report_digests.py
"""

import hashlib
import importlib.util
import json
import sys
import warnings
from pathlib import Path

from reembed.jobs import parse_job, run_job

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "perfbench" / "corpus.py"
DIGESTS = Path(__file__).resolve().with_name("report_digests.json")
WORKLOADS = ("linear-fan", "reembed-dense", "bbs-scheme")
SEEDS = (1, 2)
SKIPPED = "worked/bbs_staircase"


def _load_corpus():
    spec = importlib.util.spec_from_file_location("perfbench_corpus", CORPUS)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digests():
    """{workload/seed/index/kind: digests} of every round-0 job."""
    corpus = _load_corpus()
    out = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            round0 = corpus.Corpus(workload, seed).round(0)
            for index, job in enumerate(round0):
                if job.kind == SKIPPED:
                    continue
                spec = parse_job(job.text, command=job.command)
                for name, value in job.options.items():
                    setattr(spec, name, value)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    report = run_job(spec)
                out[f"{workload}/{seed}/{index}/{job.kind}"] = {
                    "json": _sha256(report.to_json()),
                    "text": _sha256(report.text),
                    "exit_code": report.exit_code,
                }
    return out


def test_round_zero_reports_keep_their_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = report_digests()
    moved = sorted(key for key in expected.keys() | actual.keys()
                   if expected.get(key) != actual.get(key))
    assert not moved, ("reports whose digest moved:\n  "
                       + "\n  ".join(moved))


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(report_digests(), indent=1, sort_keys=True)
                       + "\n", encoding="utf-8")
