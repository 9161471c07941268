"""Self-test of the benchmark: tracing, layer predictions and the oracle.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
workload runs one round traced: every job runs untraced and
then with span wrappers bound, the two reports must be equal, the oracle
must agree with every report, and the span counts must match the layer
predictions in ``spans.PREDICTIONS``.  The oracle tests corrupt a correct
report and expect a disagreement, so a check that accepts anything fails.
"""

import copy
import random
import sys
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import oracle  # noqa: E402
import run     # noqa: E402
import spans   # noqa: E402


@pytest.fixture(scope="module")
def modules():
    return run.import_program()


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_traced_round_matches_untraced_and_predictions(workload, modules):
    warnings.simplefilter("ignore")
    loop = run.Loop(corpus.Corpus(workload, 11), modules, [], seconds=0,
                    traced=True)
    loop.run()
    assert loop.rounds == 1
    assert loop.failures == []
    assert loop.completed == loop.attempted == len(loop.pairs)
    assert spans.prediction_errors(workload, loop.tracer.calls) == []
    # wrappers are gone again after each job
    assert not hasattr(modules["jobs"].run_job, "__wrapped__")
    assert not hasattr(modules["search"].check_Z_separating, "__wrapped__")


def _report(modules, job):
    spec = run.parse(modules["jobs"], job)
    return modules["jobs"].run_job(spec).data


def _first(workload, kind):
    c = corpus.Corpus(workload, 5)
    return next(j for j in c.round(0) if j.kind.startswith(kind))


def test_oracle_rejects_a_missing_fan_cell(modules):
    job = _first("linear-fan", "gfan-linear/exhaustive")
    data = _report(modules, job)
    assert oracle.check(job, data) == []
    bad = copy.deepcopy(data)
    del bad["bases"][0], bad["gbs"][0]
    assert oracle.check(job, bad)


def test_oracle_rejects_a_wrong_marked_form(modules):
    job = _first("linear-fan", "gfan-linear/exchange")
    data = _report(modules, job)
    bad = copy.deepcopy(data)
    for cell in bad["gbs"]:
        cell[0][1] += " + " + job.expect["labels"][-1]
    assert oracle.check(job, bad)


def test_oracle_rejects_a_wrong_cotangent_class(modules):
    job = _first("linear-fan", "cotangent/binomial")
    data = _report(modules, job)
    assert oracle.check(job, data) == []
    bad = copy.deepcopy(data)
    bad["proper"][0] = bad["proper"][0][:-1]
    assert oracle.check(job, bad)


def test_oracle_rejects_a_wrong_substitution(modules):
    job = _first("reembed-dense", "reembed/cotangent")
    data = _report(modules, job)
    assert oracle.check(job, data) == []
    bad = copy.deepcopy(data)
    res = bad["results"][0]
    z = res["Z"][0]
    res["substitution"][z] += " + " + res["Y"][0] + "^2"
    assert oracle.check(job, bad)


def test_oracle_rejects_a_wrong_scheme_generator(modules):
    job = _first("bbs-scheme", "bbs/scheme")
    data = _report(modules, job)
    assert oracle.check(job, data) == []
    bad = copy.deepcopy(data)
    label = next(iter(data["arrow_degrees"]))
    bad["generators"][random.Random(0).randrange(len(bad["generators"]))] \
        += " + " + label
    assert oracle.check(job, bad)


def test_corpus_depends_only_on_the_seed():
    for workload in corpus.WORKLOADS:
        a = [j.text for j in corpus.Corpus(workload, 3).round(2)]
        b = [j.text for j in corpus.Corpus(workload, 3).round(2)]
        c = [j.text for j in corpus.Corpus(workload, 4).round(2)]
        assert a == b
        assert a != c
