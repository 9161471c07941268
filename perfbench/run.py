"""Benchmark of the reembed job path: parse_job -> run_job -> Report.to_json.

Usage (from the repository root)::

    python3 perfbench/run.py --workload linear-fan --seed 1 --seconds 45 \
        --trace 0

One process runs one workload as a closed loop with one client: jobs run
back to back on one thread, each the moment the previous one returned.  The
corpus is drawn from ``--seed`` (see ``corpus.py`` for the workloads and
why each was chosen).  The loop runs rounds of the corpus, at least one
whole round, until the jobs have taken ``--seconds`` of wall time.  Every
report is checked by ``oracle.py`` outside the timed region.

Times are corrected for the machine's speed.  On a shared machine the speed
of the same pure-Python code flips between states up to 1.8 times apart,
every few seconds, far more than the bounds in ``BENCHMARK.json`` allow.  A
fixed piece of pure-Python work that never calls the program
(``reference_work``) is timed before every job and every set-up, and every
``PROBE_EVERY_S`` of CPU time inside them (from a ``SIGPROF`` handler,
between two bytecodes of the program).  Each stretch of a job between two
samples counts at ``REF_NOMINAL_S`` over the mean time of those samples, and
the samples' own time is left out.  The time metrics are therefore seconds
at the speed at which the reference work takes ``REF_NOMINAL_S``: a slower
program reads slower, a slower machine does not.  The uncorrected wall-time
percentiles and the reference times are printed as well.

Times are summarised per job class.  Every round holds the same classes
(``Job.kind``); a class's time is the median over the run of its jobs'
corrected times, and ``jobs_per_s``, ``job_p50_s`` and ``job_p90_s`` are
taken over one round made of these class medians.  A burst of machine noise
that slows a minority of jobs, or one unusual instance, then moves no
metric.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every job
twice, untraced and then with span wrappers bound over the program's
layers (``spans.py``), and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Lines before it repeat the metrics with units, the failure
and inconclusive counts, the oracle verdicts and the environment
(coefficient backend, Python, nproc, seed).
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus   # noqa: E402
import oracle   # noqa: E402
import spans    # noqa: E402

# a job running longer than this is stopped and counted as failed; the step
# budget does not bound time (interreduction after an abort is unbudgeted)
JOB_WALL_CAP_S = 60.0
# stop starting jobs after this much wall time, so the process ends within
# 180 s even when the last job runs into its cap
RUN_WALL_LIMIT_S = 100.0
# set-up (import + parse of the corpus) is repeated and its median reported
SETUP_REPEATS = 7
# rounds parsed during set-up, a share of a run at the current speed;
# later rounds are parsed outside the timed region when a run needs them
SETUP_ROUNDS = {"linear-fan": 16, "reembed-dense": 40, "bbs-scheme": 4}
# the reference work takes this long at the speed the time metrics are
# given in (about its time in the faster speed state of the machine the
# benchmark was tuned on)
REF_NOMINAL_S = 0.01
# the reference work runs again after this much CPU time inside a job
PROBE_EVERY_S = 0.25
SUBMODULES = ("jobs", "groebner", "search", "poly", "border_basis",
              "linear_gfan", "cotangent", "linalg", "ordering", "field")


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def reference_work():
    """Fixed pure-Python work in the program's style (a sparse dict of
    exponent tuples to Fractions) that never calls the program."""
    terms = {}
    for i in range(1500):
        key = (i % 7, i % 11, i % 13)
        terms[key] = terms.get(key, 0) + Fraction(i % 5 + 1, i % 3 + 1)
    total = 0
    for key, value in sorted(terms.items()):
        total += value * key[0] - key[1]
    return total


class SpeedProbe:
    """Times ``reference_work`` and turns wall times into corrected ones."""

    def __init__(self):
        self.samples = []    # (begin, end) perf_counter of each sample

    def sample(self, *_signal_args):
        begin = time.perf_counter()
        reference_work()
        self.samples.append((begin, time.perf_counter()))

    @contextmanager
    def inside(self):
        """Sample every PROBE_EVERY_S of CPU time while the block runs."""
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)

    def _around(self, start, stop):
        """The last sample begun before start, every sample begun inside,
        and the first begun after stop."""
        first = bisect.bisect_right(self.samples, start, key=lambda s: s[0])
        last = bisect.bisect_left(self.samples, stop, key=lambda s: s[0])
        return self.samples[max(first - 1, 0):last + 1]

    def work_s(self, start, stop):
        """Wall seconds in [start, stop] outside reference samples."""
        return stop - start - sum(
            max(min(end, stop) - max(begin, start), 0)
            for begin, end in self._around(start, stop))

    def corrected(self, start, stop):
        """Seconds of work in [start, stop] at the nominal speed: each
        stretch between two samples scaled by REF_NOMINAL_S over their
        mean time."""
        near = self._around(start, stop)
        total = 0.0
        for (b0, e0), (b1, e1) in zip(near, near[1:]):
            stretch = min(b1, stop) - max(e0, start)
            if stretch > 0:
                total += stretch * REF_NOMINAL_S / ((e0 - b0 + e1 - b1) / 2)
        return total

    def took(self):
        return [end - begin for begin, end in self.samples]


def import_program():
    """Import reembed from the checkout's src/, fresh each call."""
    for name in [m for m in sys.modules
                 if m == "reembed" or m.startswith("reembed.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    importlib.import_module("reembed")
    return {name: importlib.import_module(f"reembed.{name}")
            for name in SUBMODULES}


def parse(jobs_module, job):
    """What the command line does: parse the text, then apply the flags."""
    spec = jobs_module.parse_job(job.text, command=job.command)
    for name, value in job.options.items():
        setattr(spec, name, value)
    return spec


def setup(jobs, probe):
    """Import the program and parse the corpus; (median corrected seconds,
    modules, specs) over SETUP_REPEATS fresh imports."""
    windows = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        with probe.inside():
            start = time.perf_counter()
            modules = import_program()
            specs = [parse(modules["jobs"], job) for job in jobs]
            windows.append((start, time.perf_counter()))
    probe.sample()
    times = [probe.corrected(start, end) for start, end in windows]
    return statistics.median(times), modules, specs


def serve(jobs_module, spec):
    """The user-facing path after parsing: run the job, render JSON."""
    report = jobs_module.run_job(spec)
    return report, report.to_json()


def run_one(execute, spec):
    """(seconds, report or None, JSON length, failure reason or None)."""
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, JOB_WALL_CAP_S)
    try:
        report, text = execute(spec)
        size, reason = len(text), None
    except JobTimeout:
        report, size, reason = None, 0, "wall cap"
    except Exception as exc:   # a failed job is counted, the loop goes on
        report, size, reason = None, 0, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, report, size, reason


class Loop:
    """Closed loop over whole rounds; tallies outcomes and oracle verdicts."""

    def __init__(self, workload_corpus, modules, parsed_rounds, seconds,
                 traced, probe=None):
        self.corpus = workload_corpus
        self.modules = modules
        self.parsed_rounds = parsed_rounds
        self.seconds = seconds
        self.traced = traced
        self.times = []          # per-job wall seconds (untraced), less
                                 # the reference samples inside the job
        self.windows = []        # (class, start, stop) per job (untraced)
        self.pairs = []          # (untraced, traced) seconds per job
        self.completed = 0
        self.failures = []
        self.inconclusive = 0
        self.disagreements = []
        self.rounds = 0
        self.composition = []    # job classes of one round
        self.samples = defaultdict(list)   # class -> corrected seconds
        self.probe = probe or SpeedProbe()
        self.tracer = spans.Tracer()

    def _round_jobs(self, index):
        if index < len(self.parsed_rounds):
            return self.parsed_rounds[index]
        return [(job, parse(self.modules["jobs"], job))
                for job in self.corpus.round(index)]

    def run(self):
        """Run jobs until --seconds of job time: the first round whole, then
        stopping after any job.  ``rounds`` counts whole rounds."""
        try:
            self._run()
        finally:
            self.probe.sample()
            for kind, start, end in self.windows:
                self.samples[kind].append(self.probe.corrected(start, end))

    def _run(self):
        wall_start = time.perf_counter()
        busy = 0.0
        while not (self.rounds and busy >= self.seconds):
            batch = self._round_jobs(self.rounds)
            if not self.composition:
                self.composition = [job.kind for job, _ in batch]
            for job, spec in batch:
                if self.rounds and busy >= self.seconds:
                    return
                if time.perf_counter() - wall_start > RUN_WALL_LIMIT_S:
                    self.failures.append((job.kind, "run wall limit"))
                    return
                self.probe.sample()
                busy += self._one(job, spec)
            self.rounds += 1

    def _one(self, job, spec):
        jobs_module = self.modules["jobs"]
        with self.probe.inside():
            start = time.perf_counter()
            elapsed, report, _, reason = run_one(
                lambda s: serve(jobs_module, s), spec)
        self.windows.append((job.kind, start, start + elapsed))
        elapsed = self.probe.work_s(start, start + elapsed)
        self.times.append(elapsed)
        if self.traced and report is not None:
            extra, reason = self._traced_rerun(job, report)
            self.pairs.append((elapsed, extra))
            elapsed += extra
        if reason is not None:
            self.failures.append((job.kind, reason))
            return elapsed
        errors = oracle.check(job, report.data)
        if errors:
            self.disagreements.append((job.kind, errors[:3]))
            self.failures.append((job.kind, "oracle disagrees"))
            return elapsed
        self.completed += 1
        self.inconclusive += report.exit_code == 2
        return elapsed

    def _traced_rerun(self, job, untraced):
        tracer = self.tracer
        jobs_module = self.modules["jobs"]
        spans.bind_layers(tracer, self.modules)
        try:
            spec = tracer.span("parse", parse)(jobs_module, job)
            traced_serve = tracer.span("jobs", serve)
            elapsed, report, size, reason = run_one(
                lambda s: traced_serve(jobs_module, s), spec)
        finally:
            tracer.unbind_all()
            tracer.reset_stack()
        if reason is not None:
            return elapsed, f"traced run: {reason}"
        tracer.counts["jobs.report_bytes"] += size
        if report.data != untraced.data:
            return elapsed, "traced and untraced reports differ"
        return elapsed, None

    @property
    def attempted(self):
        return len(self.times)


def typical_round(loop):
    """One round's job times, each its class's median corrected time over
    the run."""
    return [statistics.median(loop.samples[kind])
            for kind in loop.composition]


def end_to_end(loop, setup_s):
    typical = typical_round(loop)
    return {
        "jobs_per_s": (len(typical) / sum(typical)
                       * loop.completed / loop.attempted, "1/s"),
        "job_p50_s": (statistics.median(typical), "s"),
        "job_p90_s": (statistics.quantiles(typical, n=10)[8], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def per_layer(loop):
    t = loop.tracer
    n = max(len(loop.pairs), 1)
    c = t.counts

    def per_job(value):
        return value / n

    dets = c["linalg.det_calls"]
    return {
        "groebner.self_s": (per_job(t.self_s["groebner"]), "s/job"),
        "groebner.calls": (per_job(c["groebner.calls"]), "1/job"),
        "groebner.steps": (per_job(c["groebner.steps"]), "1/job"),
        "groebner.aborts": (per_job(c["groebner.aborts"]), "1/job"),
        "search.self_s": (per_job(t.self_s["search"]), "s/job"),
        "search.candidates": (per_job(c["search.candidates"]), "1/job"),
        "search.yes_ratio": (c["search.verified"] / c["search.candidates"]
                             if c["search.candidates"] else 0.0, "ratio"),
        "poly.substitute_self_s": (per_job(t.self_s["poly.substitute"]),
                                   "s/job"),
        "poly.substitute_calls": (per_job(t.calls["poly.substitute"]),
                                  "1/job"),
        "border_basis.construct_self_s": (
            per_job(t.self_s["border_basis.construct"]), "s/job"),
        "border_basis.verify_self_s": (
            per_job(t.self_s["border_basis.verify"]), "s/job"),
        "border_basis.generators": (per_job(c["border_basis.generators"]),
                                    "1/job"),
        "linalg.self_s": (per_job(t.self_s["linalg"]), "s/job"),
        "linalg.det_calls": (per_job(dets), "1/job"),
        "linear_gfan.self_s": (per_job(t.self_s["linear_gfan"]), "s/job"),
        "linear_gfan.cells": (per_job(c["linear_gfan.cells"]), "1/job"),
        "linear_gfan.cells_per_minor": (c["linear_gfan.cells"] / dets
                                        if dets else 0.0, "ratio"),
        "cotangent.self_s": (per_job(t.self_s["cotangent"]), "s/job"),
        "parse.self_s": (per_job(t.self_s["parse"]), "s/job"),
        "jobs.self_s": (per_job(t.self_s["jobs"]), "s/job"),
        "jobs.report_bytes": (per_job(c["jobs.report_bytes"]), "B/job"),
        "trace.overhead_ratio": (
            sum(t for _, t in loop.pairs) / sum(u for u, _ in loop.pairs)
            if loop.pairs else 0.0, "ratio"),
    }


def environment(modules, args):
    mpq = modules["field"]._mpq
    return {
        "backend": f"{mpq.__module__}.{mpq.__qualname__}",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")
    signal.signal(signal.SIGALRM, _on_alarm)

    workload_corpus = corpus.Corpus(args.workload, args.seed)
    rounds = [workload_corpus.round(i)
              for i in range(SETUP_ROUNDS[args.workload])]
    probe = SpeedProbe()
    setup_s, modules, specs = setup([job for r in rounds for job in r],
                                    probe)
    parsed = []
    for r in rounds:
        parsed.append(list(zip(r, specs[:len(r)])))
        specs = specs[len(r):]

    loop = Loop(workload_corpus, modules, parsed, args.seconds,
                traced=bool(args.trace), probe=probe)
    loop.run()

    env = environment(modules, args)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {loop.attempted} jobs in "
          f"{loop.rounds} rounds, {sum(loop.times):.3f} s of job time")
    metrics = per_layer(loop) if args.trace else end_to_end(loop, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    n = loop.attempted
    plain = statistics.quantiles(loop.times, n=10)
    print(f"  {'wall time, all jobs p50, p90':32s} "
          f"{statistics.median(loop.times):.6g} s, {plain[8]:.6g} s "
          f"({n} jobs)")
    took = loop.probe.took()
    print(f"  {'reference work p50, min, max':32s} "
          f"{statistics.median(took):.6g} s, {min(took):.6g} s, "
          f"{max(took):.6g} s ({len(took)} samples, "
          f"{REF_NOMINAL_S} s nominal)")
    print(f"  {'fail_rate':32s} {len(loop.failures) / n:.6g} "
          f"({len(loop.failures)} of {n})")
    print(f"  {'inconclusive_rate':32s} {loop.inconclusive / n:.6g} "
          f"({loop.inconclusive} of {n})")
    print(f"  oracle: {loop.completed} agree, {len(loop.disagreements)} "
          f"disagree")
    for kind, reason in loop.failures[:10]:
        print(f"  failed {kind}: {reason}")
    for kind, errors in loop.disagreements[:5]:
        print(f"  disagreement {kind}: {errors}")
    correct = not loop.disagreements and not any(
        reason not in ("wall cap", "run wall limit")
        for _, reason in loop.failures)
    if args.trace:
        predictions = spans.prediction_errors(args.workload,
                                              loop.tracer.calls)
        print("  layer predictions: "
              + ("hold" if not predictions else "; ".join(predictions)))
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
