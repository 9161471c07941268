"""Job files and report generation for the command line.

A job file is a ring declaration followed by content lines (one polynomial
per line; order-ideal jobs take comma-separated terms), with ``#`` comments
and an optional ``job: <command>`` directive.  Reports render as stable
JSON (schema field, fully deterministic) or as plain text mirroring the
notation of the worked examples.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .border_basis import BorderBasisScheme, form_string, order_ideal
from .cotangent import cotangent_classes, enumerate_ltgfan_binomial
from .groebner import DEFAULT_STEP_LIMIT, buchberger
from .linear_gfan import gfan_linear, ltgfan_linear
from .ordering import TermOrdering, degrevlex, elimination_for, lex
from .parse import ParseError, parse_poly, parse_ring, parse_term
from .poly import linear_part_of_ideal
from .search import (
    certify_affine_cell,
    certify_optimal,  # not called here: perfbench/spans.py binds it here
    find_reembedding_via_cotangent,
    find_reembedding_via_gfan,
)
from .ring import term_str

SCHEMA_VERSION = 1
COMMANDS = ("gb", "gfan-linear", "cotangent", "reembed", "bbs")


@dataclass
class JobSpec:
    command: str
    ring: object
    polys: list
    terms: list = field(default_factory=list)   # for bbs jobs
    ordering_spec: str = "degrevlex"
    size: int | None = None
    budget: int = DEFAULT_STEP_LIMIT
    alg: str = "gfan"
    all_results: bool = False
    chain_reembed: bool = False
    show_fan: bool = False
    json_out: bool = False


def parse_ordering_spec(spec, ring):
    spec = spec.strip()
    if spec == "degrevlex":
        return degrevlex(ring.n)
    if spec == "lex":
        return lex(ring.n)
    if spec.startswith("elim(") and spec.endswith(")"):
        names = [s.strip() for s in spec[5:-1].split(",") if s.strip()]
        return elimination_for(ring, names)
    if spec.startswith("["):
        rows = json.loads(spec)
        return TermOrdering(rows)
    raise ValueError(f"unknown ordering spec {spec!r}")


def parse_job(text, command=None):
    """Parse a job file; raises ParseError with a position on bad input.

    Columns count from the start of the line: each line is parsed without
    its indentation, and the indentation is added back to an error's
    column."""
    directive = None
    ring = None
    content = []   # (line number, columns before the text, text)
    for lineno, raw in enumerate(text.split("\n"), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        indent = len(code) - len(code.lstrip())
        if ring is None and line.startswith("job:"):
            directive = line[4:].strip().rstrip(";").strip()
            directive_at = (lineno, indent + 1)
            continue
        if ring is None:
            if not line.startswith("ring"):
                raise ParseError("expected a ring declaration", lineno,
                                 indent + 1)
            try:
                ring = parse_ring(line)
            except ParseError as e:
                raise ParseError(str(e).split(": ", 1)[1], lineno,
                                 e.col + indent) from None
            ring_at = (lineno, indent + 1)
            continue
        content.append((lineno, indent, line))
    if ring is None:
        raise ParseError("empty job file: no ring declaration", 1, 1)
    if directive is not None and directive not in COMMANDS:
        raise ParseError(f"unknown job command {directive!r}", *directive_at)
    # an explicitly requested command wins over the file's directive, so one
    # input file can serve several views (gb, cotangent, reembed, ...)
    command = command or directive
    if command is None:
        raise ParseError("no job command given (job: line or subcommand)",
                         *ring_at)

    spec = JobSpec(command=command, ring=ring, polys=[])
    for lineno, indent, line in content:
        offset = indent   # columns before the text being parsed
        try:
            if command == "bbs":
                # each comma piece from its first non-blank character
                for piece in re.finditer(r"[^,\s][^,]*", line.rstrip(";")):
                    offset = indent + piece.start()
                    spec.terms.append(parse_term(piece.group(), ring))
            else:
                p = parse_poly(line.rstrip(";"), ring)
                if command == "gfan-linear" and p and not p.is_linear_form():
                    raise ParseError(f"not a linear form: {p}", 1, 1)
                spec.polys.append(p)
        except ParseError as e:
            raise ParseError(str(e).split(": ", 1)[1], lineno,
                             e.col + offset) from None
    if command == "bbs":
        if not spec.terms:
            raise ParseError("order-ideal job needs at least one term",
                             *ring_at)
    elif not spec.polys:
        raise ParseError("job needs at least one polynomial", *ring_at)
    return spec


@dataclass
class Report:
    data: dict
    exit_code: int
    text: str

    def to_json(self):
        return json.dumps(self.data, indent=2) + "\n"

    def render(self, json_out):
        return self.to_json() if json_out else self.text


def _meta(spec):
    return {
        "schema": SCHEMA_VERSION,
        "command": spec.command,
        "ring": list(spec.ring.labels),
        "budget": spec.budget,
        "threads": 1,
    }


def run_job(spec):
    if spec.command == "gb":
        return _run_gb(spec)
    if spec.command == "gfan-linear":
        return _run_gfan(spec)
    if spec.command == "cotangent":
        return _run_cotangent(spec)
    if spec.command == "reembed":
        return _run_reembed(spec)
    if spec.command == "bbs":
        return _run_bbs(spec)
    raise ValueError(f"unknown command {spec.command!r}")


def _run_gb(spec):
    o = parse_ordering_spec(spec.ordering_spec, spec.ring)
    gb = buchberger(spec.polys, o, spec.budget)
    status = "ok" if gb.complete else "inconclusive"
    data = _meta(spec)
    data.update({
        "status": status,
        "ordering": o.describe(),
        "basis": [g.to_string(o) for g in gb.basis],
        "steps": gb.steps,
    })
    lines = [f"reduced basis ({gb.status}, {gb.steps} steps):"]
    lines += [f"  {g}" for g in data["basis"]]
    return Report(data, 0 if gb.complete else 2, "\n".join(lines) + "\n")


def _run_gfan(spec):
    fan = gfan_linear(spec.polys, ring=spec.ring)
    data = _meta(spec)
    data.update({
        "status": "ok",
        "bases": [[m + 1 for m in gb.markers] for gb in fan],
        "gbs": [[[m, s] for m, s in gb.pair_strings()] for gb in fan],
    })
    lines = [f"{len(fan)} marked reduced bases:"]
    lines += ["  {" + ", ".join(f"({m}, {s})" for m, s in gbs) + "}"
              for gbs in data["gbs"]]
    return Report(data, 0, "\n".join(lines) + "\n")


def _classes_data(classes):
    return {
        "trivial": classes.labels(classes.trivial),
        "basic": classes.labels(classes.basic),
        "proper": [classes.labels(e) for e in classes.proper],
        "ltgfan_size": classes.fan_size(),
    }


def _run_cotangent(spec):
    lin = linear_part_of_ideal(spec.polys)
    data = _meta(spec)
    if not lin:
        data.update({"status": "ok", "trivial": [], "basic":
                     list(spec.ring.labels), "proper": [], "ltgfan_size": 1})
        return Report(data, 0, "no linear part: all indeterminates basic\n")
    classes = cotangent_classes(lin, spec.ring)
    data["status"] = "ok"
    data.update(_classes_data(classes))
    # the closed form holds for binomial parts only; any other part's fan
    # is walked, as find_reembedding_via_cotangent's fallback does
    if all(len(f) <= 2 for f in lin):
        fan = enumerate_ltgfan_binomial(classes) if spec.show_fan else None
    else:
        fan = ltgfan_linear(lin)
        data["ltgfan_size"] = len(fan)
    if spec.show_fan:
        data["ltgfan"] = [classes.labels(s) for s in fan]
    lines = [
        "trivial class: " + ", ".join(data["trivial"]),
        "basic: " + ", ".join(data["basic"]),
        "proper classes: " + "; ".join(
            "{" + ", ".join(e) + "}" for e in data["proper"]),
        f"leading-term fan size: {data['ltgfan_size']}",
    ]
    if "ltgfan" in data:
        lines.append("leading-term sets:")
        lines += ["  {" + ", ".join(s) + "}" for s in data["ltgfan"]]
    return Report(data, 0, "\n".join(lines) + "\n")


def _result_data(res):
    labels = res.ring.labels
    return {
        "Z": [labels[i] for i in res.Z],
        "Y": [labels[i] for i in res.Y],
        "substitution": {labels[z]: str(h)
                         for z, h in sorted(res.substitution.items())},
        "elimination_gens": [str(g) for g in res.elimination_gens],
        "optimal": res.optimal,
        "affine_cell": res.affine_cell,
        "certificate": [g.to_string(res.certificate.ordering)
                        for g in res.certificate.basis],
    }


def _search(spec):
    """Run the job's candidate search; cross-check each result's affine
    cell by substitution."""
    gens = spec.polys
    if spec.alg == "cotangent":
        if spec.size is not None:
            raise ValueError("--size needs --alg gfan")
        report = find_reembedding_via_cotangent(gens, limit=spec.budget)
    else:
        report = find_reembedding_via_gfan(
            gens, s=spec.size, limit=spec.budget,
            first_only=not spec.all_results)
    for res in report.results:
        certify_affine_cell(res, gens)
    return report


def _run_reembed(spec):
    report = _search(spec)
    data = _meta(spec)
    data["algorithm"] = spec.alg
    labels = spec.ring.labels
    data.update({
        "status": report.status,
        "tried": [{"Z": [labels[i] for i in Z], "check": st}
                  for Z, st in report.tried],
        "results": [_result_data(r) for r in report.results],
    })
    if report.unverified:
        data["unverified"] = [[labels[i] for i in Z]
                              for Z in report.unverified]
    lines = [f"search status: {report.status}"]
    for r in data["results"]:
        lines.append("Z = (" + ", ".join(r["Z"]) + ")")
        lines.append("Y = (" + ", ".join(r["Y"]) + ")")
        lines += [f"  {z} -> {h}" for z, h in r["substitution"].items()]
        lines.append(f"  optimal: {r['optimal']}, "
                     f"affine cell: {r['affine_cell']}")
    exit_code = 2 if report.status == "inconclusive" else 0
    return Report(data, exit_code, "\n".join(lines) + "\n")


def _run_bbs(spec):
    nvars = spec.ring.n
    O = order_ideal(spec.terms, nvars)
    scheme = BorderBasisScheme(O, spec.ring.field)
    gens = scheme.generators
    classes = scheme.cotangent() if gens else None
    report = scheme.verify_structure()
    data = _meta(spec)
    rim_labels = sorted(
        scheme.cring.labels[i] for i in scheme.rim_cvar_indices())
    data.update({
        "status": "ok",
        "mu": scheme.mu,
        "nu": scheme.nu,
        "num_indets": scheme.cring.n,
        "dimension": scheme.dimension(),
        "order_ideal": [term_str(t, spec.ring) for t in O.terms],
        "border": [term_str(t, spec.ring) for t in scheme.border_terms],
        "rim_terms": [term_str(O.terms[i], spec.ring)
                      for i in scheme.rim_positions],
        "interior_terms": [term_str(O.terms[i], spec.ring)
                           for i in scheme.interior_positions],
        "rim_indeterminates": rim_labels,
        "arrow_degrees": {scheme.clabel(i, j):
                          list(scheme.arrow_degree(i, j))
                          for i in range(scheme.mu)
                          for j in range(scheme.nu)},
        "generators": [form_string(g.form, scheme.cring.labels)
                       for g in gens],
        "verification": dict(report.checks),
    })
    if classes is not None:
        data["cotangent"] = _classes_data(classes)
    lines = [
        f"order ideal: mu = {scheme.mu}, border: nu = {scheme.nu}, "
        f"ring with {scheme.cring.n} indeterminates, "
        f"dimension {scheme.dimension()}",
        "order ideal: " + ", ".join(data["order_ideal"]),
        "border: " + ", ".join(data["border"]),
        f"generators: {len(gens)}",
        "verification: " + ", ".join(
            f"{k}={'pass' if v else 'FAIL'}" for k, v in report.checks.items()),
    ]
    exit_code = 0
    if spec.chain_reembed and gens:
        sub = JobSpec(command="reembed", ring=scheme.cring,
                      polys=scheme.defining_ideal(), budget=spec.budget,
                      alg="cotangent")
        inner = _search(sub)
        summary = {
            "status": inner.status,
            "count": len(inner.results),
            "results": [
                {"Z": list(r.z_labels()), "Y": list(r.y_labels()),
                 "optimal": r.optimal, "affine_cell": r.affine_cell}
                for r in inner.results],
        }
        data["reembed"] = summary
        lines.append(f"re-embedding search: {summary['status']}, "
                     f"{summary['count']} tuples")
        for r in summary["results"]:
            lines.append("  Z = (" + ", ".join(r["Z"]) + ") optimal="
                         + str(r["optimal"]) + " affine_cell="
                         + str(r["affine_cell"]))
        if inner.status == "inconclusive":
            exit_code = 2
    return Report(data, exit_code, "\n".join(lines) + "\n")
