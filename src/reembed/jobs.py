"""Job files and report generation for the command line.

A job file is a ring declaration followed by content lines (one polynomial
per line; order-ideal jobs take comma-separated terms), with ``#`` comments
and an optional ``job: <command>`` directive.  Reports render as stable
JSON (schema field, fully deterministic) or as plain text mirroring the
notation of the worked examples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .border_basis import BorderBasisScheme, form_string, order_ideal
from .cotangent import cotangent_classes, enumerate_ltgfan_binomial
from .groebner import DEFAULT_STEP_LIMIT, buchberger
from .linear_gfan import gfan_linear
from .ordering import TermOrdering, degrevlex, elimination_for, lex
from .parse import ParseError, _parse_ring_decl, _TokenStream, parse_poly, parse_term
from .poly import linear_part_of_ideal
from .search import (
    certify_affine_cell,
    certify_optimal,
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
    optimal_only: bool = True
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
    """Parse a job file; raises ParseError with a position on bad input."""
    lines = text.split("\n")
    directive = None
    ring = None
    ring_line = 0
    content = []   # (line number, text)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ring is None and line.startswith("job:"):
            directive = line[4:].strip().rstrip(";").strip()
            directive_line = lineno
            continue
        if ring is None:
            if not line.startswith("ring"):
                raise ParseError("expected a ring declaration", lineno, 1)
            try:
                ring, _ = _parse_ring_decl(_TokenStream(line))
            except ParseError as e:
                raise ParseError(str(e).split(": ", 1)[1], lineno, e.col) \
                    from None
            ring_line = lineno
            continue
        content.append((lineno, line))
    if ring is None:
        raise ParseError("empty job file: no ring declaration", 1, 1)
    if directive is not None and directive not in COMMANDS:
        raise ParseError(f"unknown job command {directive!r}",
                         directive_line, 1)
    # an explicitly requested command wins over the file's directive, so one
    # input file can serve several views (gb, cotangent, reembed, ...)
    command = command or directive
    if command is None:
        raise ParseError("no job command given (job: line or subcommand)",
                         ring_line, 1)

    spec = JobSpec(command=command, ring=ring, polys=[])
    for lineno, line in content:
        try:
            if command == "bbs":
                for piece in line.rstrip(";").split(","):
                    piece = piece.strip()
                    if piece:
                        spec.terms.append(parse_term(piece, ring))
            else:
                p = parse_poly(line.rstrip(";"), ring)
                if command == "gfan-linear" and p and not p.is_linear_form():
                    raise ParseError(f"not a linear form: {p}", 1, 1)
                spec.polys.append(p)
        except ParseError as e:
            raise ParseError(str(e).split(": ", 1)[1], lineno, e.col) \
                from None
    if command == "bbs":
        if not spec.terms:
            raise ParseError("order-ideal job needs at least one term", 1, 1)
    elif not spec.polys:
        raise ParseError("job needs at least one polynomial", 1, 1)
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
    lines += [f"  {g.to_string(o)}" for g in gb.basis]
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
    binomial = all(len(f) <= 2 for f in lin)
    if spec.show_fan and binomial:
        data["ltgfan"] = [classes.labels(s)
                          for s in enumerate_ltgfan_binomial(classes)]
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
    out = {
        "Z": [labels[i] for i in res.Z],
        "Y": [labels[i] for i in res.Y],
        "substitution": {labels[z]: str(h)
                         for z, h in sorted(res.substitution.items())},
        "elimination_gens": [str(g) for g in res.elimination_gens],
        "optimal": res.optimal,
        "affine_cell": res.affine_cell,
    }
    if res.certificate is not None:
        o = res.certificate.ordering
        out["certificate"] = [g.to_string(o) for g in res.certificate.basis]
    return out


def _search(spec):
    """Run the job's candidate search on its polys; certify every result."""
    gens = spec.polys
    if spec.alg == "cotangent" or spec.all_results:
        report = find_reembedding_via_cotangent(
            gens, optimal_only=spec.optimal_only, limit=spec.budget)
    else:
        report = find_reembedding_via_gfan(gens, s=spec.size,
                                           limit=spec.budget)
    for res in report.results:
        res.optimal = certify_optimal(res, gens)
        cell = certify_affine_cell(res, gens, limit=spec.budget)
        if cell is not None:
            res.affine_cell = cell
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
    for r in report.results:
        lines.append("Z = (" + ", ".join(r.z_labels()) + ")")
        lines.append("Y = (" + ", ".join(r.y_labels()) + ")")
        for z, h in sorted(r.substitution.items()):
            lines.append(f"  {labels[z]} -> {h}")
        lines.append(f"  optimal: {r.optimal}, affine cell: {r.affine_cell}")
    exit_code = 2 if report.status == "inconclusive" else 0
    return Report(data, exit_code, "\n".join(lines) + "\n")


def _run_bbs(spec):
    nvars = spec.ring.n
    O = order_ideal(spec.terms, nvars)
    scheme = BorderBasisScheme(O, spec.ring.field)
    gens = scheme.defining_ideal()
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
                       for g in scheme.generators],
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
        sub = JobSpec(command="reembed", ring=scheme.cring, polys=gens,
                      budget=spec.budget, alg="cotangent",
                      optimal_only=spec.optimal_only)
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
