"""Command-line surface: one command per public capability.

Input documents are UTF-8 JSON with exact scalars as strings; reports are
canonical JSON (sorted keys, two-space indent, trailing newline) so that a
fixed input always produces byte-identical output.  Timing goes to stderr,
never into the report.

Exit codes: 0 = structural success, 2 = a verification failed (a verdict
is false or a structural precondition was rejected), 1 = input error,
including a cohomology truncation the structure does not support and a
report file (-o) that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import resources

from . import algebroid as alg
from . import cohomology as coho
from . import poisson as poi
from .errors import (
    ChartError,
    DegreeError,
    ParseError,
    ShapeError,
    SingularError,
    StructureError,
    TruncationError,
)
from .exactalg import Chart, parse_gq
from .serialize import (
    algebroid_dict,
    alternating_dict,
    chart_dict,
    is_int,
    parse_alternating,
    parse_bivector,
    parse_chart,
    parse_endo,
    parse_liealgebra,
    require_keys,
)

INPUT_ERRORS = (ParseError, ChartError, ShapeError, DegreeError,
                json.JSONDecodeError, OSError, KeyError, ValueError)
VERIFY_ERRORS = (StructureError, SingularError, TruncationError)


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{path}: malformed JSON at line {exc.lineno} column "
                f"{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level document must be an object")
    return doc


def _doc_chart_pi(doc, context):
    """Load a bivector document: either {chart, pi} or a lie_algebra whose
    fiberwise-linear dual Poisson structure is taken."""
    require_keys(doc, {"chart", "pi", "lie_algebra", "expected"}, context)
    if "lie_algebra" in doc:
        g = parse_liealgebra(doc["lie_algebra"])
        pi = alg.lie_poisson(alg.complex_presentation(g))
        return pi.chart, pi
    chart = parse_chart(doc.get("chart", {}))
    pi = parse_bivector(chart, doc.get("pi", []))
    return chart, pi


def emit(report: dict, out_path=None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# command implementations; each returns (report_dict, ok_bool)

def cmd_check_poisson(doc, options):
    chart, pi = _doc_chart_pi(doc, "check-poisson input")
    report = poi.is_holomorphic_poisson(pi)
    return {"verdicts": report.as_dict(),
            "data": {"chart": chart_dict(chart),
                     "pi": alternating_dict(pi)}}, report.holomorphic_poisson


def cmd_decompose(doc, options):
    chart, pi = _doc_chart_pi(doc, "decompose input")
    pair = poi.decompose(pi)
    return {"verdicts": {},
            "data": {"pi_R": alternating_dict(pair.pi_R),
                     "pi_I": alternating_dict(pair.pi_I)}}, True


def cmd_pn_check(doc, options):
    require_keys(doc, {"chart", "pi", "endo", "expected"}, "pn-check input")
    chart = parse_chart(doc.get("chart", {}))
    pi = parse_bivector(chart, doc.get("pi", []))
    if chart.is_complex():
        report = poi.pn_check_complex(pi)
        chart = Chart.real(chart.n)
    else:
        if "endo" not in doc:
            raise ParseError("pn-check on a real chart needs an endo matrix")
        report = poi.pn_check(pi, parse_endo(chart, doc["endo"]))
    return {"verdicts": report.as_dict(),
            "data": {"chart": chart_dict(chart)}}, report.all_ok


def cmd_torsion(doc, options):
    require_keys(doc, {"chart", "endo", "lie_algebra", "expected"},
                 "torsion input")
    if "lie_algebra" in doc:
        g = parse_liealgebra(doc["lie_algebra"])
        realified = alg.realify_liealgebra(alg.complex_presentation(g))
        torsion = alg.nijenhuis_torsion_algebroid(realified.algebroid,
                                                  realified.j)
        entries = [[i + 1, j + 1, [str(p) for p in vec]]
                   for (i, j), vec in sorted(torsion.items())]
        return {"verdicts": {"torsion_zero": not torsion},
                "data": {"rank": realified.algebroid.rank,
                         "nonzero": entries}}, True
    chart = parse_chart(doc.get("chart", {}))
    endo = parse_endo(chart, doc.get("endo"))
    torsion = poi.nijenhuis_torsion(endo)
    entries = []
    for (a, b), field in sorted(torsion.items()):
        entries.append([chart.var_name(a), chart.var_name(b),
                        alternating_dict(field)])
    return {"verdicts": {"torsion_zero": not torsion},
            "data": {"chart": chart_dict(chart), "nonzero": entries}}, True


def cmd_koszul(doc, options):
    require_keys(doc, {"chart", "pi", "alpha", "beta", "expected"},
                 "koszul input")
    chart = parse_chart(doc.get("chart", {}))
    pi = parse_bivector(chart, doc.get("pi", []))
    alpha = parse_alternating(chart, doc.get("alpha", []), 1, "form")
    beta = parse_alternating(chart, doc.get("beta", []), 1, "form")
    value = poi.koszul_bracket(pi, alpha, beta)
    return {"verdicts": {},
            "data": {"bracket": alternating_dict(value)}}, True


def cmd_cotangent(doc, options):
    chart, pi = _doc_chart_pi(doc, "cotangent input")
    b = alg.cotangent_algebroid(pi)
    report = alg.verify_algebroid(b)
    return {"verdicts": report.as_dict(),
            "data": {"algebroid": algebroid_dict(b)}}, report.all_ok


def cmd_matched_pair(doc, options):
    chart, pi = _doc_chart_pi(doc, "matched-pair input")
    mp = alg.canonical_matched_pair(pi)
    tensors = alg.matched_pair_tensors(mp)
    data = {
        "F_nonzero": sorted([list(k) for k in tensors.F]),
        "S_nonzero": sorted([list(k) for k in tensors.S]),
        "T_nonzero": sorted([list(k) for k in tensors.T]),
    }
    return {"verdicts": {"matched_pair": tensors.all_zero},
            "data": data}, tensors.all_zero


def cmd_bowtie(doc, options):
    chart, pi = _doc_chart_pi(doc, "bowtie input")
    mp = alg.canonical_matched_pair(pi)
    d = alg.bowtie(mp)
    report = alg.verify_algebroid(d)
    return {"verdicts": report.as_dict(),
            "data": {"algebroid": algebroid_dict(d)}}, report.all_ok


def cmd_yao_check(doc, options):
    chart, pi = _doc_chart_pi(doc, "yao-check input")
    report = alg.yao_isomorphism_check(pi)
    return {"verdicts": report.as_dict(), "data": {}}, report.all_ok


def cmd_lie_poisson(doc, options):
    require_keys(doc, {"lie_algebra", "expected"}, "lie-poisson input")
    g = parse_liealgebra(doc.get("lie_algebra", {}))
    pi = alg.lie_poisson(alg.complex_presentation(g))
    report = poi.is_holomorphic_poisson(pi)
    return {"verdicts": report.as_dict(),
            "data": {"chart": chart_dict(pi.chart),
                     "pi": alternating_dict(pi)}}, report.holomorphic_poisson


def cmd_realparts_check(doc, options):
    require_keys(doc, {"lie_algebra", "expected"}, "realparts-check input")
    g = parse_liealgebra(doc.get("lie_algebra", {}))
    report = alg.realparts_liealgebra_check(g)
    return {"verdicts": report.as_dict(), "data": {}}, report.all_ok


def cmd_foliation_rank(doc, options):
    chart, pi = _doc_chart_pi(doc, "foliation-rank input")
    point_text = options.get("point")
    if point_text is None:
        raise ParseError("foliation-rank needs --point \"a,b,...\"")
    point = [parse_gq(part) for part in str(point_text).split(",")]
    report = poi.foliation_rank(pi, point)
    return {"verdicts": {"images_equal": report.images_equal},
            "data": report.as_dict()}, True


def cmd_cohomology(doc, options):
    chart, pi = _doc_chart_pi(doc, "cohomology input")
    mp = alg.canonical_matched_pair(pi)
    if options.get("weight") is not None:
        mode, flag, key = "weight", "--weight", "weight"
    elif options.get("max_degree") is not None:
        mode, flag, key = "total_degree", "--max-degree", "max_degree"
    else:
        raise ParseError("cohomology needs --weight or --max-degree")
    bound = options[key]
    if not is_int(bound):
        raise ParseError(f"{flag} must be an integer, got {bound!r}")
    if bound < 0:
        raise ParseError(f"{flag} must be >= 0, got {bound}")
    method = options.get("method") or "sparse"
    if method not in ("sparse", "oracle"):
        raise ParseError(f"unknown method {method!r}: options.method is "
                         "sparse or oracle")
    truncation = coho.Truncation(mode, bound)
    dump_dir = options.get("dump_matrices")
    if dump_dir is not None and not isinstance(dump_dir, str):
        raise ParseError("dump_matrices must be a directory path")
    dumps = {}

    def keep(label, matrix):
        dumps[label] = _dump_text(matrix)

    if dump_dir:
        os.makedirs(dump_dir, exist_ok=True)
    try:
        report = coho.betti(mp, truncation, method=method,
                            on_total=keep if dump_dir else None)
    except TruncationError as exc:
        # the structure does not support the requested truncation: the
        # request is at fault, no verification failed
        raise ParseError(str(exc)) from exc
    for label, text in dumps.items():
        path = os.path.join(dump_dir, f"{label}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return {"verdicts": {},
            "data": report.as_dict()}, True


def _dump_text(matrix):
    """A total matrix's dump file: header "rows cols nnz" then "i j
    value", one line per nonzero entry in (i, j) order."""
    lines = [f"{matrix.nrows} {matrix.ncols} {matrix.nnz}"]
    for (i, j) in sorted(matrix.entries):
        lines.append(f"{i} {j} {matrix.entries[(i, j)]}")
    return "\n".join(lines) + "\n"


COMMANDS = {
    "check-poisson": cmd_check_poisson,
    "decompose": cmd_decompose,
    "pn-check": cmd_pn_check,
    "torsion": cmd_torsion,
    "koszul": cmd_koszul,
    "cotangent": cmd_cotangent,
    "matched-pair": cmd_matched_pair,
    "bowtie": cmd_bowtie,
    "yao-check": cmd_yao_check,
    "lie-poisson": cmd_lie_poisson,
    "realparts-check": cmd_realparts_check,
    "foliation-rank": cmd_foliation_rank,
    "cohomology": cmd_cohomology,
}

JOB_OPTION_KEYS = {"point", "weight", "max_degree", "method",
                   "dump_matrices"}


def run_job(job: dict):
    """Validate and execute a JobSpec; returns (report, exit_code)."""
    require_keys(job, {"command", "input_path", "input", "options"},
                 "job")
    command = job.get("command")
    if command not in COMMANDS and command != "selftest":
        raise ParseError(f"unknown command {command!r}")
    options = job.get("options") or {}
    require_keys(options, JOB_OPTION_KEYS, "job options")
    if command == "selftest":
        return run_selftest(options)
    if "input_path" in job:
        doc = _load(job["input_path"])
        source = os.path.basename(job["input_path"])
    else:
        doc = job.get("input")
        source = "(inline)"
        if not isinstance(doc, dict):
            raise ParseError("job needs input_path or an inline input object")
    body, ok = COMMANDS[command](doc, options)
    report = {"command": command, "input": source, "ok": ok}
    report.update(body)
    return report, 0 if ok else 2


# ----------------------------------------------------------------------
# corpus and selftest

def corpus():
    """Names of the bundled example documents."""
    root = resources.files("holopoisson") / "corpus"
    return sorted(entry.name for entry in root.iterdir()
                  if entry.name.endswith(".json"))


def corpus_path(name: str) -> str:
    return str(resources.files("holopoisson") / "corpus" / name)


def _selftest_one(name: str):
    doc = _load(corpus_path(name))
    expected = doc.get("expected", {})
    results = {}
    all_ok = True
    for command, want in sorted(expected.items()):
        options = dict(want.get("options", {}))
        try:
            report, code = run_job({"command": command,
                                    "input": doc,
                                    "options": options})
        except VERIFY_ERRORS as exc:
            report, code = {"error": str(exc)}, 2
        got = {"exit": code}
        for key, value in want.items():
            if key in ("options", "exit"):
                continue
            got[key] = _dig(report, key)
        ok = got.get("exit") == want.get("exit", 0)
        for key, value in want.items():
            if key in ("options", "exit"):
                continue
            ok = ok and got.get(key) == value
        results[command] = {"expected": want, "got": got, "ok": ok}
        all_ok = all_ok and ok
    return results, all_ok


def _dig(report: dict, dotted: str):
    node = report
    for part in dotted.split("."):
        if isinstance(node, list):
            try:
                node = node[int(part)]
            except (IndexError, ValueError):
                return None
        elif isinstance(node, dict):
            if part not in node:
                return None
            node = node[part]
        else:
            return None
    return node


def run_selftest(options):
    files = {}
    all_ok = True
    for name in corpus():
        results, ok = _selftest_one(name)
        files[name] = {"ok": ok, "commands": results}
        all_ok = all_ok and ok
    report = {"command": "selftest", "ok": all_ok, "files": files}
    return report, 0 if all_ok else 2


# ----------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holopoisson",
        description="Exact calculus of holomorphic Poisson structures and "
                    "Lie algebroids on polynomial charts.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("input", help="JSON input document")
        p.add_argument("-o", "--out", help="write the report to a file")
        if name == "foliation-rank":
            p.add_argument("--point", help="comma-separated rational "
                                           "coordinates")
        if name == "cohomology":
            p.add_argument("--weight", type=int,
                           help="weight-graded truncation bound")
            p.add_argument("--max-degree", type=int, dest="max_degree",
                           help="total-degree truncation bound")
            p.add_argument("--method", choices=("sparse", "oracle"),
                           default="sparse")
            p.add_argument("--dump-matrices", dest="dump_matrices",
                           help="directory for sparse matrix dumps")
    p = sub.add_parser("selftest")
    p.add_argument("-o", "--out", help="write the report to a file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    job = {"command": args.command, "options": {}}
    for key in ("point", "weight", "max_degree", "method", "dump_matrices"):
        value = getattr(args, key, None)
        if value is not None:
            job["options"][key] = value
    if args.command != "selftest":
        job["input_path"] = args.input
    failure = None
    try:
        report, code = run_job(job)
    except INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except VERIFY_ERRORS as exc:
        report, code = {"command": args.command, "ok": False,
                        "error": str(exc)}, 2
        failure = f"verification failure: {exc}"
    try:
        emit(report, getattr(args, "out", None))
    except OSError as exc:
        # an unwritable -o path is an input error on either branch
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    if failure is not None:
        print(failure, file=sys.stderr)
    else:
        elapsed = time.monotonic() - started
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
