"""Command-line surface: one command per public capability.

    holopoisson COMMAND [INPUT.json] [FLAGS]     (--help lists them)

Input documents are UTF-8 JSON with exact scalars as strings; reports are
canonical JSON (sorted keys, two-space indent, trailing newline) so that a
fixed input always produces byte-identical output.  Timing goes to stderr,
never into the report.

The command line is read by a small table-driven reader, not argparse:
every command is one cold process, and argparse with its gettext lookups
would cost more start-up than most commands take.  Each command's flags
are its JobSpec options (COMMAND_OPTIONS; option max_degree is the flag
--max-degree) plus -o/--out, given as ``--flag value`` or
``--flag=value``; names are matched exactly, never as prefixes.

Exit codes: 0 = structural success, 2 = a verification failed (a verdict
is false or a structural precondition was rejected), 1 = input error,
including a malformed command line, a missing document key, an input over
a size budget, a cohomology truncation (TruncationError) over budget or
that the structure does not support, and a report that cannot be written
(an -o file, or stdout a closed pipe).  The process entry, run(),
flushes stdout and stderr once main() has returned and ends with
os._exit, skipping interpreter teardown; code that embeds the CLI calls
main() and is not affected.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

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
from .linalg import poly_mat_squares_to_minus_identity
from .multivec import Form, Multivector
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
    require_field,
    require_keys,
)

INPUT_ERRORS = (ParseError, ChartError, ShapeError, DegreeError,
                TruncationError, json.JSONDecodeError, OSError, KeyError,
                ValueError)
VERIFY_ERRORS = (StructureError, SingularError)


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


def _lie_algebra_document(doc, keys, context):
    """True for a lie_algebra document, which takes none of keys."""
    clash = [key for key in keys if key in doc]
    if "lie_algebra" in doc and clash:
        raise ParseError(f"{context}: 'lie_algebra' and {clash[0]!r} both "
                         "given")
    return "lie_algebra" in doc


def _doc_chart_pi(doc, context):
    """Load a bivector document: either {chart, pi} or a lie_algebra whose
    fiberwise-linear dual Poisson structure is taken."""
    require_keys(doc, {"chart", "pi", "lie_algebra", "expected"}, context)
    if _lie_algebra_document(doc, ("chart", "pi"), context):
        g = parse_liealgebra(doc["lie_algebra"])
        pi = alg.lie_poisson(alg.complex_presentation(g))
        return pi.chart, pi
    chart = parse_chart(require_field(doc, "chart", context))
    pi = parse_bivector(chart, require_field(doc, "pi", context))
    return chart, pi


def emit(report: dict, out_path=None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        _write_stdout(text)


def _write_stdout(text: str) -> None:
    """Write text to stdout and flush it.  If that fails (stdout a closed
    pipe), fd 1 is pointed at os.devnull before the error goes up, so the
    interpreter's last flush of what is still buffered cannot fail again
    at exit (see the note on SIGPIPE in the signal module's docs)."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


# ----------------------------------------------------------------------
# command implementations; each returns (report_dict, ok_bool)

def cmd_check_poisson(doc, options):
    chart, pi = _doc_chart_pi(doc, "check-poisson input")
    report = poi.is_holomorphic_poisson(pi)
    return {"verdicts": report.as_dict(),
            "data": {"chart": chart_dict(chart),
                     "pi": alternating_dict(pi)}}, report.all_ok


def cmd_decompose(doc, options):
    chart, pi = _doc_chart_pi(doc, "decompose input")
    pair = poi.decompose(pi)
    return {"verdicts": {},
            "data": {"pi_R": alternating_dict(pair.pi_R),
                     "pi_I": alternating_dict(pair.pi_I)}}, True


def cmd_pn_check(doc, options):
    context = "pn-check input"
    require_keys(doc, {"chart", "pi", "endo", "expected"}, context)
    chart = parse_chart(require_field(doc, "chart", context))
    pi = parse_bivector(chart, require_field(doc, "pi", context))
    if chart.is_complex():
        if "endo" in doc:
            raise ParseError("pn-check on a complex chart takes no endo "
                             "matrix: it checks the standard J")
        pi_i, endo = poi.complex_parts(pi).pi_I, poi.standard_j(chart)
        chart = Chart.real(chart.n)
    else:
        if "endo" not in doc:
            raise ParseError("pn-check on a real chart needs an endo matrix")
        pi_i, endo = pi, parse_endo(chart, doc["endo"])
    report = poi.pn_check(pi_i, endo)
    return {"verdicts": report.as_dict(),
            "data": {"chart": chart_dict(chart)}}, report.all_ok


def cmd_torsion(doc, options):
    require_keys(doc, {"chart", "endo", "lie_algebra", "expected"},
                 "torsion input")
    # a Lie algebra document's j claims to be integrable, so its torsion
    # is a verdict; a chart's endo is any endomorphism
    lie = _lie_algebra_document(doc, ("chart", "endo"), "torsion input")
    if lie:
        g = parse_liealgebra(doc["lie_algebra"])
        if g.j is None:
            # a complex algebra: its realification's j, integrable by
            # construction
            g = alg.realify_liealgebra(g.algebroid)
        else:
            alg._jacobi(g.algebroid)
            if not poly_mat_squares_to_minus_identity(g.j):
                raise StructureError(
                    "j is not a complex structure (j^2 != -1)")
        base, endo = g.algebroid, g.j
        data = {"rank": base.rank}

        def entry(i, j, vec):
            return [i + 1, j + 1, [str(p) for p in vec]]
    else:
        chart = parse_chart(require_field(doc, "chart", "torsion input"))
        base = alg.tangent_algebroid(chart)
        endo = parse_endo(chart, require_field(doc, "endo", "torsion input"))
        data = {"chart": chart_dict(chart)}

        def entry(i, j, vec):
            return [chart.var_name(i), chart.var_name(j),
                    alternating_dict(Multivector.from_components(chart, vec))]
    torsion = alg.nijenhuis_torsion_algebroid(base, endo)
    data["nonzero"] = [entry(i, j, vec)
                       for (i, j), vec in sorted(torsion.items())]
    return ({"verdicts": {"torsion_zero": not torsion}, "data": data},
            not (lie and torsion))


def cmd_koszul(doc, options):
    context = "koszul input"
    require_keys(doc, {"chart", "pi", "alpha", "beta", "expected"}, context)
    chart = parse_chart(require_field(doc, "chart", context))
    pi = parse_bivector(chart, require_field(doc, "pi", context))
    alpha = parse_alternating(chart, require_field(doc, "alpha", context),
                              1, Form)
    beta = parse_alternating(chart, require_field(doc, "beta", context),
                             1, Form)
    bracket = Form.from_components(chart, alg.koszul_algebroid(pi).bracket(
        alpha.coefficients(), beta.coefficients()))
    return {"verdicts": {},
            "data": {"bracket": alternating_dict(bracket)}}, True


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
    """check-poisson of a document that must be a Lie algebra's."""
    require_keys(doc, {"lie_algebra", "expected"}, "lie-poisson input")
    require_field(doc, "lie_algebra", "lie-poisson input")
    return cmd_check_poisson(doc, options)


def cmd_realparts_check(doc, options):
    require_keys(doc, {"lie_algebra", "expected"}, "realparts-check input")
    g = parse_liealgebra(require_field(doc, "lie_algebra",
                                       "realparts-check input"))
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
    if (options.get("weight") is not None
            and options.get("max_degree") is not None):
        raise ParseError("cohomology takes --weight or --max-degree, "
                         "not both")
    dump_dir = options.get("dump_matrices")
    if dump_dir is not None and not (isinstance(dump_dir, str) and dump_dir):
        raise ParseError("dump_matrices must be a directory path, "
                         f"got {dump_dir!r}")
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
    chart, pi = _doc_chart_pi(doc, "cohomology input")
    mp = alg.canonical_matched_pair(pi)
    truncation = coho.Truncation(mode, bound)
    if dump_dir:
        os.makedirs(dump_dir, exist_ok=True)
    # the dump's budget first, so that a dump above it is refused before
    # any rank; its matrices are built and written one at a time once the
    # report is made
    totals = coho.assemble_total(mp, truncation) if dump_dir else ()
    report = coho.betti(mp, truncation, method=method)
    for label, matrix in totals:
        path = os.path.join(dump_dir, f"{label}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_dump_text(matrix))
        del matrix  # not alive while the next one is built
    return {"verdicts": {},
            "data": report.as_dict()}, True


def _dump_text(matrix):
    """A total matrix's dump file: header "rows cols nnz" then "i j
    value", one line per nonzero entry in (i, j) order."""
    entries = matrix.entries  # a new dict at each read
    lines = [f"{matrix.nrows} {matrix.ncols} {len(entries)}"]
    lines += [f"{i} {j} {value}" for (i, j), value in sorted(entries.items())]
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

# the JobSpec options each command reads, and the only ones it takes; on
# the command line, option max_degree is the flag --max-degree, and every
# command also takes -o/--out
COMMAND_OPTIONS = {
    "foliation-rank": ("point",),
    "cohomology": ("weight", "max_degree", "method", "dump_matrices"),
}
# options whose flag value is read as an integer
INT_OPTIONS = ("weight", "max_degree")


def run_job(job: dict):
    """Validate and execute a JobSpec; returns (report, exit_code)."""
    require_keys(job, {"command", "input_path", "input", "options"},
                 "job")
    command = job.get("command")
    if command not in COMMANDS and command != "selftest":
        raise ParseError(f"unknown command {command!r}")
    options = job.get("options") or {}
    require_keys(options, COMMAND_OPTIONS.get(command, ()),
                 f"{command} options")
    if command == "selftest":
        return run_selftest()
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

# importlib.resources (with typing, pathlib and tempfile) is imported only
# here, so the commands that never read the corpus do not pay for it

def corpus():
    """Names of the bundled example documents."""
    from importlib import resources

    root = resources.files("holopoisson") / "corpus"
    return sorted(entry.name for entry in root.iterdir()
                  if entry.name.endswith(".json"))


def corpus_path(name: str) -> str:
    from importlib import resources

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


def run_selftest():
    files = {}
    all_ok = True
    for name in corpus():
        results, ok = _selftest_one(name)
        files[name] = {"ok": ok, "commands": results}
        all_ok = all_ok and ok
    report = {"command": "selftest", "ok": all_ok, "files": files}
    return report, 0 if all_ok else 2


# ----------------------------------------------------------------------
# the command line

def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def usage() -> str:
    """The --help listing: every command with its flags."""
    lines = ["usage: holopoisson COMMAND [INPUT.json] [FLAGS]", "",
             "commands:"]
    for command in [*COMMANDS, "selftest"]:
        words = [command]
        if command != "selftest":
            words.append("INPUT.json")
        words += [f"[{_flag(key)} {key.upper()}]"
                  for key in COMMAND_OPTIONS.get(command, ())]
        lines.append("  " + " ".join(words + ["[-o OUT]"]))
    lines += ["", "Exit codes: 0 ok, 2 a verification failed, 1 input "
                  "error."]
    return "\n".join(lines) + "\n"


def read_argv(argv):
    """(JobSpec, -o path or None) of a command line.  A flag takes its
    value as the next word or after '='; the next word is a value unless
    it is one of the command's flags, so "--weight -1" reads -1.  A
    malformed command line raises ParseError."""
    if not argv:
        raise ParseError("no command given (see --help)")
    command, words = argv[0], argv[1:]
    if command not in COMMANDS and command != "selftest":
        raise ParseError(f"unknown command {command!r} (see --help)")
    flags = {"-o": "out", "--out": "out"}
    flags.update((_flag(key), key)
                 for key in COMMAND_OPTIONS.get(command, ()))
    values, paths = {}, []
    k = 0
    while k < len(words):
        word = words[k]
        k += 1
        if not word.startswith("-"):
            paths.append(word)
            continue
        name, equals, value = word.partition("=")
        if name not in flags:
            raise ParseError(f"{command} takes no flag {name!r} "
                             "(see --help)")
        if not equals:
            if k == len(words) or words[k] in flags:
                raise ParseError(f"{name} needs a value")
            value = words[k]
            k += 1
        values[flags[name]] = value
    want = 0 if command == "selftest" else 1
    if len(paths) != want:
        count = "one input path" if want else "no input path"
        raise ParseError(f"{command} takes {count}, got {len(paths)}")
    out_path = values.pop("out", None)
    if out_path == "":
        raise ParseError("-o/--out must be a file path, got ''")
    for key in INT_OPTIONS:
        if key in values:
            try:
                values[key] = int(values[key])
            except ValueError:
                raise ParseError(f"{_flag(key)} must be an integer, got "
                                 f"{values[key]!r}") from None
    job = {"command": command, "options": values}
    if paths:
        job["input_path"] = paths[0]
    return job, out_path


def main(argv=None) -> int:
    """Run one command line and return its exit code.  It never ends the
    process, so code that embeds the CLI calls it (run() is the entry)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    failure = None
    try:
        if "-h" in argv or "--help" in argv:
            _write_stdout(usage())
            return 0
        job, out_path = read_argv(argv)
        started = time.monotonic()
        report, code = run_job(job)
    except INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except VERIFY_ERRORS as exc:
        report, code = {"command": job["command"], "ok": False,
                        "error": str(exc)}, 2
        failure = f"verification failure: {exc}"
    try:
        emit(report, out_path)
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


def run():
    """The process entry (``python -m holopoisson.cli`` and the
    ``holopoisson`` script): main() with the cyclic garbage collector
    off, then flush both streams and end the process with os._exit,
    skipping interpreter teardown.  The commands make no reference cycles
    beyond the few of the stdlib JSON encoder, so reference counting frees
    everything the collector would; main() and the library leave the
    collector as they find it.  Every file a command writes is closed by
    its with block before main returns, and the package registers no
    atexit hook or finaliser and starts no thread.  main() has flushed
    stdout already (a report into a closed pipe is an input error there);
    a flush that fails here leaves the exit to sys.exit, so its code and
    message are those of a plain return."""
    gc.disable()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
