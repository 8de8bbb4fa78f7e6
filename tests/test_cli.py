import copy
import functools
import gc
import json
import operator
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holopoisson
from holopoisson.cli import (
    COMMANDS,
    INPUT_ERRORS,
    VERIFY_ERRORS,
    _doc_chart_pi,
    _load,
    corpus,
    corpus_path,
    run_job,
)
from holopoisson.algebroid import (
    canonical_matched_pair,
    nijenhuis_torsion_algebroid,
)
from holopoisson.errors import ParseError, TruncationError
from holopoisson.exactalg import Chart
from holopoisson.multivec import Multivector
from holopoisson.serialize import (
    alternating_dict,
    parse_alternating,
    parse_chart,
    parse_liealgebra,
)


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "holopoisson.cli", *args],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------
# exit-code contract

def test_check_poisson_exit_codes(tmp_path):
    good = write_doc(tmp_path, "good.json", {
        "chart": {"kind": "complex", "n": 2},
        "pi": [{"frame": ["z1", "z2"], "coeff": "1"}]})
    code, out, _ = run_cli(["check-poisson", good])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["verdicts"]["holomorphic_poisson"] is True

    bad = write_doc(tmp_path, "bad.json", {
        "chart": {"kind": "complex", "n": 2},
        "pi": [{"frame": ["z1", "z2"], "coeff": "zb1"}]})
    code, out, _ = run_cli(["check-poisson", bad])
    assert code == 2
    report = json.loads(out)
    assert report["verdicts"]["dbar_zero"] is False


def test_malformed_json_is_input_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"chart": ', encoding="utf-8")
    code, out, err = run_cli(["check-poisson", str(path)])
    assert code == 1
    assert out == ""
    assert "line" in err and "column" in err


def test_unknown_field_rejected(tmp_path):
    doc = write_doc(tmp_path, "extra.json", {
        "chart": {"kind": "complex", "n": 1},
        "pi": [], "bogus": 1})
    code, out, err = run_cli(["check-poisson", doc])
    assert code == 1
    assert "bogus" in err


def test_chart_mismatch_is_input_error(tmp_path):
    doc = write_doc(tmp_path, "mismatch.json", {
        "chart": {"kind": "complex", "n": 1},
        "pi": [{"frame": ["z1", "z2"], "coeff": "1"}]})
    code, out, err = run_cli(["check-poisson", doc])
    assert code == 1


def test_structure_error_maps_to_exit_two(tmp_path):
    doc = write_doc(tmp_path, "nonpoisson.json", {
        "chart": {"kind": "complex", "n": 2},
        "pi": [{"frame": ["z1", "z2"], "coeff": "zb1"}]})
    code, out, err = run_cli(["cotangent", doc])
    assert code == 2
    report = json.loads(out)
    assert report["ok"] is False and "error" in report


def test_missing_point_flag(tmp_path):
    doc = write_doc(tmp_path, "pi.json", {
        "chart": {"kind": "complex", "n": 1}, "pi": []})
    code, _, err = run_cli(["foliation-rank", doc])
    assert code == 1
    assert "--point" in err


# a malformed command line is an input error: exit 1 with one message,
# not a usage dump and exit 2 (the verification-failure class); flags are
# matched exactly, so a prefix such as --max is not read as --max-degree,
# and an empty report or dump path is refused, not read as "none"
MALFORMED_COMMAND_LINES = [
    (["cohomology", "DOC", "--weight", "abc"],
     "--weight must be an integer, got 'abc'"),
    (["cohomology", "DOC", "--max", "2"],
     "cohomology takes no flag '--max'"),
    (["check-poisson", "DOC", "--weight", "1"],
     "check-poisson takes no flag '--weight'"),
    (["no-such-command", "DOC"], "unknown command 'no-such-command'"),
    ([], "no command given"),
    (["check-poisson"], "check-poisson takes one input path, got 0"),
    (["check-poisson", "DOC", "DOC"],
     "check-poisson takes one input path, got 2"),
    (["selftest", "DOC"], "selftest takes no input path, got 1"),
    (["cohomology", "DOC", "--weight"], "--weight needs a value"),
    (["cohomology", "DOC", "--dump-matrices", "--weight", "1"],
     "--dump-matrices needs a value"),
    (["check-poisson", "DOC", "-o", ""], "-o/--out must be a file path"),
    (["check-poisson", "DOC", "--out="], "-o/--out must be a file path"),
    (["cohomology", "DOC", "--weight", "1", "--dump-matrices="],
     "dump_matrices must be a directory path, got ''"),
]


@pytest.mark.parametrize("args, message", MALFORMED_COMMAND_LINES,
                         ids=[" ".join(a) or "empty"
                              for a, _ in MALFORMED_COMMAND_LINES])
def test_malformed_command_line_is_input_error(tmp_path, capsys, monkeypatch,
                                               args, message):
    from holopoisson import cli

    doc = write_doc(tmp_path, "pi.json", {
        "chart": {"kind": "complex", "n": 1}, "pi": []})
    monkeypatch.chdir(tmp_path)
    assert cli.main([doc if a == "DOC" else a for a in args]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"input error: {message}")
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == ["pi.json"]


def test_flag_forms_and_order_give_one_report(tmp_path, capsys):
    """--flag value, --flag=value and flags before the input path all read
    the same command line; the last of a repeated flag counts."""
    from holopoisson import cli

    doc = corpus_path("sl2.json")
    outs = []
    for args in (["cohomology", doc, "--weight", "1"],
                 ["cohomology", doc, "--weight=1"],
                 ["cohomology", "--weight", "1", doc],
                 ["cohomology", doc, "--weight", "0", "--weight=1",
                  "--method", "sparse"]):
        assert cli.main(args) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] and outs.count(outs[0]) == len(outs)


def test_help_lists_every_command_and_flag(capsys):
    from holopoisson import cli

    for args in (["--help"], ["-h"], ["cohomology", "--help"]):
        assert cli.main(args) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("usage: holopoisson COMMAND")
        commands = [line.split()[0] for line in out.splitlines()
                    if line.startswith("  ")]
        assert commands == [*cli.COMMANDS, "selftest"]
        for flag in ("--point POINT", "--weight WEIGHT",
                     "--max-degree MAX_DEGREE", "--method METHOD",
                     "--dump-matrices DUMP_MATRICES", "-o OUT"):
            assert flag in out


# ----------------------------------------------------------------------
# individual commands

def test_decompose_and_koszul_and_torsion(tmp_path):
    doc = write_doc(tmp_path, "pi.json", {
        "chart": {"kind": "complex", "n": 2},
        "pi": [{"frame": ["z1", "z2"], "coeff": "-1"}]})
    code, out, _ = run_cli(["decompose", doc])
    assert code == 0
    report = json.loads(out)
    assert report["data"]["pi_R"] == [
        {"frame": ["x1", "x2"], "coeff": "-1/4"},
        {"frame": ["y1", "y2"], "coeff": "1/4"}]

    kdoc = write_doc(tmp_path, "koszul.json", {
        "chart": {"kind": "complex", "n": 3},
        "pi": [{"frame": ["z1", "z2"], "coeff": "z3"}],
        "alpha": [{"frame": ["z1"], "coeff": "1"}],
        "beta": [{"frame": ["z2"], "coeff": "1"}]})
    code, out, _ = run_cli(["koszul", kdoc])
    assert code == 0
    assert json.loads(out)["data"]["bracket"] == [
        {"frame": ["z3"], "coeff": "1"}]

    tdoc = write_doc(tmp_path, "endo.json", {
        "chart": {"kind": "real", "n": 2},
        "endo": [["1", "x2", "0", "0"],
                 ["x1", "1", "0", "0"],
                 ["0", "0", "1", "0"],
                 ["0", "0", "0", "1"]]})
    code, out, _ = run_cli(["torsion", tdoc])
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["torsion_zero"] is False
    assert report["data"]["nonzero"]


def test_torsion_takes_the_lie_documents_j(tmp_path):
    """On a Lie algebra document with j, torsion is the Nijenhuis torsion
    of that j on the document's algebra, and a nonzero one fails the
    document (exit 2).  aff(1), [e1, e2] = e1, is not a complex Lie
    algebra for j = rotation, but every almost complex structure in real
    dimension 2 is integrable."""
    aff = write_doc(tmp_path, "aff1.json", {
        "lie_algebra": {"rank": 2, "brackets": [[1, 2, 1, "1"]],
                        "j": [["0", "-1"], ["1", "0"]]}})
    code, out, _ = run_cli(["torsion", aff])
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["torsion_zero"] is True
    assert report["data"] == {"nonzero": [], "rank": 2}

    with open(corpus_path("sl2_realified.json"), encoding="utf-8") as h:
        doc = json.load(h)
    rotation = [["0"] * 6 for _ in range(6)]
    for a in (0, 2, 4):
        rotation[a + 1][a], rotation[a][a + 1] = "1", "-1"
    doc["lie_algebra"]["j"] = rotation
    code, out, _ = run_cli(["torsion", write_doc(tmp_path, "rot.json", doc)])
    assert code == 2
    report = json.loads(out)
    assert report["ok"] is False
    assert report["verdicts"]["torsion_zero"] is False
    g = parse_liealgebra(doc["lie_algebra"])
    torsion = nijenhuis_torsion_algebroid(g.algebroid, g.j)
    assert len(torsion) == 12
    assert report["data"]["nonzero"] == [
        [i + 1, j + 1, [str(p) for p in vec]]
        for (i, j), vec in sorted(torsion.items())]

    # a j that does not square to -1 is no complex structure
    identity = write_doc(tmp_path, "identity.json", {
        "lie_algebra": {"rank": 2, "brackets": [[1, 2, 1, "1"]],
                        "j": [["1", "0"], ["0", "1"]]}})
    code, _, err = run_cli(["torsion", identity])
    assert code == 2
    assert "j^2 != -1" in err

    # a bracket that fails Jacobi is no Lie algebra, with or without j
    for j in (None, [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "1"]]):
        bad = write_doc(tmp_path, "bad.json", {
            "lie_algebra": {"rank": 3, "j": j,
                            "brackets": [[1, 2, 3, "1"], [2, 3, 2, "1"]]}})
        code, _, err = run_cli(["torsion", bad])
        assert code == 2
        assert "Jacobi" in err


def test_matched_pair_bowtie_yao_cotangent(tmp_path):
    doc = write_doc(tmp_path, "sl2like.json", {
        "lie_algebra": {"rank": 3,
                        "brackets": [[1, 2, 2, "2"], [1, 3, 3, "-2"],
                                     [2, 3, 1, "1"]],
                        "j": None}})
    for command in ("matched-pair", "bowtie", "yao-check", "cotangent",
                    "lie-poisson", "realparts-check"):
        code, out, _ = run_cli([command, doc])
        assert code == 0, command
        assert json.loads(out)["ok"] is True


def test_foliation_rank_point_parsing(tmp_path):
    doc = write_doc(tmp_path, "pi.json", {
        "chart": {"kind": "complex", "n": 2},
        "pi": [{"frame": ["z1", "z2"], "coeff": "z1"}]})
    code, out, _ = run_cli(["foliation-rank", doc, "--point", "1,0,-1/2,0"])
    assert code == 0
    report = json.loads(out)
    assert report["data"]["rank_R"] == report["data"]["rank_I"] == 4

    code, out, _ = run_cli(["foliation-rank", doc, "--point", "0,0,0,0"])
    assert json.loads(out)["data"]["rank_R"] == 0


def test_foliation_rank_refuses_a_point_off_the_real_chart():
    """A coordinate with an imaginary part is an input error, as a point
    of the wrong length is: exit 1, one line, no report."""
    code, out, err = run_cli(["foliation-rank", corpus_path("sl2.json"),
                              "--point", "i,1,0,2,3,1/3"])
    assert code == 1 and out == ""
    assert err.strip().splitlines() == [
        "input error: point coordinate 1 is not real: i"]


def test_cohomology_with_dump(tmp_path):
    doc = write_doc(tmp_path, "pi.json", {
        "chart": {"kind": "complex", "n": 1}, "pi": []})
    dump_dir = tmp_path / "mats"
    code, out, _ = run_cli(["cohomology", doc, "--max-degree", "2",
                            "--dump-matrices", str(dump_dir)])
    assert code == 0
    report = json.loads(out)
    assert report["data"]["blocks"][0]["total_betti"][0] == 3
    files = sorted(p.name for p in dump_dir.iterdir())
    assert files == ["d0.txt", "d1.txt", "d2.txt"]
    header = (dump_dir / "d0.txt").read_text().splitlines()[0]
    rows, cols, nnz = map(int, header.split())
    assert cols == 6  # six monomials of degree <= 2 in z, zb
    lines = (dump_dir / "d0.txt").read_text().splitlines()[1:]
    assert len(lines) == nnz
    for line in lines:
        i, j, value = line.split(maxsplit=2)
        assert 0 <= int(i) < rows and 0 <= int(j) < cols


def test_dump_writes_assemble_total(tmp_path, monkeypatch, capsys):
    """--dump-matrices writes the total matrices of assemble_total, one
    _dump_text file per label, and changes no report byte.  The report
    takes its own route: a weight-mode dump still ranks the reduced
    complex (_reduced_ranks), and a total-degree one the double complex."""
    from holopoisson import cli, cohomology
    from holopoisson.cli import _dump_text

    reduced = []
    reduced_ranks = cohomology._reduced_ranks

    def counting(*args):
        reduced.append(args)
        return reduced_ranks(*args)

    monkeypatch.setattr(cohomology, "_reduced_ranks", counting)
    for name, mode, flag, bound in (
            ("sl2.json", "weight", "--weight", 2),
            ("darboux_n1.json", "total_degree", "--max-degree", 2)):
        args = ["cohomology", corpus_path(name), flag, str(bound)]
        dump_dir = tmp_path / mode
        outs = []
        for extra in ([], ["--dump-matrices", str(dump_dir)]):
            reduced.clear()
            assert cli.main(args + extra) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1] == outs[0]
        assert bool(reduced) == (mode == "weight")
        mp = canonical_matched_pair(
            _doc_chart_pi(_load(corpus_path(name)), name)[1])
        want = {f"{label}.txt": _dump_text(matrix) for label, matrix in
                cohomology.assemble_total(mp,
                                          cohomology.Truncation(mode, bound))}
        assert len(want) == (3 * 7 if mode == "weight" else 5)
        assert {path.name: path.read_text(encoding="utf-8")
                for path in dump_dir.iterdir()} == want


def test_dump_builds_and_writes_one_matrix_at_a_time(tmp_path, monkeypatch,
                                                     capsys):
    """--dump-matrices builds each total matrix when it is written, after
    the report is made: builds and writes alternate, and no built matrix
    is alive while the next one is built.  assemble_total builds nothing
    when it is called, only when its iterator is advanced."""
    import weakref

    from holopoisson import cli, cohomology
    from holopoisson.linalg import SparseMatrix

    class Tracked(SparseMatrix):
        """A SparseMatrix that a weak reference can follow."""

    events = []
    alive = []
    total_matrix = cohomology._Block.total_matrix
    dump_text = cli._dump_text

    def building(block, degree, cell_matrices=None):
        events.append("build")
        assert not any(ref() is not None for ref in alive)
        built = total_matrix(block, degree, cell_matrices)
        matrix = Tracked.from_rows(built.nrows, built.ncols, built.row_dicts)
        alive.append(weakref.ref(matrix))
        return matrix

    def writing(matrix):
        events.append("write")
        return dump_text(matrix)

    monkeypatch.setattr(cohomology._Block, "total_matrix", building)
    monkeypatch.setattr(cli, "_dump_text", writing)
    for name, flag, bound, files, ranked in (
            ("sl2.json", "--weight", "2", 21, 0),
            ("darboux_n1.json", "--max-degree", "2", 5, 5)):
        events.clear()
        args = ["cohomology", corpus_path(name), flag, bound,
                "--dump-matrices", str(tmp_path / name)]
        assert cli.main(args) == 0
        capsys.readouterr()
        # the report first: a total-degree one ranks the double complex's
        # total matrices, a weight-mode one the reduced complex
        assert events == ["build"] * ranked + ["build", "write"] * files
        assert len(list((tmp_path / name).iterdir())) == files
    mp = canonical_matched_pair(
        _doc_chart_pi(_load(corpus_path("sl2.json")), "sl2.json")[1])
    events.clear()
    totals = cohomology.assemble_total(mp, cohomology.Truncation("weight", 2))
    assert events == []
    next(totals)
    assert events == ["build"]


def test_dump_above_budget_is_refused_before_any_rank(tmp_path, monkeypatch,
                                                      capsys):
    """A dump is the double complex's, so basis_size is its budget on
    every route: so4 at weight 5, whose report alone the reduced route
    would rank on 29 106 polyvectors, is refused (exit 1, one input error
    line) before any rank and with no dump file."""
    from holopoisson import cli, cohomology
    from holopoisson.linalg import SparseMatrix

    path = corpus_path("so4.json")
    mp = canonical_matched_pair(_doc_chart_pi(_load(path), "so4.json")[1])
    truncation = cohomology.Truncation("weight", 5)
    assert cohomology.basis_size(mp, truncation) > cohomology.MAX_BASIS
    c_b = cohomology.weight_exponents(mp)[1]
    assert cohomology._reduced_size(mp, 5, c_b) <= cohomology.MAX_BASIS

    def refuse(*args, **kwargs):
        raise AssertionError("ranked")

    monkeypatch.setattr(SparseMatrix, "rank", refuse)
    dump_dir = tmp_path / "mats"
    assert cli.main(["cohomology", path, "--weight", "5",
                     "--dump-matrices", str(dump_dir)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("input error: the truncation has 1661056 basis "
                          "elements")
    assert not dump_dir.exists() or not any(dump_dir.iterdir())


def test_dump_text_reads_the_entries_once():
    """A dump file is read off one entries dict: the property builds a new
    dict at each read, so a read per line made dumps quadratic."""
    from holopoisson.cli import _dump_text
    from holopoisson.exactalg import GQ
    from holopoisson.linalg import SparseMatrix

    class CountingMatrix(SparseMatrix):
        reads = 0

        @property
        def entries(self):
            CountingMatrix.reads += 1
            return SparseMatrix.entries.fget(self)

    matrix = CountingMatrix(3, 4, {(2, 3): "1/2", (0, 1): 1, (1, 0): GQ(0, 1),
                                   (0, 3): -2})
    assert _dump_text(matrix) == "3 4 4\n0 1 1\n0 3 -2\n1 0 i\n2 3 1/2\n"
    assert CountingMatrix.reads == 1


def test_unsupported_truncation_is_input_error(tmp_path):
    """A truncation the structure does not support is a bad request (exit
    1, message kept), not a failed verification."""
    code, out, err = run_cli(["cohomology", corpus_path("quadratic.json"),
                              "--max-degree", "1"])
    assert (code, out) == (1, "")
    assert "input error: differential escapes the truncated basis" in err
    inhomogeneous = write_doc(tmp_path, "pi.json", {
        "chart": {"kind": "complex", "n": 2},
        "pi": [{"frame": ["z1", "z2"], "coeff": "1 + z1"}]})
    code, out, err = run_cli(["cohomology", inhomogeneous, "--weight", "1"])
    assert (code, out) == (1, "")
    assert "input error: weight mode requires homogeneous structure" in err


def test_oversized_truncation_is_input_error():
    """A truncation is refused by counting its basis: exit 1 with one
    input error line.  The double complex of quadratic.json at weight 60
    ran past a minute; so4 at weight 10 is past the reduced route's
    count."""
    for name, args in (("quadratic.json", ["--weight", "60",
                                           "--method", "oracle"]),
                       ("so4.json", ["--weight", "10"])):
        code, out, err = run_cli(["cohomology", corpus_path(name), *args])
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("input error: the truncation has ")


def test_oversized_polynomial_input_is_input_error(tmp_path):
    """A coefficient above serialize.MAX_DEGREE, in any command's document,
    and a decompose whose parts could hold more than
    poisson.MAX_REAL_TERMS terms are refused before any work: exit 1 with
    one input error line, within seconds.  A coefficient at the degree
    budget is read."""
    from holopoisson.poisson import MAX_REAL_TERMS
    from holopoisson.serialize import MAX_DEGREE

    def doc(n, coeff):
        return write_doc(tmp_path, f"pi{len(os.listdir(tmp_path))}.json", {
            "chart": {"kind": "complex", "n": n},
            "pi": [{"frame": ["z1", "z2"], "coeff": coeff}]})

    over = f"a coefficient of degree {MAX_DEGREE + 1} is over the budget"
    # z^e on C^3 has (e + 1)^3 real monomials on each of 4 real frames
    e = 1
    while 4 * (e + 1) ** 3 <= MAX_REAL_TERMS:
        e += 1
    cases = [
        (["foliation-rank", doc(2, f"z1^{MAX_DEGREE + 1}"),
          "--point", "3,1,2,1"], over),
        (["check-poisson", doc(2, f"z1^{MAX_DEGREE} zb2 + 1")], over),
        (["torsion", write_doc(tmp_path, "endo.json", {
            "chart": {"kind": "real", "n": 1},
            "endo": [["0", f"x1^{MAX_DEGREE + 1}"], ["1", "0"]]})], over),
        (["decompose", doc(3, f"z1^{e} z2^{e} z3^{e}")],
         f"decompose: up to {4 * (e + 1) ** 3} terms on the real chart"),
    ]
    for args, message in cases:
        started = time.monotonic()
        code, out, err = run_cli(args)
        assert time.monotonic() - started < 10, args
        assert (code, out) == (1, ""), args
        assert err.startswith(f"input error: {message}"), err
        assert len(err.splitlines()) == 1, err
    code, out, _ = run_cli(["foliation-rank", doc(2, f"z1^{MAX_DEGREE}"),
                            "--point", "3,1,2,1"])
    assert code == 0 and json.loads(out)["ok"] is True


def test_cohomology_requires_truncation(tmp_path):
    doc = write_doc(tmp_path, "pi.json", {
        "chart": {"kind": "complex", "n": 1}, "pi": []})
    code, _, err = run_cli(["cohomology", doc])
    assert code == 1
    assert "--weight" in err or "--max-degree" in err


def test_negative_truncation_bound_is_input_error(tmp_path):
    doc = write_doc(tmp_path, "pi.json", {
        "chart": {"kind": "complex", "n": 1}, "pi": []})
    for flag in ("--weight", "--max-degree"):
        code, out, err = run_cli(["cohomology", doc, flag, "-1"])
        assert code == 1
        assert out == ""
        assert flag in err


MALFORMED = [
    ("lie-poisson", {"lie_algebra": {"rank": 2, "brackets": 5}}),
    ("lie-poisson", {"lie_algebra": {"rank": 2, "brackets": [],
                                     "j": [5, 6]}}),
    ("check-poisson", {"chart": {"kind": "complex", "n": True}, "pi": []}),
    ("lie-poisson", {"lie_algebra": {"rank": True, "brackets": []}}),
    ("lie-poisson", {"lie_algebra": {"rank": 2,
                                     "brackets": [[True, 2, 1, "1"]]}}),
]
# pn-check on a complex chart checks the standard J and takes no endo; a
# lie_algebra next to the chart-based keys would leave one of them unread
ABELIAN = {"rank": 2, "brackets": []}
UNREAD_KEYS = [
    ("pn-check", {"chart": {"kind": "complex", "n": 1}, "pi": [],
                  "endo": "garbage"}),
    ("check-poisson", {"chart": {"kind": "complex", "n": 2},
                       "pi": [{"frame": ["z1", "z2"], "coeff": "zb1"}],
                       "lie_algebra": ABELIAN}),
    ("torsion", {"chart": {"kind": "real", "n": 1},
                 "endo": [["0", "-1"], ["1", "0"]], "lie_algebra": ABELIAN}),
]
# both truncations at once, as JobSpec options and as flags
BOTH_TRUNCATIONS = {"weight": 1, "max_degree": 1}
BOTH_TRUNCATION_FLAGS = ["--weight", "1", "--max-degree", "1"]
MALFORMED_JOB_OPTIONS = [{"weight": 1.9}, {"weight": True},
                         {"max_degree": [1]},
                         {"weight": 0, "dump_matrices": 5},
                         {"weight": 0, "out": "report.json"},
                         BOTH_TRUNCATIONS]
MALFORMED_FLAGS = [("cohomology", {"chart": {"kind": "complex", "n": 1},
                                   "pi": []}, BOTH_TRUNCATION_FLAGS)]
# a JobSpec takes only the options its command reads (COMMAND_OPTIONS), as
# the command line takes only its flags; and a dump path is never empty
UNREAD_JOB_OPTIONS = [
    ("check-poisson", {"weight": 2, "method": "bogus", "point": "x"}),
    ("selftest", {"weight": 2}),
    ("cohomology", {"weight": 0, "dump_matrices": ""}),
]
# cohomology reads its options before the structure: a malformed request
# on a bivector that is not holomorphic Poisson is an input error, not
# the failed precondition of the cotangent algebroid
ANTIHOLOMORPHIC = {"chart": {"kind": "complex", "n": 2},
                   "pi": [{"frame": ["z1", "z2"], "coeff": "zb1"}]}
OPTIONS_BEFORE_STRUCTURE = [
    ("cohomology", ANTIHOLOMORPHIC, ["--weight", "-1"]),
    ("cohomology", ANTIHOLOMORPHIC, ["--weight", "1", "--method", "bogus"]),
]
# a chart over n = 16 or a Lie algebra over rank 16 is refused before any
# object is built: no OverflowError, MemoryError or minutes of work
OVER_BUDGET = [
    ("check-poisson", {"chart": {"kind": "complex", "n": 10 ** 40},
                       "pi": []}),
    ("yao-check", {"chart": {"kind": "complex", "n": 17}, "pi": []}),
    ("pn-check", {"chart": {"kind": "real", "n": 17}, "pi": [],
                  "endo": []}),
    ("lie-poisson", {"lie_algebra": {"rank": 17, "brackets": []}}),
    ("realparts-check", {"lie_algebra": {"rank": 400, "brackets": []}}),
]


@pytest.mark.parametrize("command, doc, options",
                         [(c, d, None) for c, d in MALFORMED]
                         + [("cohomology", None, o)
                            for o in MALFORMED_JOB_OPTIONS]
                         + MALFORMED_FLAGS
                         + [(c, d, None) for c, d in UNREAD_KEYS]
                         + [(c, None, o) for c, o in UNREAD_JOB_OPTIONS]
                         + OPTIONS_BEFORE_STRUCTURE
                         + [(c, d, None) for c, d in OVER_BUDGET])
def test_malformed_input_is_input_error(tmp_path, command, doc, options):
    """Non-list brackets or j rows, bools and floats where an integer is
    due, an endo matrix for pn-check on a complex chart (which checks the
    standard J), a lie_algebra next to a chart, a dump directory that is
    not a path or is empty, a JobSpec ``out`` that nothing would write, a
    JobSpec option its command does not read, both --weight and
    --max-degree, a malformed cohomology request on a structure that is
    not holomorphic Poisson, a chart or Lie algebra over its budget: exit
    1 with an input error, never a traceback.
    JobSpec options (a dict) have no command-line route, so those cases
    check for the ParseError that main() reports as an input error; a
    list of options is flags."""
    if isinstance(options, dict):
        with pytest.raises(ParseError) as info:
            run_job({"command": command, "options": options,
                     "input": {"chart": {"kind": "complex", "n": 1},
                               "pi": []}})
        message = str(info.value)
    else:
        code, out, err = run_cli([command,
                                  write_doc(tmp_path, "bad.json", doc)]
                                 + (options or []))
        assert code == 1
        assert out == ""
        assert err.startswith("input error:")
        assert "Traceback" not in err
        message = err
    if options in (BOTH_TRUNCATIONS, BOTH_TRUNCATION_FLAGS):
        assert "--weight" in message and "--max-degree" in message
    if doc is not None and "lie_algebra" in doc and "chart" in doc:
        assert "'lie_algebra'" in message and "'chart'" in message
    if (command, doc) in OVER_BUDGET:
        assert "over the budget of 16" in message


C1 = {"kind": "complex", "n": 1}
ONE_FORM = [{"frame": ["z1"], "coeff": "1"}]
MISSING_KEY = [
    ("koszul", {"chart": C1, "pi": [], "alpha": ONE_FORM}, "beta"),
    ("koszul", {"chart": C1, "pi": [], "beta": ONE_FORM}, "alpha"),
    ("koszul", {"chart": C1, "alpha": ONE_FORM, "beta": ONE_FORM}, "pi"),
    ("check-poisson", {"chart": C1}, "pi"),
    ("check-poisson", {"chart": {"kind": "complex", "n": 2},
                       "pi": [{"frame": ["z1", "z2"]}]}, "coeff"),
    ("pn-check", {"chart": {"kind": "real", "n": 1},
                  "endo": [["0", "-1"], ["1", "0"]]}, "pi"),
    ("lie-poisson", {"lie_algebra": {"rank": 2}}, "brackets"),
    ("torsion", {"lie_algebra": {"rank": 2}}, "brackets"),
    ("lie-poisson", {}, "lie_algebra"),
    ("realparts-check", {}, "lie_algebra"),
    ("torsion", {"chart": {"kind": "real", "n": 1}}, "endo"),
]


@pytest.mark.parametrize("command, doc, key", MISSING_KEY,
                         ids=[f"{c}-{k}" for c, _, k in MISSING_KEY])
def test_missing_key_is_input_error(tmp_path, command, doc, key):
    """A missing pi, alpha, beta, endo, lie_algebra, brackets or component
    coeff is an input error, not the zero bivector, form or coefficient or
    the abelian algebra."""
    code, out, err = run_cli([command, write_doc(tmp_path, "doc.json", doc)])
    assert code == 1
    assert out == ""
    assert err.startswith("input error:")
    assert f"missing field {key!r}" in err


def test_empty_brackets_are_the_abelian_algebra(tmp_path):
    """An explicit "brackets": [] stays valid input."""
    doc = write_doc(tmp_path, "abelian.json",
                    {"lie_algebra": {"rank": 2, "brackets": []}})
    code, out, _ = run_cli(["lie-poisson", doc])
    assert code == 0
    assert json.loads(out)["data"]["pi"] == []
    code, out, _ = run_cli(["torsion", doc])
    assert code == 0
    assert json.loads(out)["verdicts"]["torsion_zero"] is True


LIE_CORPUS = [name for name in corpus()
              if "lie_algebra" in _load(corpus_path(name))]


def test_lie_poisson_is_check_poisson_of_a_lie_document():
    """On every corpus Lie-algebra document (sl2_realified.json with its
    j among them) lie-poisson gives check-poisson's report, exit code and
    all, apart from the command key."""
    assert "sl2_realified.json" in LIE_CORPUS
    for name in LIE_CORPUS:
        doc = _load(corpus_path(name))
        lie, lie_code = run_job({"command": "lie-poisson", "input": doc})
        check, check_code = run_job({"command": "check-poisson",
                                     "input": doc})
        assert lie.pop("command") == "lie-poisson"
        assert check.pop("command") == "check-poisson"
        assert (lie, lie_code) == (check, check_code), name


def test_pn_check_of_non_poisson_bivector_fails(tmp_path):
    doc = write_doc(tmp_path, "pi.json", {
        "chart": {"kind": "complex", "n": 3},
        "pi": [{"frame": ["z1", "z2"], "coeff": "z1"},
               {"frame": ["z1", "z3"], "coeff": "z2"}]})
    code, out, _ = run_cli(["pn-check", doc])
    assert code == 2
    verdicts = json.loads(out)["verdicts"]
    assert verdicts["schouten_zero"] is False
    assert verdicts["poisson_nijenhuis"] is False


def _frames(*pairs):
    return [{"coeff": coeff, "frame": [frame]} for frame, coeff in pairs]


# Chart documents with an endo matrix or with the 1-forms of koszul, which
# no corpus document has, and the exact report each prints: torsion on a
# real and on a complex chart with nonzero torsion, pn-check with mixed
# verdicts (pi = x1 dx1^dy1 is Poisson on R^2, but N neither intertwines
# nor is torsion free), and koszul of a non-Poisson pi on C^2 with zb in
# its coefficients and in both forms, on R^2, and with a zero bracket.
# The reports are compared as canonical JSON text, byte for byte.
PINNED_REPORTS = [
    ("torsion", {
        "chart": {"kind": "real", "n": 2},
        "endo": [["1", "x2", "0", "0"], ["x1", "1", "0", "0"],
                 ["0", "0", "y1", "0"], ["0", "0", "x1 y2", "1"]]},
     {"data": {"chart": {"kind": "real", "n": 2},
                  "nonzero": [["x1", "x2", _frames(("x1", "x1"),
                                                   ("x2", "-x2"))],
                              ["x2", "y1", _frames(("y2", "x2 y2"))]]},
         "ok": True, "verdicts": {"torsion_zero": False}}, 0),
    ("torsion", {
        "chart": {"kind": "complex", "n": 1},
        "endo": [["z1", "zb1"], ["z1 zb1", "1"]]},
     {"data": {"chart": {"kind": "complex", "n": 1},
                  "nonzero": [["z1", "zb1",
                               _frames(("z1", "2 z1 zb1 + -zb1"),
                                       ("zb1", "-zb1^2"))]]},
         "ok": True, "verdicts": {"torsion_zero": False}}, 0),
    ("pn-check", {
        "chart": {"kind": "real", "n": 1},
        "pi": [{"frame": ["x1", "y1"], "coeff": "x1"}],
        "endo": [["x1", "0"], ["y1^2", "x1 y1"]]},
     {"data": {"chart": {"kind": "real", "n": 1}},
         "ok": False, "verdicts": {"koszul_compat": False,
                                   "poisson_nijenhuis": False,
                                   "schouten_zero": True,
                                   "sharp_intertwine": False,
                                   "torsion_zero": False}}, 2),
    ("koszul", {
        "chart": {"kind": "complex", "n": 2},
        "pi": [{"frame": ["z1", "z2"], "coeff": "z1 zb2"},
               {"frame": ["z2", "zb1"], "coeff": "z1"},
               {"frame": ["z1", "zb2"], "coeff": "zb1"}],
        "alpha": _frames(("z1", "zb1"), ("zb2", "z2")),
        "beta": _frames(("z2", "z1 zb1"), ("zb1", "1"))},
     {"data": {"bracket": _frames(("z1", "z1 zb1^2 zb2 + -z1^2 zb1"),
                                  ("z2", "-z2 zb1^2"),
                                  ("zb2", "z1^2 zb1^2 + z1"))},
      "ok": True, "verdicts": {}}, 0),
    ("koszul", {
        "chart": {"kind": "real", "n": 2},
        "pi": [{"frame": ["x1", "x2"], "coeff": "x1"},
               {"frame": ["x2", "y2"], "coeff": "y1"},
               {"frame": ["x1", "y1"], "coeff": "x2"}],
        "alpha": _frames(("x1", "x2"), ("y1", "1")),
        "beta": _frames(("x2", "y2"), ("y2", "x1"))},
     {"data": {"bracket": _frames(("x1", "x1 y1 + x2 y2"), ("y2", "-x2"))},
      "ok": True, "verdicts": {}}, 0),
    ("koszul", {
        "chart": {"kind": "real", "n": 1},
        "pi": [{"frame": ["x1", "y1"], "coeff": "1"}],
        "alpha": _frames(("x1", "1")),
        "beta": _frames(("y1", "1"))},
     {"data": {"bracket": []}, "ok": True, "verdicts": {}}, 0),
]


@pytest.mark.parametrize("command,doc,report,want_code", PINNED_REPORTS,
                         ids=["torsion-real", "torsion-complex",
                              "pn-check-real", "koszul-complex",
                              "koszul-real", "koszul-zero"])
def test_chart_endo_reports_are_pinned(tmp_path, command, doc, report,
                                       want_code):
    path = write_doc(tmp_path, "endo.json", doc)
    code, out, _ = run_cli([command, path])
    want = dict(report, command=command, input="endo.json")
    assert code == want_code
    assert out == json.dumps(want, sort_keys=True, indent=2) + "\n"


# ROADMAP item 11's fuzz: one node of a document deleted or replaced.  The
# corpus has no endo and no 1-forms, so the pinned chart documents are
# added, for parse_endo, real-chart pn-check, chart torsion and koszul.
FUZZ_DOCUMENTS = ([_load(corpus_path(name)) for name in corpus()]
                  + [doc for _, doc, _, _ in PINNED_REPORTS])
DELETE = "(delete)"
FUZZ_VALUES = [DELETE, None, True, 2 ** 70, "", "z0", "z99", "1/0", "1e3",
               [], 1.5]


def node_paths(node, path=()):
    """The path of every dict value and list entry under node, but not
    under "expected", which no command reads."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    return [p for key, value in items if key != "expected"
            for p in [path + (key,)] + node_paths(value, path + (key,))]


@settings(max_examples=200, deadline=5000)
@given(st.data())
def test_a_mutated_document_gives_a_report_or_a_known_error(data):
    """Every command returns a report or raises one of INPUT_ERRORS and
    VERIFY_ERRORS, within the deadline; cohomology runs at weight 1 and
    foliation-rank at a point of the unmutated document's dimension."""
    doc = data.draw(st.sampled_from(FUZZ_DOCUMENTS))
    *path, last = data.draw(st.sampled_from(node_paths(doc)))
    value = data.draw(st.sampled_from(FUZZ_VALUES))
    bad = copy.deepcopy(doc)
    parent = functools.reduce(operator.getitem, path, bad)
    if value == DELETE:
        del parent[last]
    else:
        parent[last] = value
    n = doc["chart"]["n"] if "chart" in doc else doc["lie_algebra"]["rank"]
    options = {"cohomology": {"weight": 1},
               "foliation-rank": {"point": ",".join(["1"] * (2 * n))}}
    for command in COMMANDS:
        try:
            report, code = run_job({"command": command, "input": bad,
                                    "options": options.get(command, {})})
        except INPUT_ERRORS + VERIFY_ERRORS:
            continue
        assert code in (0, 2) and report["command"] == command


def test_methods_agree_via_cli(tmp_path):
    doc = write_doc(tmp_path, "sl2.json", {
        "lie_algebra": {"rank": 3,
                        "brackets": [[1, 2, 2, "2"], [1, 3, 3, "-2"],
                                     [2, 3, 1, "1"]],
                        "j": None}})
    _, sparse_out, _ = run_cli(["cohomology", doc, "--weight", "2"])
    _, oracle_out, _ = run_cli(["cohomology", doc, "--weight", "2",
                                "--method", "oracle"])
    sparse = json.loads(sparse_out)
    oracle = json.loads(oracle_out)
    assert sparse["data"]["blocks"] == oracle["data"]["blocks"]


# ----------------------------------------------------------------------
# determinism

def test_reports_are_byte_identical_across_runs(tmp_path):
    doc = write_doc(tmp_path, "sl2.json", {
        "lie_algebra": {"rank": 3,
                        "brackets": [[1, 2, 2, "2"], [1, 3, 3, "-2"],
                                     [2, 3, 1, "1"]],
                        "j": None}})
    outs = set()
    for _ in range(2):
        code, out, _ = run_cli(["cohomology", doc, "--weight", "2"])
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_dumped_matrices_are_byte_identical_across_runs(tmp_path):
    doc = write_doc(tmp_path, "pi.json", {
        "chart": {"kind": "complex", "n": 2},
        "pi": [{"frame": ["z1", "z2"], "coeff": "-1"}]})
    runs = set()
    for run in range(2):
        dump_dir = tmp_path / f"mats{run}"
        code, out, _ = run_cli(["cohomology", doc, "--max-degree", "1",
                                "--dump-matrices", str(dump_dir)])
        assert code == 0
        dumps = tuple((p.name, p.read_bytes())
                      for p in sorted(dump_dir.iterdir()))
        runs.add((out, dumps))
    assert len(runs) == 1


def test_oracle_reports_are_byte_identical_across_runs(tmp_path):
    doc = write_doc(tmp_path, "pi.json", {
        "chart": {"kind": "complex", "n": 1}, "pi": []})
    outputs = set()
    for _ in range(2):
        code, out, _ = run_cli(["cohomology", doc, "--weight", "1",
                                "--method", "oracle"])
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_output_file_matches_stdout(tmp_path):
    doc = write_doc(tmp_path, "pi.json", {
        "chart": {"kind": "complex", "n": 2},
        "pi": [{"frame": ["z1", "z2"], "coeff": "1"}]})
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(["check-poisson", doc, "-o", str(out_path)])
    assert code == 0
    code, stdout, _ = run_cli(["check-poisson", doc])
    assert out_path.read_text() == stdout


@pytest.mark.parametrize("command, coeff, branch", [
    ("check-poisson", "1", "report"),
    ("cotangent", "zb1", "verification failure"),
])
def test_unwritable_output_file_is_input_error(tmp_path, command, coeff,
                                               branch):
    """-o into a missing directory, after a report and after a
    verification failure: exit 1 with a message, no traceback."""
    doc = write_doc(tmp_path, "pi.json", {
        "chart": {"kind": "complex", "n": 2},
        "pi": [{"frame": ["z1", "z2"], "coeff": coeff}]})
    out_path = tmp_path / "missing" / "report.json"
    code, stdout, stderr = run_cli([command, doc, "-o", str(out_path)])
    assert code == 1, branch
    assert stderr.startswith("input error: "), stderr
    assert "Traceback" not in stderr and stdout == ""
    assert not out_path.exists()


# ----------------------------------------------------------------------
# the process entry: run() ends the process with os._exit once main() has
# returned, so a process must give exactly what main() gives in process

ELAPSED = re.compile(r"^elapsed: \d+\.\d+s$", re.M)
ROUTES = {
    "run": "from holopoisson.cli import run; run()",
    "sys.exit(main())": ("import sys; from holopoisson.cli import main; "
                         "sys.exit(main())"),
}


def entry_env(unbuffered=None):
    """The environment of a CLI process that may run in any directory:
    the package's parent on PYTHONPATH as an absolute path, and, unless
    unbuffered is None, PYTHONUNBUFFERED set or removed."""
    package = os.path.dirname(os.path.abspath(holopoisson.__file__))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    return env


def files_under(root):
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def in_process(args, capsys):
    from holopoisson import cli

    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out.encode("utf-8"), err


def as_a_process(entry, args, cwd):
    proc = subprocess.run([sys.executable, *entry, *args], cwd=cwd,
                          env=entry_env(), capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr.decode("utf-8")


def into_closed_pipe(argv, unbuffered):
    """(exit code, stderr) of argv with stdout a pipe whose read end is
    closed; the elapsed figure is masked."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE,
                              env=entry_env(unbuffered))
    finally:
        os.close(write)
    return proc.returncode, ELAPSED.sub("elapsed", proc.stderr.decode())


NON_POISSON = {"chart": {"kind": "complex", "n": 3},
               "pi": [{"frame": ["z1", "z2"], "coeff": "z1"},
                      {"frame": ["z1", "z3"], "coeff": "z2"}]}
# (command line, the input document IN or None, exit code); paths of the
# files a command writes are relative, so each side writes into its own
# working directory
PROCESS_ENTRY_CASES = {
    "ok": (["check-poisson", corpus_path("quadratic.json")], None, 0),
    "malformed": (["check-poisson", "IN"], '{"chart": ', 1),
    "not-poisson": (["check-poisson", "IN"], json.dumps(NON_POISSON), 2),
    "help": (["--help"], None, 0),
    "out-file": (["cohomology", corpus_path("sl2.json"), "--weight", "2",
                  "-o", "report.json"], None, 0),
    "dump": (["cohomology", corpus_path("sl2.json"), "--weight", "1",
              "--dump-matrices", "mats"], None, 0),
}


@pytest.mark.parametrize("case", PROCESS_ENTRY_CASES)
def test_process_entry_matches_main_in_process(tmp_path, monkeypatch,
                                               capsys, case):
    """python -m holopoisson.cli gives main()'s exit code, stdout bytes,
    stderr (up to the elapsed figure) and written files, and every file
    it writes is complete."""
    args, text, want = PROCESS_ENTRY_CASES[case]
    if text is not None:
        (tmp_path / "in.json").write_text(text, encoding="utf-8")
    args = [str(tmp_path / "in.json") if a == "IN" else a for a in args]
    process_dir, main_dir = tmp_path / "process", tmp_path / "main"
    process_dir.mkdir()
    main_dir.mkdir()
    process = as_a_process(["-m", "holopoisson.cli"], args, process_dir)
    monkeypatch.chdir(main_dir)
    main = in_process(args, capsys)
    assert process[0] == main[0] == want
    assert process[1] == main[1]
    assert ELAPSED.sub("elapsed", process[2]) == \
        ELAPSED.sub("elapsed", main[2])
    files = files_under(process_dir)
    assert files == files_under(main_dir)
    if case == "out-file":
        assert json.loads(files["report.json"])["ok"] is True
        assert files["report.json"].endswith(b"}\n")
    if case == "dump":
        assert files and all(name.startswith("mats") for name in files)
        for name, data in files.items():
            lines = data.decode().splitlines()
            assert data.endswith(b"\n")
            assert len(lines) == 1 + int(lines[0].split()[2]), name


def test_console_script_target_matches_main_in_process(tmp_path, capsys):
    """The holopoisson script's target, cli.run, gives what main() gives."""
    args = ["realparts-check", corpus_path("sl2.json")]
    code, out, err = as_a_process(["-c", ROUTES["run"]], args, tmp_path)
    assert (code, out) == in_process(args, capsys)[:2]
    assert code == 0 and err.startswith("elapsed: ")


def test_commands_make_no_reference_cycles(capsys):
    """run() turns the cyclic garbage collector off, which frees nothing
    less only while the commands make no reference cycles: with the
    collector off, what a command leaves to it is the same few objects
    (the stdlib JSON encoder's) for a small and a larger cohomology block
    and a structural check."""
    from holopoisson import cli

    cases = [["cohomology", corpus_path("sl2.json"), "--weight", "2"],
             ["cohomology", corpus_path("sl2.json"), "--weight", "5"],
             ["check-poisson", corpus_path("quadratic.json")]]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    counts = []
    try:
        for args in cases:
            assert cli.main(args) == 0
            counts.append(gc.collect())
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()
    assert counts[0] == counts[1] == counts[2], counts


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [
    ["check-poisson", corpus_path("quadratic.json")],
    ["cohomology", corpus_path("sl2.json"), "--weight", "2"],
], ids=["short-report", "long-report"])
def test_closed_stdout_ends_as_main_returning(args, unbuffered):
    """A report into a closed pipe is an input error on both routes,
    buffered or not, short or long: one line on stderr and exit 1, with
    no failed flush at interpreter exit."""
    ends = {route: into_closed_pipe([sys.executable, "-c", code, *args],
                                    unbuffered)
            for route, code in ROUTES.items()}
    assert ends["run"] == ends["sys.exit(main())"]
    code, err = ends["run"]
    assert code == 1
    assert err == "input error: [Errno 32] Broken pipe\n", err


def test_help_into_closed_stdout_is_input_error():
    """--help whose write fails is an input error like a report's: one
    line on stderr, exit 1, no traceback."""
    code, err = into_closed_pipe(
        [sys.executable, "-m", "holopoisson.cli", "--help"], True)
    assert code == 1
    assert err.startswith("input error: ") and err.count("\n") == 1, err


# ----------------------------------------------------------------------
# corpus and selftest

def test_corpus_lists_bundled_files():
    names = corpus()
    assert "sl2.json" in names and "zero.json" in names
    assert "antiholomorphic.json" in names
    for name in names:
        with open(corpus_path(name), encoding="utf-8") as handle:
            json.load(handle)


def test_selftest_passes():
    code, out, _ = run_cli(["selftest"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert set(report["files"]) == set(corpus())


def test_run_job_validates_schema():
    with pytest.raises(ParseError):
        run_job({"command": "no-such-command"})
    with pytest.raises(ParseError):
        run_job({"command": "check-poisson", "bogus_field": 1})
    with pytest.raises(ParseError):
        run_job({"command": "check-poisson",
                 "input": {"chart": {"kind": "complex", "n": 1}, "pi": []},
                 "options": {"nonsense": True}})


def test_run_job_inline_input():
    report, code = run_job({
        "command": "check-poisson",
        "input": {"chart": {"kind": "complex", "n": 2},
                  "pi": [{"frame": ["z1", "z2"], "coeff": "1"}]},
        "options": {}})
    assert code == 0 and report["ok"] is True


def test_run_job_unknown_method_is_input_error():
    with pytest.raises(ParseError, match="method"):
        run_job({"command": "cohomology",
                 "input": {"chart": {"kind": "complex", "n": 1}, "pi": []},
                 "options": {"weight": 1, "method": "bogus"}})
    assert ParseError in INPUT_ERRORS and ParseError not in VERIFY_ERRORS
    # a truncation the structure does not support is the request's fault:
    # run_job raises it as it is, and main reports it as an input error
    assert TruncationError in INPUT_ERRORS
    assert TruncationError not in VERIFY_ERRORS


# ----------------------------------------------------------------------
# serialization round trips

def test_component_serialization_roundtrip():
    chart = Chart.complex(2)
    entries = [{"frame": ["z1", "zb2"], "coeff": "(-1/2+3i) z1^2 + zb1"},
               {"frame": ["zb1", "zb2"], "coeff": "2"}]
    mv = parse_alternating(chart, entries, 2, Multivector)
    assert parse_alternating(chart, alternating_dict(mv), 2,
                             Multivector) == mv


def test_chart_parse_rejects_unknown_kind():
    with pytest.raises(ParseError):
        parse_chart({"kind": "quaternionic", "n": 1})
