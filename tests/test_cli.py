import json
import subprocess
import sys

import pytest

from holopoisson.cli import (
    INPUT_ERRORS,
    VERIFY_ERRORS,
    corpus,
    corpus_path,
    run_job,
)
from holopoisson.errors import ParseError
from holopoisson.exactalg import Chart
from holopoisson.serialize import (
    alternating_dict,
    parse_alternating,
    parse_chart,
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


def test_dump_builds_each_cell_matrix_once(tmp_path, monkeypatch, capsys):
    """--dump-matrices writes the total matrices that betti ranks, so it
    builds no cell matrix twice."""
    from holopoisson import cli, cohomology

    calls = []
    original = cohomology._Block.cell_matrix

    def counting(self, cell, direction):
        calls.append((self.weight, cell, direction))
        return original(self, cell, direction)

    monkeypatch.setattr(cohomology._Block, "cell_matrix", counting)
    args = ["cohomology", corpus_path("sl2.json"), "--weight", "2"]
    counts, outs = [], []
    for extra in ([], ["--dump-matrices", str(tmp_path / "mats")]):
        calls.clear()
        assert cli.main(args + extra) == 0
        outs.append(capsys.readouterr().out)
        counts.append(list(calls))
    assert counts[0] and counts[1] == counts[0]
    assert outs[1] == outs[0]
    assert sorted(p.name for p in (tmp_path / "mats").iterdir()) == [
        f"w{w}_d{d}.txt" for w in range(3) for d in range(7)]


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
MALFORMED_JOB_OPTIONS = [{"weight": 1.9}, {"weight": True},
                         {"max_degree": [1]},
                         {"weight": 0, "dump_matrices": 5},
                         {"weight": 0, "out": "report.json"}]


@pytest.mark.parametrize("command, doc, options",
                         [(c, d, None) for c, d in MALFORMED]
                         + [("cohomology", None, o)
                            for o in MALFORMED_JOB_OPTIONS])
def test_malformed_input_is_input_error(tmp_path, command, doc, options):
    """Non-list brackets or j rows, bools and floats where an integer is
    due, a dump directory that is not a path, a JobSpec ``out`` that
    nothing would write: exit 1 with an input error, never a traceback.
    JobSpec options have no command-line route, so those cases check for
    the ParseError that main() reports as an input error."""
    if options is not None:
        with pytest.raises(ParseError):
            run_job({"command": command, "options": options,
                     "input": {"chart": {"kind": "complex", "n": 1},
                               "pi": []}})
        return
    code, out, err = run_cli([command, write_doc(tmp_path, "bad.json", doc)])
    assert code == 1
    assert out == ""
    assert err.startswith("input error:")
    assert "Traceback" not in err


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


# ----------------------------------------------------------------------
# serialization round trips

def test_component_serialization_roundtrip():
    chart = Chart.complex(2)
    entries = [{"frame": ["z1", "zb2"], "coeff": "(-1/2+3i) z1^2 + zb1"},
               {"frame": ["zb1", "zb2"], "coeff": "2"}]
    mv = parse_alternating(chart, entries, 2, "vector")
    assert parse_alternating(chart, alternating_dict(mv), 2, "vector") == mv


def test_chart_parse_rejects_unknown_kind():
    with pytest.raises(ParseError):
        parse_chart({"kind": "quaternionic", "n": 1})
