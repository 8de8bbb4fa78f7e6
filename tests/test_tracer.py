"""The benchmark's span tracer still runs the cohomology route.

bench/tracer.py wraps _Block.cell_matrix and _Block.total_matrix by name
and re-ranks every sparse matrix with the dense oracle, so a change to
their signatures or to the matrices they return shows here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from holopoisson.cli import corpus_path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_runs_cohomology(tmp_path):
    """Weight mode ranks cell matrices of the reduced complex only;
    total-degree mode builds the double complex's total matrices too."""
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for args, spans in (
            (["sl2.json", "--weight", "2"], {"cohomology.cell_matrix"}),
            (["darboux_n1.json", "--max-degree", "2"],
             {"cohomology.cell_matrix", "cohomology.total_matrix"})):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "tracer.py"),
             str(spans_path), "cohomology", corpus_path(args[0]),
             *args[1:]],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        trace = json.loads(spans_path.read_text(encoding="utf-8"))
        names = {span[0] for span in trace["spans"]}
        assert spans <= names
        assert trace["stats"]["matrices"] > 0
        assert trace["stats"]["rank_mismatches"] == 0
