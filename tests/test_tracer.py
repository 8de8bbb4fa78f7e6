"""The benchmark's span tracer still runs the cohomology route.

bench/tracer.py wraps _Block.cell_matrix and _Block.total_matrix by name
and re-ranks every sparse matrix with the dense oracle, so a change to
their signatures or to the matrices they return shows here first; and
every function or method it names must still exist.
"""

import importlib
import importlib.util
import inspect
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


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _resolves(label):
    """Whether label, module.name, names a function of holopoisson.module
    or a method of one of its classes."""
    module_name, name = label.split(".")
    module = importlib.import_module(f"holopoisson.{module_name}")
    if inspect.isfunction(getattr(module, name, None)):
        return True
    return any(inspect.isfunction(vars(cls).get(name))
               for cls in vars(module).values() if inspect.isclass(cls)
               and cls.__module__ == module.__name__)


def test_traced_names_exist():
    """Every name whose span the tracer reads is a function or method the
    package still has: a metric of a name that left the call path reads 0
    with nothing to show it.  PARTIALS is left out: partial_A and
    partial_B left src/ for tests/oracles.py, so the partial_calls metrics
    read 0 (an open FOUND in CHANGES.md, whose fix is in bench/)."""
    tracer = _load_tracer()
    names = [*tracer.PER_LAYER_SELF, tracer.RANK, tracer.CELL, tracer.TOTAL,
             "cohomology.build_block"]
    assert [name for name in names if not _resolves(name)] == []
    assert not _resolves("cohomology.no_such_function")
