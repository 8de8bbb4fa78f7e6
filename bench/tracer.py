"""Span tracing of holopoisson from the outside.

Child side (run with the checkout's ``src`` on PYTHONPATH):

    python3 bench/tracer.py SPANS.json COMMAND ARGS...

imports the package, wraps each module's public functions (rebinding the
names other modules imported, and the CLI's command table) plus three
methods (``SparseMatrix.rank``, ``_Block.cell_matrix``,
``_Block.total_matrix``), runs ``holopoisson.cli.main`` on the arguments
and writes every span (name, start, end, parent) to SPANS.json at exit.

Each sparse rank is also recomputed by the untouched dense route
(``linalg.dense_rank``) and the matrix's size is measured; that time runs
on a paused span clock, so no span includes it, and it is reported on its
own (``linalg.rank_oracle_s``).

Parent side: ``load`` and ``layer_metrics`` turn span files into the
per-layer metrics.  A span's *layer self time* is its duration minus the
time of the descendants it reached through other modules' spans; so a
``cell_matrix`` span keeps the ``partial_A`` calls it makes (same layer)
and loses the time spent in, say, multivec.
"""

from __future__ import annotations

import json
import sys
import time

LAYERS = ["exactalg", "multivec", "poisson", "algebroid", "linalg",
          "cohomology", "serialize", "cli"]

# Index and formatting helpers called once per term: a span each would
# cost more than the work it times.  Their time stays with the caller.
SKIP = {"multivec.merge_indices", "multivec.insert_index",
        "exactalg.format_gq", "exactalg.parse_gq", "exactalg.parse_poly",
        "exactalg.convert_chart", "exactalg.is_conj_fixed", "cli.main"}

RANK = "linalg.rank"
CELL = "cohomology.cell_matrix"
TOTAL = "cohomology.total_matrix"
PARTIALS = ("cohomology.partial_A", "cohomology.partial_B")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.stack = []
        self.excluded = 0.0
        self.stats = {"matrices": 0, "nnz": 0, "max_dim": 0,
                      "max_entry_bits": 0, "rank_oracle_s": 0.0,
                      "rank_mismatches": 0, "basis_dim": 0}

    def clock(self):
        return time.perf_counter() - self.excluded

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, self.clock

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def rank_probe(self, dense_rank):
        """Before each rank: measure the matrix and run the oracle."""
        def probe(matrix, method="sparse"):
            paused = time.perf_counter()
            st = self.stats
            st["matrices"] += 1
            st["nnz"] += matrix.nnz
            st["max_dim"] = max(st["max_dim"], matrix.nrows, matrix.ncols)
            for v in matrix.entries.values():
                for part in (v.re, v.im):
                    bits = max(part.numerator.bit_length(),
                               part.denominator.bit_length())
                    if bits > st["max_entry_bits"]:
                        st["max_entry_bits"] = bits
            oracle = None
            if method == "sparse":
                started = time.perf_counter()
                oracle = dense_rank(matrix.rows())
                st["rank_oracle_s"] += time.perf_counter() - started
            self.excluded += time.perf_counter() - paused
            return oracle
        return probe

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "excluded_s": self.excluded,
                       "stats": self.stats}, handle)


def install(tracer):
    import inspect

    import holopoisson.cli  # noqa: F401  (imports every layer)

    modules = {name: sys.modules[f"holopoisson.{name}"] for name in LAYERS}
    linalg = modules["linalg"]
    cohomology = modules["cohomology"]
    probe = tracer.rank_probe(linalg.dense_rank)
    replace = {}
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            label = f"{short}.{name}"
            if (name.startswith("_") or label in SKIP
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            after = None
            if label == "cohomology.build_block":
                def after(block):
                    tracer.stats["basis_dim"] += sum(
                        len(items) for items in block.basis.values())
            replace[id(obj)] = (obj, tracer.wrap(label, obj, after))

    everywhere = [m for name, m in sys.modules.items()
                  if name == "holopoisson" or name.startswith("holopoisson.")]
    for mod in everywhere:
        for attr, value in list(vars(mod).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    hit = replace.get(id(item))
                    if hit is not None and hit[0] is item:
                        value[key] = hit[1]

    sparse_rank = tracer.wrap(RANK, linalg.SparseMatrix.rank)

    def rank(matrix, method="sparse"):
        oracle = probe(matrix, method)
        result = sparse_rank(matrix, method)
        if oracle is not None and oracle != result:
            tracer.stats["rank_mismatches"] += 1
        return result

    linalg.SparseMatrix.rank = rank
    block = cohomology._Block
    block.cell_matrix = tracer.wrap(CELL, block.cell_matrix)
    block.total_matrix = tracer.wrap(TOTAL, block.total_matrix)


def child_main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import holopoisson.cli as cli

    try:
        code = cli.main(cli_args)
    finally:
        tracer.dump(out_path)
    return code


# ----------------------------------------------------------------------
# parent side


def load(path):
    """A span file; an empty trace if the process died before writing."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {"spans": [], "excluded_s": 0.0, "stats": {}}


def _module(name):
    return name.split(".", 1)[0]


def _analyse(trace):
    """Per-span duration and layer self time."""
    spans = trace["spans"]
    count = len(spans)
    duration = [end - start for _, start, end, _ in spans]
    other = [0.0] * count
    # children come after their parents: accumulate bottom-up
    for i in range(count - 1, -1, -1):
        parent = spans[i][3]
        if parent < 0:
            continue
        if _module(spans[parent][0]) != _module(spans[i][0]):
            other[parent] += duration[i]
        else:
            other[parent] += other[i]
    layer_self = [d - o for d, o in zip(duration, other)]
    return spans, duration, layer_self


def _ancestor(spans, i, names):
    """Name of the nearest ancestor of span i whose name is in names."""
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return spans[parent][0]
        parent = spans[parent][3]
    return None


PER_LAYER_SELF = [
    "multivec.schouten", "poisson.pn_check", "poisson.decompose",
    "poisson.is_holomorphic_poisson", "algebroid.verify_algebroid",
    "algebroid.matched_pair_tensors", "algebroid.yao_isomorphism_check",
    "algebroid.realparts_liealgebra_check", CELL, TOTAL,
]
MODULE_SELF = ["multivec", "poisson", "algebroid", "linalg", "cohomology",
               "serialize", "cli"]


def layer_metrics(traces, walls):
    """Per-layer metrics of one traced round (sums over its operations)."""
    self_s = dict.fromkeys(PER_LAYER_SELF, 0.0)
    module_s = dict.fromkeys(MODULE_SELF, 0.0)
    calls = {"multivec.schouten": 0, "cohomology.build_block": 0}
    partial = {CELL: 0, TOTAL: 0}
    run_job = parse = rank_s = roots = excluded = 0.0
    stats = {"matrices": 0, "nnz": 0, "max_dim": 0, "max_entry_bits": 0,
             "rank_oracle_s": 0.0, "rank_mismatches": 0, "basis_dim": 0}
    for trace in traces:
        spans, duration, layer_self = _analyse(trace)
        excluded += trace["excluded_s"]
        for key, value in trace["stats"].items():
            if key in ("max_dim", "max_entry_bits"):
                stats[key] = max(stats[key], value)
            else:
                stats[key] += value
        for i, (name, _, _, parent) in enumerate(spans):
            module = _module(name)
            parent_name = spans[parent][0] if parent >= 0 else None
            if name in calls:
                calls[name] += 1
            top_of_name = _ancestor(spans, i, {name}) is None
            if name in self_s and top_of_name:
                self_s[name] += layer_self[i]
            if parent < 0:
                roots += duration[i]
            if module in module_s and (parent_name is None
                                       or _module(parent_name) != module):
                module_s[module] += layer_self[i]
            if name == "cli.run_job" and top_of_name:
                run_job += duration[i]
            if name.startswith("serialize.parse_") and (
                    parent_name is None
                    or not parent_name.startswith("serialize.parse_")):
                parse += duration[i]
            if name == RANK:
                rank_s += duration[i]
            if name in PARTIALS:
                where = _ancestor(spans, i, {CELL, TOTAL})
                if where is not None:
                    partial[where] += 1
    metrics = {
        "cli.run_job_s": (run_job, "s"),
        "serialize.parse_s": (parse, "s"),
        "multivec.schouten_calls": (calls["multivec.schouten"], "count"),
        "cohomology.blocks": (calls["cohomology.build_block"], "count"),
        "cohomology.basis_dim": (stats["basis_dim"], "count"),
        "cohomology.partial_calls_cell": (partial[CELL], "count"),
        "cohomology.partial_calls_total": (partial[TOTAL], "count"),
        "linalg.matrices": (stats["matrices"], "count"),
        "linalg.nnz": (stats["nnz"], "count"),
        "linalg.max_dim": (stats["max_dim"], "count"),
        "linalg.max_entry_bits": (stats["max_entry_bits"], "bits"),
        "linalg.rank_sparse_s": (rank_s, "s"),
        "linalg.rank_oracle_s": (stats["rank_oracle_s"], "s"),
        "trace.unattributed_s": (sum(walls) - excluded - roots, "s"),
    }
    for name, value in self_s.items():
        metrics[f"{name.split('.')[0]}.{name.split('.')[-1]}_self_s"] = (
            value, "s")
    for module, value in module_s.items():
        metrics[f"{module}.self_s"] = (value, "s")
    return metrics, stats["rank_mismatches"]


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
