"""holopoisson benchmark: cold CLI processes on seeded inputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every operation is one cold
``python3 -m holopoisson.cli`` process on a generated input file, run one
after another (a closed loop with one client, ``HOLOPOISSON_THREADS``
unset).  A run repeats whole rounds of the workload's operations while
another round fits in ``--seconds``, checks every report against
``checks.py`` and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (see BENCHMARK.json);
with ``--trace 1`` one untraced and one traced round give the per-layer
split (see ``tracer.py``).  Scratch files live under ``.bench_out/``.
"""

from __future__ import annotations

import sys

# Write no bytecode for sympy and the benchmark's own modules: a run
# writes only inside its checkout (children cache under .bench_out/).
sys.dont_write_bytecode = True

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import loop

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

OP_TIMEOUT_S = 60
# a timed loop stops waiting for its operations after this long
LOOP_DEADLINE_S = 140
# cold imports before each round: spread over the run, their median
# follows the host's speed over the whole run, not over its first seconds
SETUP_PER_ROUND = 2
# reference.py runs before each round; every time a run reports is scaled
# to a host on which it takes REFERENCE_S (README, "Host speed")
REFERENCE = [sys.executable, str(BENCH / "reference.py")]
REFERENCE_PER_ROUND = 3
REFERENCE_S = 0.125
# reference.py runs in a traced run, for host.reference_s
REFERENCE_REPEATS = 9
IMPORT_REPEATS = 5
MODULES = ["holopoisson", "errors", "exactalg", "linalg", "multivec",
           "poisson", "algebroid", "cohomology", "serialize", "cli"]


# ----------------------------------------------------------------------
# child processes


def child_env(workdir):
    env = dict(os.environ)
    env["TMPDIR"] = workdir
    env.pop("HOLOPOISSON_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, env, timeout=OP_TIMEOUT_S):
    """A check-phase process (the timed operations run inside loop.py)."""
    return loop.run(list(map(str, argv)), ROOT, timeout, env)


def cli(*args):
    return [sys.executable, "-m", "holopoisson.cli", *map(str, args)]


# ----------------------------------------------------------------------
# operations and workloads


@dataclass
class Op:
    label: str
    args: list
    check: object  # (report, exit code) -> list of problems


@dataclass
class Workload:
    ops: list
    # check-phase work run once per run, outside the timed loop:
    # a list of problems (empty when the run-level checks hold)
    problems: list = field(default_factory=list)
    # operands for the exactalg microbenchmarks
    scalars: list = field(default_factory=list)
    polys: list = field(default_factory=list)


def write(workdir, name, doc):
    path = Path(workdir) / name
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    return path


def canonical(name):
    rank, triples = inputs.LIE_ALGEBRAS[name]
    return inputs.constants_table(rank, triples)


def lie_operands(c):
    """Scalars and bivector coefficients of a Lie-Poisson input."""
    rank = len(c)
    names = [f"z{k + 1}" for k in range(rank)]
    scalars = sorted({str(v) for row in c for vec in row for v in vec if v})
    polys = []
    for i in range(rank):
        for j in range(i + 1, rank):
            poly = {tuple(int(a == k) for a in range(rank)): (c[i][j][k], 0)
                    for k in range(rank) if c[i][j][k]}
            if poly:
                polys.append(inputs.format_poly(poly, names))
    return scalars, [(rank, polys)]


def bivector_operands(n, pi):
    names = [f"z{k + 1}" for k in range(n)]
    scalars = sorted({inputs.format_coeff(*v) for poly in pi.values()
                      for v in poly.values()})
    return scalars, [(n, [inputs.format_poly(p, names)
                          for p in pi.values() if p])]


def lie_weight(seed, workdir, env):
    """``cohomology --weight`` on Lie-Poisson structures.  Only the
    re-based sl2 runs at weight 3, where the sparse rank is about 30 % of
    its time (at weight 2 it is under 10 %); every operation is kept short
    so that a run samples each one many times."""
    rng = random.Random(seed)
    rebased = inputs.rebased_lie_algebra(rng, "sl2")
    cases = [("sl2-rebased", rebased, 3, True),
             ("sl2", canonical("sl2"), 2, True),
             ("heisenberg", canonical("heisenberg"), 2, False)]
    work = Workload([])
    for name, c, weight, is_sl2 in cases:
        path = write(workdir, f"{name}.json", inputs.lie_document(c))
        pi = checks.lie_poisson_exprs(c)
        want = [checks.lichnerowicz_betti(3, pi, w) for w in range(weight + 1)]
        if is_sl2:
            # invariance under re-basing: the sl2 rule holds in any basis
            rule = [checks.sl2_betti(w, 4) for w in range(weight + 1)]
            if want != rule:
                work.problems.append(f"{name}: Lichnerowicz Betti numbers "
                                     f"{want} != H*(sl2) x Casimirs {rule}")

        def check(report, code, weight=weight, want=want):
            return checks.check_weight_cohomology(report, code, 3, weight,
                                                  want)
        work.ops.append(Op(f"cohomology {name} w{weight}",
                           ["cohomology", path, "--weight", weight], check))
        scalars, polys = lie_operands(c)
        work.scalars += scalars
        work.polys += polys
    return work


def oracle_betti(path, bound, env, problems):
    """Betti numbers by the dense oracle on assemble_total, which must
    also satisfy d o d = 0 (``oracle.py``)."""
    result = run_child([sys.executable, BENCH / "oracle.py", path, bound],
                       env)
    try:
        out = json.loads(result["stdout"])
    except ValueError:
        problems.append(f"{path.name}: oracle failed: "
                        f"{result['stderr'][-300:]}")
        return None
    problems.extend(f"{path.name}: {bad}" for bad in out["nonzero"])
    return out["betti"]


def flat_total(seed, workdir, env):
    """``cohomology --max-degree`` on constant structures."""
    rng = random.Random(seed)
    z1z2 = {(0, 1): {(0, 0, 0): (1, 0)}}
    cases = [
        ("zero", 2, {}, 4, None),
        ("constant_symplectic", 2, {(0, 1): {(0, 0): (-1, 0)}}, 4, None),
        ("constant-rebased", 3,
         inputs.constant_bivector(rng, 3, {(0, 1): 1}), 1, z1z2),
    ]
    work = Workload([])
    for name, n, pi, bound, source in cases:
        path = write(workdir, f"{name}.json", inputs.bivector_document(n, pi))
        want = oracle_betti(path, bound, env, work.problems)
        invariant = None
        if source is not None:
            src = write(workdir, f"{name}-source.json",
                        inputs.bivector_document(n, source))
            invariant = oracle_betti(src, bound, env, work.problems)

        def check(report, code, n=n, bound=bound, want=want,
                  invariant=invariant):
            return checks.check_total_cohomology(report, code, n, bound,
                                                 want, invariant)
        work.ops.append(Op(f"cohomology {name} d{bound}",
                           ["cohomology", path, "--max-degree", bound],
                           check))
        scalars, polys = bivector_operands(n, pi)
        work.scalars += scalars
        work.polys += polys
    return work


JACOBIAN_COMMANDS = ["check-poisson", "decompose", "pn-check", "cotangent",
                     "matched-pair", "bowtie", "yao-check"]
LIE_COMMANDS = ["lie-poisson", "realparts-check", "torsion", "yao-check",
                "matched-pair"]


def verify_structures(seed, workdir, env):
    rng = random.Random(seed)
    work = Workload([])
    for k, pi in enumerate(inputs.jacobian_structures(rng)):
        if not checks.jacobiator_zero(3, pi):
            work.problems.append(f"jacobian{k}: generated structure is not "
                                 "Poisson")
        path = write(workdir, f"jacobian{k}.json",
                     inputs.bivector_document(3, pi))
        for command in JACOBIAN_COMMANDS:
            if command == "check-poisson":
                def check(report, code, pi=pi):
                    return checks.check_check_poisson(report, code, 3, pi,
                                                      True)
            elif command == "decompose":
                def check(report, code, pi=pi):
                    return checks.check_decompose(report, code, 3, pi)
            else:
                def check(report, code, command=command):
                    return checks.check_forced(command, report, code)
            work.ops.append(Op(f"{command} jacobian{k}", [command, path],
                               check))
        bad = inputs.perturbed(rng, pi)
        while checks.jacobiator_zero(3, bad):
            bad = inputs.perturbed(rng, pi)
        path = write(workdir, f"perturbed{k}.json",
                     inputs.bivector_document(3, bad))
        work.ops.append(Op(f"check-poisson perturbed{k}",
                           ["check-poisson", path],
                           lambda report, code, bad=bad:
                           checks.check_check_poisson(report, code, 3, bad,
                                                      False)))
        work.ops.append(Op(f"matched-pair perturbed{k}",
                           ["matched-pair", path], checks.check_rejected))
        scalars, polys = bivector_operands(3, pi)
        work.scalars += scalars
        work.polys += polys
    for name in inputs.REBASED_NNZ:
        c = inputs.rebased_lie_algebra(rng, name)
        path = write(workdir, f"{name}.json", inputs.lie_document(c))
        for command in LIE_COMMANDS:
            if command == "lie-poisson":
                def check(report, code, c=c):
                    return checks.check_lie_poisson(report, code, c)
            else:
                def check(report, code, command=command):
                    return checks.check_forced(command, report, code)
            work.ops.append(Op(f"{command} {name}", [command, path], check))
        scalars, polys = lie_operands(c)
        work.scalars += scalars
        work.polys += polys
    return work


def cohomology(seed, workdir, env):
    """Both modes in one workload: weight mode, where the sparse rank does
    a large share of the work, and total-degree mode, which is nearly all
    matrix assembly; the traced run splits the two."""
    work = lie_weight(seed, workdir, env)
    flat = flat_total(seed, workdir, env)
    work.ops += flat.ops
    work.problems += flat.problems
    work.scalars += flat.scalars
    work.polys += flat.polys
    return work


WORKLOADS = {
    "cohomology": cohomology,
    "verify-structures": verify_structures,
}


# ----------------------------------------------------------------------
# running and checking


class Checker:
    """Checks reports; identical (bytes, exit) pairs are checked once."""

    def __init__(self):
        self.seen = {}
        self.problems = []

    def ok(self, op, result):
        key = (op.label, result["code"],
               hashlib.sha256(result["stdout"].encode()).digest())
        if key not in self.seen:
            try:
                report = json.loads(result["stdout"])
                problems = op.check(report, result["code"])
            except (ValueError, KeyError, TypeError, AttributeError,
                    ArithmeticError) as exc:
                problems = [f"unreadable report: {exc!r} "
                            f"{result['stderr'][-300:]}"]
            self.seen[key] = problems
            for problem in problems:
                self.problems.append(f"{op.label}: {problem}")
        return not self.seen[key]


def timed_loop(argvs, env, workdir, seconds, setup=None, reference=None):
    """Run ``loop.py``: whole rounds, each the optional reference and
    set-up repeats and then the argvs, while another round fits in
    ``seconds``."""
    plan = write(workdir, "plan.json", {
        "reference": reference, "setup": setup,
        "ops": [list(map(str, a)) for a in argvs],
        "seconds": seconds, "timeout": OP_TIMEOUT_S,
        "deadline": LOOP_DEADLINE_S, "cwd": str(ROOT)})
    results = Path(workdir) / "results.json"
    done = run_child([sys.executable, BENCH / "loop.py", plan, results], env,
                     timeout=LOOP_DEADLINE_S + OP_TIMEOUT_S)
    if done["code"] != 0:
        raise RuntimeError(f"timed loop failed: {done['stderr'][-500:]}")
    return json.loads(results.read_text(encoding="utf-8"))


def count_failed(work, rounds, checker):
    """Operations that crashed, timed out or gave a wrong report."""
    return sum(not checker.ok(op, result)
               for results in rounds for op, result in zip(work.ops, results))


def import_probe(env):
    """Confirm the CLI comes from this checkout's src/ (and warm the
    bytecode cache, as an installed package would be)."""
    probe = run_child([sys.executable, "-c",
                       "import holopoisson.cli, sys; "
                       "sys.stdout.write(holopoisson.cli.__file__)"], env)
    where = Path(probe["stdout"] or "/nonexistent").resolve()
    if probe["code"] != 0 or SRC.resolve() not in where.parents:
        raise SystemExit(f"holopoisson.cli not importable from {SRC}: "
                         f"{probe['stderr'][-500:]}")


def end_to_end(work, env, workdir, seconds):
    out = timed_loop([cli(*op.args) for op in work.ops], env, workdir,
                     seconds,
                     setup=[[sys.executable, "-c", "import holopoisson.cli"],
                            SETUP_PER_ROUND],
                     reference=[REFERENCE, REFERENCE_PER_ROUND])
    rounds = out["rounds"]
    checker = Checker()
    failed = count_failed(work, rounds, checker)
    # the host's speed drifts by half over minutes; scaling each round by
    # its own reference time takes that out of every time reported
    scale = [REFERENCE_S / statistics.median(ref) for ref in out["reference"]]
    # each operation's median over the rounds: a round count that differs
    # from run to run then does not change what the metrics mean
    per_op = [statistics.median(results[k]["wall_s"] * f
                                for results, f in zip(rounds, scale))
              for k in range(len(work.ops))]
    setup = [t * f for times, f in zip(out["setup"], scale) for t in times]
    metrics = {
        "wall_s": (sum(per_op), "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_max_s": (max(per_op), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for results in rounds
                            for r in results), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return len(rounds) * len(work.ops), failed, checker.problems, metrics


def traced(work, env, workdir, seconds):
    import tracer

    checker = Checker()
    plain_out = timed_loop([cli(*op.args) for op in work.ops], env, workdir,
                           0, reference=[REFERENCE, REFERENCE_REPEATS])
    plain = plain_out["rounds"][:1]
    span_files = [Path(workdir) / f"spans-{k}.json"
                  for k in range(len(work.ops))]
    argvs = [[sys.executable, BENCH / "tracer.py", path, *op.args]
             for op, path in zip(work.ops, span_files)]
    traced_round = timed_loop(argvs, env, workdir, 0)["rounds"][:1]
    failed = (count_failed(work, plain, checker)
              + count_failed(work, traced_round, checker))
    traces = [tracer.load(path) for path in span_files]
    traced_walls = [r["wall_s"] for r in traced_round[0]]
    metrics, mismatches = tracer.layer_metrics(traces, traced_walls)
    if mismatches:
        checker.problems.append(f"{mismatches} sparse ranks differ from "
                                "the dense oracle")
    # the host's speed when the per-layer times (which are not scaled)
    # were taken
    metrics["host.reference_s"] = (
        statistics.median(plain_out["reference"][0]), "s")
    metrics["cli.report_bytes"] = (
        sum(len(r["stdout"].encode()) for r in plain[0]), "bytes")
    excluded = sum(t["excluded_s"] for t in traces)
    metrics["trace.overhead_s"] = (
        sum(traced_walls) - excluded
        - sum(r["wall_s"] for r in plain[0]), "s")
    metrics.update(import_times(env))
    metrics.update(microbench(work, env, workdir))
    return 2 * len(work.ops), failed, checker.problems, metrics


def import_times(env):
    """Self import time of each module, from -X importtime (median)."""
    samples = {m: [] for m in MODULES}
    for _ in range(IMPORT_REPEATS):
        result = run_child([sys.executable, "-X", "importtime", "-c",
                            "import holopoisson.cli"], env)
        for line in result["stderr"].splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3 or not parts[2].startswith("holopoisson"):
                continue
            name = parts[2].rsplit(".", 1)[-1]
            samples[name].append(int(parts[0].split()[-1]) / 1000.0)
    return {f"{m}.import_ms": (statistics.median(v) if v else 0.0, "ms")
            for m, v in samples.items()}


def microbench(work, env, workdir):
    operands = write(workdir, "operands.json",
                     {"scalars": sorted(set(work.scalars)),
                      "polys": work.polys})
    result = run_child([sys.executable, BENCH / "micro.py", operands], env)
    if result["code"] != 0:
        raise RuntimeError(f"microbenchmark failed: "
                           f"{result['stderr'][-500:]}")
    return {name: tuple(value) for name, value in
            json.loads(result["stdout"]).items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "holopoisson" / "cli.py").is_file():
        print(f"no holopoisson sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    tempfile.tempdir = workdir
    try:
        env = child_env(workdir)
        import_probe(env)
        work = WORKLOADS[args.workload](args.seed, workdir, env)
        measure = traced if args.trace else end_to_end
        attempted, failed, problems, metrics = measure(work, env, workdir,
                                                       args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = work.problems + problems
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
