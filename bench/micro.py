"""Microbenchmarks of the exactalg scalar and polynomial operations.

    python3 bench/micro.py OPERANDS.json

OPERANDS.json holds ``{"scalars": [...], "polys": [[n, [...]], ...]}``:
scalar and polynomial literals drawn from a workload's inputs.  Prints
one JSON object with the median time per operation over a few repeats.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from holopoisson.exactalg import Chart, parse_gq, parse_poly

REPEATS = 5
BUDGET_S = 0.05


def per_op(fn, ops_per_call):
    """Median seconds per operation of ``fn`` (which does ops_per_call)."""
    calls = 1
    while True:
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - started > BUDGET_S / 10:
            break
        calls *= 2
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - started) / (calls * ops_per_call))
    return statistics.median(samples)


def main(path):
    with open(path, encoding="utf-8") as handle:
        operands = json.load(handle)
    # every scalar of the input, with i and 1/2 so products are non-real
    scalars = [parse_gq(s) for s in operands["scalars"] + ["(1/2+i)"]]
    pairs = [(a, b) for a in scalars for b in scalars]
    polys = []
    for n, literals in operands["polys"]:
        chart = Chart.complex(n)
        polys.extend((parse_poly(text, chart), n) for text in literals)
    poly_pairs = [(p, q) for p, n in polys for q, m in polys if n == m]

    def gq_mul():
        for a, b in pairs:
            a * b

    def gq_add():
        for a, b in pairs:
            a + b

    def poly_mul():
        for p, q in poly_pairs:
            p * q

    diffs = [(p, v) for p, n in polys for v in range(n)]

    def poly_diff():
        for p, v in diffs:
            p.diff(v)

    print(json.dumps({
        "exactalg.gq_mul_ns": [per_op(gq_mul, len(pairs)) * 1e9, "ns"],
        "exactalg.gq_add_ns": [per_op(gq_add, len(pairs)) * 1e9, "ns"],
        "exactalg.poly_mul_us": [per_op(poly_mul, len(poly_pairs)) * 1e6,
                                 "us"],
        "exactalg.poly_diff_us": [per_op(poly_diff, len(diffs)) * 1e6, "us"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
