"""Reference Betti numbers and d o d = 0 for total-degree mode.

    python3 bench/oracle.py INPUT.json MAX_DEGREE

Run with the checkout's ``src`` on PYTHONPATH.  Takes the matrices of
``cohomology.assemble_total``, checks that consecutive ones compose to
zero (products formed here in plain (Fraction, Fraction) arithmetic, not
with the program's scalar) and ranks each with the dense oracle route
``linalg.dense_rank``.  Prints ``{"dims", "betti", "nonzero"}``; exits 1
when some composite is not zero.
"""

from __future__ import annotations

import json
import sys

from holopoisson.algebroid import canonical_matched_pair
from holopoisson.cohomology import Truncation, assemble_total
from holopoisson.linalg import dense_rank
from holopoisson.serialize import parse_bivector, parse_chart


def product_is_zero(first, second):
    """second * first == 0 for sparse matrices first: C^k -> C^{k+1} and
    second: C^{k+1} -> C^{k+2}."""
    rows = {}
    for (m, j), v in first.entries.items():
        rows.setdefault(m, []).append((j, v.re, v.im))
    acc = {}
    for (i, m), v in second.entries.items():
        br, bi = v.re, v.im
        for j, ar, ai in rows.get(m, ()):
            re, im = acc.get((i, j), (0, 0))
            acc[(i, j)] = (re + br * ar - bi * ai, im + br * ai + bi * ar)
    return not any(re or im for re, im in acc.values())


def main(path, bound):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    chart = parse_chart(doc["chart"])
    mp = canonical_matched_pair(parse_bivector(chart, doc["pi"]))
    matrices = [m for _, m in
                assemble_total(mp, Truncation("total_degree", int(bound)))]
    bad = []
    for k, (a, b) in enumerate(zip(matrices, matrices[1:])):
        if a.nrows != b.ncols or not product_is_zero(a, b):
            bad.append(f"d{k + 1} o d{k} != 0")
    dims = [m.ncols for m in matrices]
    ranks = [dense_rank(m.rows()) for m in matrices]
    betti = [dims[d] - ranks[d] - (ranks[d - 1] if d else 0)
             for d in range(len(matrices))]
    print(json.dumps({"dims": dims, "betti": betti, "nonzero": bad}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
