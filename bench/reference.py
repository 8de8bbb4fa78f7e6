"""The host-speed reference: a fixed pure-Python computation.

    python3 bench/reference.py

Run as a cold process before every round of operations.  It imports
nothing from holopoisson, so no change to the program moves its time; it
does the kind of work the program does (interpreter start, ``Fraction``
arithmetic, dicts keyed by exponent tuples), so a host that runs the
program slower runs it slower by about the same factor.  ``run.py``
scales each round's operation times by this process's time in that
round (see the README, *Host speed*).
"""

from __future__ import annotations

import sys
from fractions import Fraction


def poly_mul(f, g):
    out = {}
    for e1, a in f.items():
        for e2, b in g.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + a * b
    return {e: v for e, v in out.items() if v}


def main():
    f = {(i, j, 3 - i): Fraction(i + 1, j + 2) for i in range(4)
         for j in range(4)}
    g = {(j, i, i): Fraction(2 * j - 3, i + 1) for i in range(4)
         for j in range(4)}
    h = f
    for _ in range(6):
        h = poly_mul(h, g)
        h = {e: v for e, v in h.items() if sum(e) < 14}
    # a checksum, so that no step can be skipped
    sys.stdout.write(f"{len(h)} {sum(h.values()).denominator % 1000}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
