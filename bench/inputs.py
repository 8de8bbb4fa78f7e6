"""Seeded input generator for the benchmark.

Everything here is plain Python over integers: no holopoisson import, so
the inputs (and the expectations derived from them in ``checks.py``) do
not depend on the code under test.  The same seed always gives the same
documents.

Polynomials are dicts ``{exponent tuple: (re, im)}`` with Gaussian-integer
coefficients; bivectors are dicts ``{(i, j): polynomial}`` with
0-based ``i < j``.
"""

from __future__ import annotations

import random

# Canonical Lie algebras: 1-based [i, j, k, c] meaning [e_i, e_j] = c e_k.
LIE_ALGEBRAS = {
    "sl2": (3, [(1, 2, 2, 2), (1, 3, 3, -2), (2, 3, 1, 1)]),
    "heisenberg": (3, [(1, 2, 3, 1)]),
    # oscillator algebra: [e, a] = a, [e, b] = -b, [a, b] = z
    "oscillator": (4, [(1, 2, 2, 1), (1, 3, 3, -1), (2, 3, 4, 1)]),
    "sl2+sl2": (6, [(1, 2, 2, 2), (1, 3, 3, -2), (2, 3, 1, 1),
                    (4, 5, 5, 2), (4, 6, 6, -2), (5, 6, 4, 1)]),
}

# Height cap on re-based structure constants and on the entries of the
# change of basis.  Without it the cost of one seed differs from the
# next by an order of magnitude (coefficient growth in the rank route).
MAX_HEIGHT = 2
# Exact number of nonzero structure constants c_ij^k (i < j) a re-basing
# must have, per algebra; fixing the support size keeps the cost of a
# re-based input the same from seed to seed.
REBASED_NNZ = {"sl2": 6, "oscillator": 9, "sl2+sl2": 18}


# ----------------------------------------------------------------------
# integer linear algebra

def constants_table(rank, triples):
    c = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for i, j, k, v in triples:
        c[i - 1][j - 1][k - 1] += v
        c[j - 1][i - 1][k - 1] -= v
    return c


def _unimodular(rng, rank, steps):
    """Product of ``steps`` elementary row operations (entries +-1) and a
    permutation: an integer matrix with an integer inverse."""
    p = [[int(a == b) for b in range(rank)] for a in range(rank)]
    q = [row[:] for row in p]  # running inverse
    for _ in range(steps):
        a, b = rng.sample(range(rank), 2)
        t = rng.choice((1, -1))
        # p <- p E(a, b, t) : column b += t column a
        for row in p:
            row[b] += t * row[a]
        # q <- E(a, b, -t) q : row a -= t row b
        q[a] = [x - t * y for x, y in zip(q[a], q[b])]
    perm = list(range(rank))
    rng.shuffle(perm)
    p = [[row[perm[c]] for c in range(rank)] for row in p]
    q = [q[perm[r]] for r in range(rank)]
    return p, q


def rebase_constants(c, p, q):
    """Structure constants in the basis f_a = sum_i p[i][a] e_i."""
    rank = len(c)
    out = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for a in range(rank):
        for b in range(a + 1, rank):
            # [f_a, f_b] in the e basis
            vec = [0] * rank
            for i in range(rank):
                if not p[i][a]:
                    continue
                for j in range(rank):
                    if not p[j][b]:
                        continue
                    w = p[i][a] * p[j][b]
                    for k in range(rank):
                        vec[k] += w * c[i][j][k]
            new = [sum(q[e][k] * vec[k] for k in range(rank))
                   for e in range(rank)]
            out[a][b] = new
            out[b][a] = [-v for v in new]
    return out


def _triples(c):
    rank = len(c)
    return [[i + 1, j + 1, k + 1, str(c[i][j][k])]
            for i in range(rank) for j in range(i + 1, rank)
            for k in range(rank) if c[i][j][k]]


def rebased_lie_algebra(rng, name):
    """A seeded re-basing of a named Lie algebra: one fixed re-basing (see
    ``capped_rebasing``) followed by a seeded change of the basis vectors'
    signs.  The seed moves only signs, so every seed asks for the same
    work: when the seed drew the whole change of basis, one seed's sl2 at
    weight 3 took up to 1.5 times another's, even under the height cap."""
    c = capped_rebasing(random.Random(f"rebase {name}"), name)
    signs = [[(rng.choice((1, -1)) if a == b else 0) for b in range(len(c))]
             for a in range(len(c))]
    return rebase_constants(c, signs, signs)


def capped_rebasing(rng, name):
    """A re-basing of a named Lie algebra, with capped height and a fixed
    number of nonzero structure constants."""
    rank, triples = LIE_ALGEBRAS[name]
    c = constants_table(rank, triples)
    want = REBASED_NNZ[name]
    while True:
        p, q = _unimodular(rng, rank, rank)
        if max(abs(v) for row in p for v in row) > MAX_HEIGHT:
            continue
        new = rebase_constants(c, p, q)
        flat = [v for a in range(rank) for b in range(a + 1, rank)
                for v in new[a][b]]
        if max(abs(v) for v in flat) > MAX_HEIGHT:
            continue
        if sum(1 for v in flat if v) != want:
            continue
        return new


def lie_document(c):
    return {"lie_algebra": {"rank": len(c), "brackets": _triples(c),
                            "j": None}}


# ----------------------------------------------------------------------
# polynomials and bivectors on C^n

def _monomials(n, degree):
    if n == 1:
        return [(degree,)]
    out = []
    for e in range(degree, -1, -1):
        out.extend((e,) + rest for rest in _monomials(n - 1, degree - e))
    return out


def _gauss_coeff(rng, magnitude, non_real=False):
    """+-magnitude, or +-magnitude +- i when non-real: only the signs are
    seeded, so the sizes of the exact arithmetic's numbers, and with them
    its cost, do not change from seed to seed."""
    re = rng.choice((-magnitude, magnitude))
    im = rng.choice((-1, 1)) if non_real else 0
    return (re, im)


def poly_diff(f, var):
    out = {}
    for exps, (a, b) in f.items():
        e = exps[var]
        if e:
            new = exps[:var] + (e - 1,) + exps[var + 1:]
            out[new] = (a * e, b * e)
    return out


def poly_mul(f, g):
    out = {}
    for e1, (a1, b1) in f.items():
        for e2, (a2, b2) in g.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            a, b = out.get(e, (0, 0))
            out[e] = (a + a1 * a2 - b1 * b2, b + a1 * b2 + b1 * a2)
    return {e: v for e, v in out.items() if v != (0, 0)}


def poly_add(f, g):
    out = dict(f)
    for e, (a, b) in g.items():
        x, y = out.get(e, (0, 0))
        out[e] = (x + a, y + b)
    return {e: v for e, v in out.items() if v != (0, 0)}


def jacobian_bivector(f, g):
    """pi^{ij} = f eps^{ijk} d_k g on C^3: Poisson for every f and g."""
    dg = [poly_diff(g, k) for k in range(3)]
    return {(0, 1): poly_mul(f, dg[2]),
            (0, 2): {e: (-a, -b) for e, (a, b) in poly_mul(f, dg[1]).items()},
            (1, 2): poly_mul(f, dg[0])}


# Monomial supports of f and g for coefficient degrees 3 and 4.  The
# supports are fixed, and so are which coefficient is non-real (the first
# of f) and the coefficients' magnitudes (1, 2, 3 in turn); only their
# signs are seeded, so every seed asks for the same amount of work.
JACOBIAN_SUPPORTS = [
    ([(1, 0, 0), (0, 0, 1)], [(3, 0, 0), (1, 1, 1), (0, 2, 1)]),
    ([(2, 0, 0), (0, 1, 1)], [(2, 1, 0), (0, 2, 1), (1, 0, 2)]),
]


def jacobian_structures(rng):
    """Seeded Jacobian structures on the fixed supports; a draw whose
    coefficients cancel a term is redrawn."""
    out = []
    for f_support, g_support in JACOBIAN_SUPPORTS:
        generic = jacobian_bivector(dict.fromkeys(f_support, (1, 0)),
                                    dict.fromkeys(g_support, (1, 0)))
        while True:
            f = {m: _gauss_coeff(rng, 1 + k % 3, non_real=(k == 0))
                 for k, m in enumerate(f_support)}
            g = {m: _gauss_coeff(rng, 1 + k % 3)
                 for k, m in enumerate(g_support)}
            pi = jacobian_bivector(f, g)
            if all(len(pi[k]) == len(generic[k]) for k in generic):
                out.append(pi)
                break
    return out


def perturbed(rng, pi):
    """pi plus one seeded monomial in the (z1, z2) slot.  The caller
    redraws until the Jacobiator (``checks.jacobiator_zero``) is
    nonzero."""
    degree = sum(next(iter(pi[(0, 1)])))
    mono = rng.choice(_monomials(3, degree))
    new = dict(pi)
    new[(0, 1)] = poly_add(pi[(0, 1)], {mono: (1, 0)})
    return new


def constant_bivector(rng, n, base):
    """P^T base P for a seeded unimodular P with capped entries."""
    while True:
        p, _ = _unimodular(rng, n, n)
        if max(abs(v) for row in p for v in row) > MAX_HEIGHT:
            continue
        out = {}
        for a in range(n):
            for b in range(a + 1, n):
                v = sum(p[i][a] * p[j][b] * w - p[j][a] * p[i][b] * w
                        for (i, j), w in base.items())
                if v:
                    out[(a, b)] = {(0,) * n: (v, 0)}
        heights = [abs(c[0]) for poly in out.values() for c in poly.values()]
        if len(out) == n * (n - 1) // 2 and max(heights) <= MAX_HEIGHT:
            return out


# ----------------------------------------------------------------------
# literals

def format_coeff(a, b):
    """Gaussian integer a + b i in the scalar grammar: '3', '-i', '(1-2i)'."""
    if b == 0:
        return str(a)
    imag = {1: "i", -1: "-i"}.get(b, f"{b}i")
    if a == 0:
        return imag
    return f"({a}{'' if imag.startswith('-') else '+'}{imag})"


def format_poly(f, names):
    chunks = []
    for exps in sorted(f, reverse=True):
        a, b = f[exps]
        mono = " ".join(names[k] + (f"^{e}" if e > 1 else "")
                        for k, e in enumerate(exps) if e)
        coeff = format_coeff(a, b)
        chunks.append(f"{coeff} {mono}".strip() if mono else coeff)
    return " + ".join(chunks) if chunks else "0"


def bivector_document(n, pi):
    names = [f"z{k + 1}" for k in range(n)]
    comps = [{"frame": [names[i], names[j]],
              "coeff": format_poly(pi[(i, j)], names)}
             for (i, j) in sorted(pi) if pi[(i, j)]]
    return {"chart": {"kind": "complex", "n": n}, "pi": comps}
