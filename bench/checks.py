"""Independent checks of holopoisson reports.

Nothing here imports holopoisson.  Expectations come from sympy and from
the paper's theorems:

* the Jacobiator of the generated bivector decides ``check-poisson``;
* the real and imaginary parts of ``pi`` in real coordinates decide
  ``decompose``;
* the Lie-Poisson bivector is derived from the generated structure
  constants;
* verdicts the theorems force must hold (PN pair, matched pair, Yao
  isomorphism, realparts factors, torsion of a complex Lie algebra);
* weight-mode Betti numbers equal those of the Lichnerowicz complex of
  holomorphic polynomial polyvector fields, built here with sympy; for
  sl2 they follow H*(sl2) (x) Casimirs: (1, 0, 0, 1) in even weights,
  0 in odd ones;
* total dimensions follow from counting monomials and frames.

Each ``check_*`` function returns a list of problems; an empty list means
the report is correct.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

import sympy
from sympy.polys.matrices import DomainMatrix

# ----------------------------------------------------------------------
# literals <-> sympy


def symbols_for(kind, n):
    """Variable symbols of a chart, in the chart's canonical order."""
    if kind == "complex":
        names = [f"z{k}" for k in range(1, n + 1)] + \
                [f"zb{k}" for k in range(1, n + 1)]
        return {name: sympy.Symbol(name) for name in names}
    names = [f"x{k}" for k in range(1, n + 1)] + \
            [f"y{k}" for k in range(1, n + 1)]
    return {name: sympy.Symbol(name, real=True) for name in names}


def _scalar(text):
    """A scalar in the grammar '3', '-1/2', 'i', '-2i', '(1/2-3i)'."""
    body = text[1:-1] if text.startswith("(") else text
    real, imag = Fraction(0), Fraction(0)
    # split at a sign that is not the leading one
    cut = max(body.rfind("+"), body.rfind("-"))
    parts = [body] if cut <= 0 else [body[:cut], body[cut:]]
    for part in parts:
        if part.endswith("i"):
            digits = part[:-1]
            imag += Fraction(digits + "1" if digits in ("", "+", "-")
                             else digits)
        else:
            real += Fraction(part)
    return sympy.Rational(real.numerator, real.denominator) + \
        sympy.I * sympy.Rational(imag.numerator, imag.denominator)


def literal(text, syms):
    """Parse a polynomial literal (as written by either side) to sympy."""
    total = sympy.Integer(0)
    for term in text.split(" + "):
        term = term.strip()
        value = sympy.Integer(1)
        for factor in term.split():
            sign = 1
            if factor.startswith("-") and factor[1:2].isalpha() \
                    and factor[1:] not in ("i",):
                sign, factor = -1, factor[1:]
            name, _, power = factor.partition("^")
            if name in syms:
                value *= sign * syms[name] ** int(power or 1)
            else:
                value *= _scalar(factor)
        total += value
    return sympy.expand(total)


def gauss(a, b):
    return sympy.Integer(a) + sympy.I * sympy.Integer(b)


def bivector_exprs(n, pi):
    """Generator bivector -> {(i, j): sympy expr} on z1..zn."""
    z = [sympy.Symbol(f"z{k}") for k in range(1, n + 1)]
    out = {}
    for (i, j), poly in pi.items():
        expr = sympy.Integer(0)
        for exps, (a, b) in poly.items():
            term = gauss(a, b)
            for var, e in zip(z, exps):
                term *= var ** e
            expr += term
        out[(i, j)] = sympy.expand(expr)
    return z, out


def _entry(pi, i, j):
    if i == j:
        return sympy.Integer(0)
    if i < j:
        return pi.get((i, j), sympy.Integer(0))
    return -pi.get((j, i), sympy.Integer(0))


def jacobiator_zero(n, pi):
    """True when J^{ijk} = sum_l pi^{il} d_l pi^{jk} + cyclic vanishes."""
    z, p = bivector_exprs(n, pi)
    for i, j, k in combinations(range(n), 3):
        total = sympy.Integer(0)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l in range(n):
                total += _entry(p, a, l) * sympy.diff(_entry(p, b, c), z[l])
        if sympy.expand(total) != 0:
            return False
    return True


def _components(entries, syms):
    return {tuple(entry["frame"]): literal(entry["coeff"], syms)
            for entry in entries}


def _same_components(got, want):
    keys = set(got) | set(want)
    return all(sympy.expand(got.get(k, 0) - want.get(k, 0)) == 0
               for k in keys)


# ----------------------------------------------------------------------
# verdict checks


def _verdicts(report, want, problems):
    verdicts = report.get("verdicts", {})
    for key, value in want.items():
        if verdicts.get(key) is not value:
            problems.append(f"verdict {key} = {verdicts.get(key)!r}, "
                            f"expected {value!r}")


def check_exit(code, want, problems):
    if code != want:
        problems.append(f"exit code {code}, expected {want}")


def check_check_poisson(report, code, n, pi, poisson):
    problems = []
    check_exit(code, 0 if poisson else 2, problems)
    _verdicts(report, {"dbar_zero": True, "schouten_zero": poisson,
                       "holomorphic_poisson": poisson}, problems)
    syms = symbols_for("complex", n)
    _, want = bivector_exprs(n, pi)
    want = {(f"z{i + 1}", f"z{j + 1}"): v for (i, j), v in want.items()}
    got = _components(report.get("data", {}).get("pi", []), syms)
    if not _same_components(got, want):
        problems.append("echoed pi differs from the input")
    return problems


def expected_parts(n, pi):
    """Real and imaginary parts of pi on the real chart (x, y), with
    d/dz_k = (d/dx_k - i d/dy_k) / 2."""
    z, p = bivector_exprs(n, pi)
    syms = symbols_for("real", n)
    x = [syms[f"x{k}"] for k in range(1, n + 1)]
    y = [syms[f"y{k}"] for k in range(1, n + 1)]
    names = [f"x{k}" for k in range(1, n + 1)] + \
            [f"y{k}" for k in range(1, n + 1)]
    total = {}
    for (i, j), f in p.items():
        f = sympy.expand(f.subs({z[k]: x[k] + sympy.I * y[k]
                                 for k in range(n)}, simultaneous=True))
        for a, b, w in ((i, j, 1), (i, n + j, -sympy.I),
                        (n + i, j, -sympy.I), (n + i, n + j, -1)):
            value = f * w / 4
            if a > b:
                a, b, value = b, a, -value
            key = (names[a], names[b])
            total[key] = total.get(key, 0) + value
    real, imag = {}, {}
    for key, value in total.items():
        re_part, im_part = sympy.expand(value).as_real_imag()
        real[key] = sympy.expand(re_part)
        imag[key] = sympy.expand(im_part)
    return real, imag


def check_decompose(report, code, n, pi):
    problems = []
    check_exit(code, 0, problems)
    syms = symbols_for("real", n)
    data = report.get("data", {})
    want_r, want_i = expected_parts(n, pi)
    if not _same_components(_components(data.get("pi_R", []), syms), want_r):
        problems.append("pi_R differs from Re(pi)")
    if not _same_components(_components(data.get("pi_I", []), syms), want_i):
        problems.append("pi_I differs from Im(pi)")
    return problems


# commands whose verdicts are forced for a holomorphic Poisson input
FORCED = {
    "pn-check": {"sharp_intertwine": True, "koszul_compat": True,
                 "torsion_zero": True, "poisson_nijenhuis": True},
    "cotangent": {"jacobi": True, "anchor_morphism": True},
    "bowtie": {"jacobi": True, "anchor_morphism": True},
    "matched-pair": {"matched_pair": True},
    "yao-check": {"anchors": True, "vector_vector": True, "form_form": True,
                  "mixed": True, "yao_isomorphism": True},
    "realparts-check": {"factor_re": True, "factor_im": True,
                        "realparts": True},
    "torsion": {"torsion_zero": True},
}


def check_forced(command, report, code):
    problems = []
    check_exit(code, 0, problems)
    _verdicts(report, FORCED[command], problems)
    data = report.get("data", {})
    if command == "matched-pair" and any(data.get(k) for k in
                                         ("F_nonzero", "S_nonzero",
                                          "T_nonzero")):
        problems.append("nonzero matched-pair tensors")
    if command == "torsion" and data.get("nonzero"):
        problems.append("nonzero torsion entries")
    return problems


def check_rejected(report, code):
    """A command that needs a Poisson input must refuse a non-Poisson one."""
    problems = []
    check_exit(code, 2, problems)
    if report.get("ok") is not False:
        problems.append("non-Poisson input was not rejected")
    return problems


def lie_poisson_exprs(c):
    """{z_i, z_j} = sum_k c_ij^k z_k from the generated constants."""
    rank = len(c)
    z = [sympy.Symbol(f"z{k}") for k in range(1, rank + 1)]
    out = {}
    for i in range(rank):
        for j in range(i + 1, rank):
            expr = sum((c[i][j][k] * z[k] for k in range(rank)),
                       sympy.Integer(0))
            if expr != 0:
                out[(i, j)] = sympy.expand(expr)
    return out


def check_lie_poisson(report, code, c):
    problems = []
    check_exit(code, 0, problems)
    _verdicts(report, {"holomorphic_poisson": True}, problems)
    rank = len(c)
    want = lie_poisson_exprs(c)
    want = {(f"z{i + 1}", f"z{j + 1}"): v for (i, j), v in want.items()}
    got = _components(report.get("data", {}).get("pi", []),
                      symbols_for("complex", rank))
    if not _same_components(got, want):
        problems.append("lie-poisson pi differs from sum_k c_ij^k z_k")
    return problems


# ----------------------------------------------------------------------
# cohomology


def _monomials(nvars, degree):
    if nvars == 0:
        return [()] if degree == 0 else []
    if nvars == 1:
        return [(degree,)]
    out = []
    for e in range(degree, -1, -1):
        out.extend((e,) + rest for rest in _monomials(nvars - 1, degree - e))
    return out


def weight_dims(n, weight):
    """Total dimensions of the weight block of the canonical pair: cell
    (k, l) holds C(n,k) C(n,l) monomials of degree weight - k in 2n
    variables; every cell counts, so the list runs to degree 2n."""
    dims = [0] * (2 * n + 1)
    for k in range(min(n, weight) + 1):
        count = comb(2 * n + weight - k - 1, weight - k)
        for l in range(n + 1):
            dims[k + l] += comb(n, k) * comb(n, l) * count
    return dims


def total_degree_dims(n, bound):
    count = comb(2 * n + bound, bound)
    dims = [0] * (2 * n + 1)
    for k in range(n + 1):
        for l in range(n + 1):
            dims[k + l] += comb(n, k) * comb(n, l) * count
    return dims


def _sorted_sign(seq):
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return None, 0
    sign = 1
    for a in range(len(seq)):
        for b in range(len(seq) - 1 - a):
            if seq[b] > seq[b + 1]:
                seq[b], seq[b + 1] = seq[b + 1], seq[b]
                sign = -sign
    return tuple(seq), sign


def lichnerowicz_betti(n, pi, weight):
    """Betti numbers of d_pi on polyvector fields with homogeneous
    coefficients of degree ``weight`` (pi linear, so d_pi keeps degree).

    d_pi is the Chevalley-Eilenberg differential of the cotangent
    algebroid on the coframe dz_i: anchor pi#(dz_i) = sum_j pi^{ij} d_j,
    bracket [dz_i, dz_j] = d(pi^{ij}).
    """
    z = [sympy.Symbol(f"z{k}") for k in range(1, n + 1)]
    monos = _monomials(n, weight)
    mono_index = {m: pos for pos, m in enumerate(monos)}

    def mono_expr(m):
        out = sympy.Integer(1)
        for var, e in zip(z, m):
            out *= var ** e
        return out

    grads = {(i, j): [sympy.diff(_entry(pi, i, j), v) for v in z]
             for i in range(n) for j in range(n)}
    bases = [[(I, m) for I in combinations(range(n), l) for m in monos]
             for l in range(n + 1)]
    index = [{key: pos for pos, key in enumerate(b)} for b in bases]
    matrices = []
    for l in range(n):
        rows = [[0] * len(bases[l]) for _ in bases[l + 1]]
        for col, (I, m) in enumerate(bases[l]):
            f = mono_expr(m)
            for out in combinations(range(n), l + 1):
                value = sympy.Integer(0)
                for t in range(l + 1):
                    rest = out[:t] + out[t + 1:]
                    if rest == I:
                        deriv = sum((_entry(pi, out[t], j) * sympy.diff(f, z[j])
                                     for j in range(n)), sympy.Integer(0))
                        value += (-1) ** t * deriv
                for t in range(l + 1):
                    for u in range(t + 1, l + 1):
                        rest = tuple(v for w, v in enumerate(out)
                                     if w not in (t, u))
                        for k in range(n):
                            key, sign = _sorted_sign((k,) + rest)
                            if key != I:
                                continue
                            coeff = grads[(out[t], out[u])][k]
                            value += (-1) ** (t + u) * sign * coeff * f
                value = sympy.Poly(sympy.expand(value), *z)
                if value.is_zero:
                    continue
                for exps, coeff in value.terms():
                    rows[index[l + 1][(out, exps)]][col] = coeff
        matrices.append(DomainMatrix(
            [[sympy.QQ.convert(v) for v in row] for row in rows],
            (len(bases[l + 1]), len(bases[l])), sympy.QQ))
    for a, b in zip(matrices, matrices[1:]):
        if any(v for row in (b * a).to_list() for v in row):
            raise ArithmeticError("sympy Lichnerowicz differential: d^2 != 0")
    ranks = [mat.rank() if mat.shape[0] and mat.shape[1] else 0
             for mat in matrices] + [0]
    return [len(bases[l]) - ranks[l] - (ranks[l - 1] if l else 0)
            for l in range(n + 1)]


def sl2_betti(weight, length):
    """H*(sl2) (x) Casimirs: the block of weight w carries C^{w/2} in
    degrees 0 and 3 when w is even, nothing when it is odd."""
    out = [0] * length
    if weight % 2 == 0:
        out[0] = out[3] = 1
    return out


def check_weight_cohomology(report, code, n, bound, expected_betti):
    """``expected_betti[w]`` is the list the block of weight w must carry
    (padded with zeros to the block's length)."""
    problems = []
    check_exit(code, 0, problems)
    data = report.get("data", {})
    if (data.get("mode"), data.get("bound"), data.get("label")) != \
            ("weight", bound, "exact_weight_graded"):
        problems.append("wrong mode, bound or label")
    blocks = data.get("blocks", [])
    if [b.get("weight") for b in blocks] != list(range(bound + 1)):
        problems.append("blocks do not cover weights 0..bound")
        return problems
    for block in blocks:
        w = block["weight"]
        dims = weight_dims(n, w)
        if block.get("total_dims") != dims:
            problems.append(f"weight {w}: total_dims {block.get('total_dims')}"
                            f" != {dims}")
        want = list(expected_betti[w]) + [0] * (len(dims) - len(expected_betti[w]))
        if block.get("total_betti") != want:
            problems.append(f"weight {w}: total_betti "
                            f"{block.get('total_betti')} != {want}")
        _check_cells(block, problems)
    return problems


def _check_cells(block, problems):
    for cell in block.get("cells", []):
        for side in ("A", "B"):
            if cell[f"ker_{side}"] + cell[f"rank_{side}"] != cell["dim"]:
                problems.append(f"cell {cell['k']},{cell['l']}: "
                                f"ker + rank != dim ({side})")


def check_total_cohomology(report, code, n, bound, oracle_betti,
                           invariant_betti=None):
    """Total-degree mode: dims by counting, Betti numbers equal to the
    oracle route's (and to the source structure's, for a re-basing), and
    the Euler-characteristic identity."""
    problems = []
    check_exit(code, 0, problems)
    data = report.get("data", {})
    if (data.get("mode"), data.get("bound"), data.get("label")) != \
            ("total_degree", bound, "filtered_approximation"):
        problems.append("wrong mode, bound or label")
    blocks = data.get("blocks", [])
    if len(blocks) != 1:
        return problems + ["total-degree mode must give one block"]
    block = blocks[0]
    dims = total_degree_dims(n, bound)
    betti = block.get("total_betti")
    if block.get("total_dims") != dims:
        problems.append(f"total_dims {block.get('total_dims')} != {dims}")
    if betti != oracle_betti:
        problems.append(f"total_betti {betti} != oracle {oracle_betti}")
    if invariant_betti is not None and betti != invariant_betti:
        problems.append(f"total_betti {betti} changed under re-basing "
                        f"({invariant_betti})")
    if betti and sum((-1) ** d * b for d, b in enumerate(betti)) != \
            sum((-1) ** d * v for d, v in enumerate(dims)):
        problems.append("Euler characteristic identity fails")
    _check_cells(block, problems)
    return problems
