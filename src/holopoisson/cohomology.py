"""Double-complex differentials and exact Betti numbers of a matched pair.

BiCochains are sections of Lambda^k A* (x) Lambda^l B* presented by
components on pairs of increasing frame index sets.  partial_A and
partial_B implement the two coboundary operators of the matched-pair
double complex; d_pi is the polyvector-degree-raising operator of the
canonical pair, defined directly on mixed forms.  The total differential
on total degree k + l is partial_A + (-1)^k partial_B.

Betti numbers are computed per truncation block, one total degree at a
time: the partial_A and partial_B matrices of that degree's cells are built
once, ranked for the cell reports and assembled into the total matrix.
Ranks come from two independent elimination routes over GQ: sparse
Markowitz elimination (method "sparse") and dense naive Gaussian
elimination (method "oracle").
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebroid import MatchedPairData, canonical_matched_pair
from .errors import ChartError, DegreeError, StructureError, TruncationError
from .exactalg import GQ, Poly
from .linalg import SparseMatrix
from .multivec import MixedForm, Multivector, insert_index, sharp
from .poisson import is_holomorphic_poisson

from .multivec import Form


class BiCochain:
    """Element of Gamma(Lambda^k A* (x) Lambda^l B*) of a matched pair."""

    __slots__ = ("mp", "k", "l", "comps")

    def __init__(self, mp: MatchedPairData, k: int, l: int, comps=None):
        if k < 0 or l < 0:
            raise DegreeError("negative bidegree")
        chart = mp.A.chart
        clean = {}
        if comps:
            for key, poly in comps.items():
                I, J = tuple(key[0]), tuple(key[1])
                if len(I) != k or len(J) != l:
                    raise DegreeError("component does not match bidegree")
                for t, bound in ((I, mp.A.rank), (J, mp.B.rank)):
                    if list(t) != sorted(set(t)):
                        raise DegreeError(f"index tuple {t} not increasing")
                    if any(not 0 <= v < bound for v in t):
                        raise DegreeError("frame index out of range")
                if isinstance(poly, (int, GQ)):
                    poly = Poly.const(chart, poly)
                if poly.chart != chart:
                    raise ChartError("component on wrong chart")
                if not poly.is_zero():
                    clean[(I, J)] = poly
        self.mp = mp
        self.k = k
        self.l = l
        self.comps = clean

    def component(self, I, J) -> Poly:
        return self.comps.get((tuple(I), tuple(J)),
                              Poly.zero(self.mp.A.chart))

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other):
        if not isinstance(other, BiCochain):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return (self.k, self.l) == (other.k, other.l) and self.comps == other.comps

    def __add__(self, other):
        if (self.k, self.l) != (other.k, other.l):
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise DegreeError("cannot add different bidegrees")
        comps = dict(self.comps)
        for key, poly in other.comps.items():
            acc = comps.get(key)
            poly = poly if acc is None else acc + poly
            if poly.is_zero():
                comps.pop(key, None)
            else:
                comps[key] = poly
        return BiCochain(self.mp, self.k, self.l, comps)

    def __neg__(self):
        return BiCochain(self.mp, self.k, self.l,
                         {key: -p for key, p in self.comps.items()})

    def __sub__(self, other):
        return self.__add__(other.__neg__())

    def scale(self, value):
        if isinstance(value, Poly):
            comps = {key: value * p for key, p in self.comps.items()}
        else:
            value = GQ.of(value)
            comps = {key: p.scale(value) for key, p in self.comps.items()}
        return BiCochain(self.mp, self.k, self.l, comps)


def _sort_with_sign(seq):
    """Sort a list of indices, counting transpositions; None on repeats."""
    seq = list(seq)
    sign = 1
    for a in range(1, len(seq)):
        b = a
        while b > 0 and seq[b - 1] > seq[b]:
            seq[b - 1], seq[b] = seq[b], seq[b - 1]
            sign = -sign
            b -= 1
        if b > 0 and seq[b - 1] == seq[b]:
            return None
    return tuple(seq), sign


def _eval_with_replacement(cochain, I, J, slot_side, slot_pos, section):
    """Sum of section[m] * cochain(I with slot replaced by frame m, J),
    expanded multilinearly with antisymmetrization signs."""
    total = Poly.zero(cochain.mp.A.chart)
    base = list(I) if slot_side == "A" else list(J)
    for m, coeff in enumerate(section):
        if coeff.is_zero():
            continue
        args = list(base)
        args[slot_pos] = m
        sorted_args = _sort_with_sign(args)
        if sorted_args is None:
            continue
        key, sign = sorted_args
        comp = (cochain.component(key, J) if slot_side == "A"
                else cochain.component(I, key))
        if comp.is_zero():
            continue
        term = coeff * comp
        total = total + (term if sign > 0 else -term)
    return total


def _eval_with_first_insertion(cochain, section, rest, J, side):
    """Sum of section[m] * cochain((m, rest...), J) for side A (or the
    mirrored B version), with the insertion sign of m into rest."""
    total = Poly.zero(cochain.mp.A.chart)
    for m, coeff in enumerate(section):
        if coeff.is_zero():
            continue
        merged = insert_index(m, rest)
        if merged is None:
            continue
        key, sign = merged
        comp = (cochain.component(key, J) if side == "A"
                else cochain.component(J, key))
        if comp.is_zero():
            continue
        term = coeff * comp
        total = total + (term if sign > 0 else -term)
    return total


def partial_A(cochain: BiCochain) -> BiCochain:
    """The A-direction coboundary of the matched-pair double complex.

    On frame arguments (A_0..A_k, B_1..B_l):
    sum_i (-1)^i [ a(A_i) alpha(..hat A_i.., B..)
                   - sum_j alpha(..hat A_i.., B_1, .., nabla_{A_i} B_j, ..) ]
    + sum_{i<j} (-1)^{i+j} alpha([A_i,A_j], ..hat A_i..hat A_j.., B..).
    """
    mp = cochain.mp
    chart = mp.A.chart
    k, l = cochain.k, cochain.l
    comps = {}
    for I_out in combinations(range(mp.A.rank), k + 1):
        for J_out in combinations(range(mp.B.rank), l):
            total = Poly.zero(chart)
            for t, i in enumerate(I_out):
                rest = I_out[:t] + I_out[t + 1:]
                sign = -1 if t % 2 else 1
                base = cochain.component(rest, J_out)
                if not base.is_zero():
                    term = mp.A.anchor_apply(mp.A.frame_section(i), base)
                    total = total + (term if sign > 0 else -term)
                for s, j in enumerate(J_out):
                    nabla = mp.nablaAB.gamma[i][j]
                    term = _eval_with_replacement(cochain, rest, J_out,
                                                  "B", s, nabla)
                    total = total - (term if sign > 0 else -term)
            for t in range(len(I_out)):
                for u in range(t + 1, len(I_out)):
                    rest = tuple(v for w, v in enumerate(I_out)
                                 if w not in (t, u))
                    sign = -1 if (t + u) % 2 else 1
                    section = mp.A.structure[I_out[t]][I_out[u]]
                    term = _eval_with_first_insertion(cochain, section,
                                                      rest, J_out, "A")
                    total = total + (term if sign > 0 else -term)
            if not total.is_zero():
                comps[(I_out, J_out)] = total
    return BiCochain(mp, k + 1, l, comps)


def partial_B(cochain: BiCochain) -> BiCochain:
    """The B-direction coboundary, mirroring partial_A."""
    mp = cochain.mp
    chart = mp.A.chart
    k, l = cochain.k, cochain.l
    comps = {}
    for J_out in combinations(range(mp.B.rank), l + 1):
        for I_out in combinations(range(mp.A.rank), k):
            total = Poly.zero(chart)
            for s, j in enumerate(J_out):
                rest = J_out[:s] + J_out[s + 1:]
                sign = -1 if s % 2 else 1
                base = cochain.component(I_out, rest)
                if not base.is_zero():
                    term = mp.B.anchor_apply(mp.B.frame_section(j), base)
                    total = total + (term if sign > 0 else -term)
                for t in range(len(I_out)):
                    nabla = mp.nablaBA.gamma[j][I_out[t]]
                    term = _eval_with_replacement(cochain, I_out, rest,
                                                  "A", t, nabla)
                    total = total - (term if sign > 0 else -term)
            for s in range(len(J_out)):
                for u in range(s + 1, len(J_out)):
                    rest = tuple(v for w, v in enumerate(J_out)
                                 if w not in (s, u))
                    sign = -1 if (s + u) % 2 else 1
                    section = mp.B.structure[J_out[s]][J_out[u]]
                    term = _eval_with_first_insertion(cochain, section,
                                                      rest, I_out, "B")
                    total = total + (term if sign > 0 else -term)
            if not total.is_zero():
                comps[(I_out, J_out)] = total
    return BiCochain(mp, k, l + 1, comps)


def total_differential(cochain: BiCochain):
    """partial_A + (-1)^k partial_B, as the pair of output cells."""
    da = partial_A(cochain)
    db = partial_B(cochain)
    if cochain.k % 2:
        db = -db
    return da, db


# ----------------------------------------------------------------------
# the canonical-pair operator d_pi on mixed forms

def d_pi(m: MixedForm, pi: Multivector) -> MixedForm:
    """Polyvector-degree-raising differential of holomorphic Poisson
    cohomology: on a decomposable cell omega (x) P it is
    omega (x) [pi, P] + sum_i (i_{pi#(dz^i)} d omega) (x) (e_i ^ P)."""
    report = is_holomorphic_poisson(pi)
    if not report.holomorphic_poisson:
        raise StructureError("d_pi needs a holomorphic Poisson bivector")
    chart = pi.chart
    if m.chart != chart:
        raise ChartError("chart mismatch")
    n = chart.n
    hamiltonian = [sharp(pi, Form.frame(chart, i)) for i in range(n)]
    comps = {}

    def add(key, poly):
        if poly.is_zero():
            return
        acc = comps.get(key)
        poly = poly if acc is None else acc + poly
        if poly.is_zero():
            comps.pop(key, None)
        else:
            comps[key] = poly

    from .multivec import schouten

    for (J, I), f in m.comps.items():
        frame_vec = Multivector(chart, len(I), {I: Poly.one(chart)})
        bracket = schouten(pi, frame_vec)
        for idx, coeff in bracket.comps.items():
            if any(v >= n for v in idx):
                raise StructureError("d_pi left the holomorphic polyvectors")
            add((J, idx), f * coeff)
        for i in range(n):
            deriv = hamiltonian[i].apply_to(f)
            if deriv.is_zero():
                continue
            merged = insert_index(i, I)
            if merged is None:
                continue
            new_I, sign = merged
            add((J, new_I), deriv if sign > 0 else -deriv)
    return MixedForm(chart, m.q, m.p + 1, comps)


def mixedform_to_bicochain(m: MixedForm, mp: MatchedPairData) -> BiCochain:
    """Identify Omega^{0,q}(X, T^{p,0}) with the (q,p) cell of the
    canonical matched pair: the dzb slots are the A-arguments and the
    polyvector slots pair with the B-frame."""
    comps = {(J, I): poly for (J, I), poly in m.comps.items()}
    return BiCochain(mp, m.q, m.p, comps)


def bicochain_to_mixedform(c: BiCochain) -> MixedForm:
    chart = c.mp.A.chart
    comps = {(I, J): poly for (I, J), poly in c.comps.items()}
    return MixedForm(chart, c.k, c.l, comps)


# ----------------------------------------------------------------------
# truncation and basis enumeration

@dataclass(frozen=True)
class Truncation:
    mode: str  # "total_degree" or "weight"
    bound: int

    def __post_init__(self):
        if self.mode not in ("total_degree", "weight"):
            raise TruncationError(f"unknown truncation mode {self.mode!r}")
        if self.bound < 0:
            raise TruncationError("truncation bound must be >= 0")


def _homogeneous_degree(poly: Poly):
    """Degree of a homogeneous polynomial; None for zero; error if mixed."""
    if poly.is_zero():
        return None
    degs = {sum(e) for e in poly.terms}
    if len(degs) != 1:
        raise TruncationError(
            "weight mode requires homogeneous structure data")
    return degs.pop()


def _direction_shift(anchor_rows, gammas, structures) -> set:
    shifts = set()
    for row in anchor_rows:
        for entry in row:
            d = _homogeneous_degree(entry)
            if d is not None:
                shifts.add(d - 1)
    for gamma in gammas:
        for row in gamma:
            for vec in row:
                for entry in vec:
                    d = _homogeneous_degree(entry)
                    if d is not None:
                        shifts.add(d)
    for structure in structures:
        for row in structure:
            for vec in row:
                for entry in vec:
                    d = _homogeneous_degree(entry)
                    if d is not None:
                        shifts.add(d)
    return shifts


def weight_exponents(mp: MatchedPairData):
    """Infer the weight system: weight = deg(monomial) + c_A k + c_B l.

    The differential is weight-preserving exactly when every piece of data
    in each direction carries one common degree shift; otherwise weight
    mode is rejected.
    """
    shifts_a = _direction_shift(mp.A.anchor, [mp.nablaAB.gamma],
                                [mp.A.structure])
    shifts_b = _direction_shift(mp.B.anchor, [mp.nablaBA.gamma],
                                [mp.B.structure])
    if len(shifts_a) > 1 or len(shifts_b) > 1:
        raise TruncationError(
            "weight mode needs a graded differential; degree shifts are "
            f"not unique (A: {sorted(shifts_a)}, B: {sorted(shifts_b)})")
    c_a = -shifts_a.pop() if shifts_a else 1
    c_b = -shifts_b.pop() if shifts_b else 1
    return c_a, c_b


def monomials_of_degree(nvars: int, degree: int):
    """All exponent tuples of the exact total degree, in lexicographic
    order (frozen for bit-stable output)."""
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    return out


def monomials_up_to_degree(nvars: int, bound: int):
    out = []
    for d in range(bound + 1):
        out.extend(monomials_of_degree(nvars, d))
    return out


@dataclass(frozen=True)
class CellReport:
    k: int
    l: int
    dim: int
    ker_A: int
    rank_A: int
    ker_B: int
    rank_B: int

    def as_dict(self):
        return {"k": self.k, "l": self.l, "dim": self.dim,
                "ker_A": self.ker_A, "rank_A": self.rank_A,
                "ker_B": self.ker_B, "rank_B": self.rank_B}


@dataclass(frozen=True)
class BlockReport:
    weight: int | None
    cells: tuple
    total_dims: tuple
    total_betti: tuple

    def as_dict(self):
        return {"weight": self.weight,
                "cells": [c.as_dict() for c in self.cells],
                "total_dims": list(self.total_dims),
                "total_betti": list(self.total_betti)}


@dataclass(frozen=True)
class BettiReport:
    mode: str
    bound: int
    method: str
    label: str
    blocks: tuple

    def as_dict(self):
        return {"mode": self.mode, "bound": self.bound, "method": self.method,
                "label": self.label,
                "blocks": [b.as_dict() for b in self.blocks]}

    def block(self, weight):
        for b in self.blocks:
            if b.weight == weight:
                return b
        raise KeyError(weight)


class _Block:
    """One truncation block: a finite complex with frozen basis order."""

    def __init__(self, mp: MatchedPairData, weight, basis):
        self.mp = mp
        self.weight = weight
        # basis: dict (k, l) -> list of (I, J, exps)
        self.basis = basis
        self.index = {}
        for cell, items in basis.items():
            self.index[cell] = {key: pos for pos, key in enumerate(items)}

    def cells(self):
        return sorted(self.basis)

    def cell_dim(self, cell):
        return len(self.basis.get(cell, []))

    def _expand(self, cochain: BiCochain, cell):
        """Positions/values of a cochain in the cell basis; error if it
        does not lie in the enumerated span."""
        table = self.index.get(cell)
        out = {}
        for (I, J), poly in cochain.comps.items():
            for exps, coeff in poly.terms.items():
                key = (I, J, exps)
                if table is None or key not in table:
                    raise TruncationError(
                        "differential escapes the truncated basis; "
                        "choose a compatible truncation")
                out[table[key]] = coeff
        return out

    def _basis_cochain(self, cell, key):
        I, J, exps = key
        poly = Poly.monomial(self.mp.A.chart, exps)
        return BiCochain(self.mp, cell[0], cell[1], {(I, J): poly})

    def cell_matrix(self, cell, direction):
        """Matrix of partial_A (direction 'A') or partial_B ('B') from one
        cell to its neighbor, in the frozen basis order."""
        k, l = cell
        target = (k + 1, l) if direction == "A" else (k, l + 1)
        rows = self.cell_dim(target)
        cols = self.cell_dim(cell)
        entries = {}
        for col, key in enumerate(self.basis.get(cell, [])):
            cochain = self._basis_cochain(cell, key)
            image = partial_A(cochain) if direction == "A" else partial_B(cochain)
            for pos, value in self._expand(image, target).items():
                entries[(pos, col)] = value
        return SparseMatrix(rows, cols, entries)

    def degree_cells(self, degree):
        return [c for c in self.cells() if c[0] + c[1] == degree]

    def cell_matrices(self, degree):
        """The partial_A and partial_B matrices of every cell of one total
        degree, keyed by (cell, direction)."""
        return {(cell, direction): self.cell_matrix(cell, direction)
                for cell in self.degree_cells(degree) for direction in "AB"}

    def total_matrix(self, degree, cell_matrices=None):
        """Matrix of the total differential from total degree n to n+1.

        Assembled block by block from the cell matrices of degree n (built
        here unless given): partial_A, and partial_B negated when k is odd.
        """
        if cell_matrices is None:
            cell_matrices = self.cell_matrices(degree)
        row_offset = {}
        rows = 0
        for cell in self.degree_cells(degree + 1):
            row_offset[cell] = rows
            rows += self.cell_dim(cell)
        entries = {}
        cols = 0
        for cell in self.degree_cells(degree):
            k, l = cell
            for direction, target in (("A", (k + 1, l)), ("B", (k, l + 1))):
                # an absent target cell has no rows: cell_matrix has
                # already checked that the image vanishes
                base = row_offset.get(target)
                if base is None:
                    continue
                negate = direction == "B" and k % 2
                matrix = cell_matrices[(cell, direction)]
                for (i, j), value in matrix.entries.items():
                    entries[(base + i, cols + j)] = -value if negate else value
            cols += self.cell_dim(cell)
        return SparseMatrix(rows, cols, entries)

    def max_total_degree(self):
        return max((c[0] + c[1] for c in self.cells()), default=-1)


def _canonical_cells(mp):
    return [(k, l) for k in range(mp.A.rank + 1)
            for l in range(mp.B.rank + 1)]


def build_block(mp: MatchedPairData, truncation: Truncation, weight=None):
    """Enumerate the frozen basis of one block."""
    nvars = mp.A.chart.nvars
    basis = {}
    if truncation.mode == "total_degree":
        monos = monomials_up_to_degree(nvars, truncation.bound)
        for cell in _canonical_cells(mp):
            items = []
            for I in combinations(range(mp.A.rank), cell[0]):
                for J in combinations(range(mp.B.rank), cell[1]):
                    for exps in monos:
                        items.append((I, J, exps))
            basis[cell] = items
        return _Block(mp, None, basis)
    c_a, c_b = weight_exponents(mp)
    for cell in _canonical_cells(mp):
        k, l = cell
        degree = weight - c_a * k - c_b * l
        if degree < 0:
            basis[cell] = []
            continue
        monos = monomials_of_degree(nvars, degree)
        items = []
        for I in combinations(range(mp.A.rank), k):
            for J in combinations(range(mp.B.rank), l):
                for exps in monos:
                    items.append((I, J, exps))
        basis[cell] = items
    return _Block(mp, weight, basis)


def _block_report(block: _Block, method: str) -> BlockReport:
    cells = []
    dims = []
    ranks = []
    for degree in range(block.max_total_degree() + 1):
        matrices = block.cell_matrices(degree)
        for cell in block.degree_cells(degree):
            dim = block.cell_dim(cell)
            rank_a = matrices[(cell, "A")].rank(method)
            rank_b = matrices[(cell, "B")].rank(method)
            cells.append(CellReport(cell[0], cell[1], dim,
                                    dim - rank_a, rank_a,
                                    dim - rank_b, rank_b))
        total = block.total_matrix(degree, matrices)
        dims.append(total.ncols)
        ranks.append(total.rank(method))
        del matrices, total  # keep one degree's matrices alive at a time
    cells.sort(key=lambda c: (c.k, c.l))
    betti = []
    for degree, dim in enumerate(dims):
        incoming = ranks[degree - 1] if degree > 0 else 0
        betti.append(dim - ranks[degree] - incoming)
    return BlockReport(block.weight, tuple(cells), tuple(dims), tuple(betti))


def assemble_total(mp: MatchedPairData, truncation: Truncation):
    """All total-differential matrices of the truncation, labeled.

    Returns a list of (label, SparseMatrix) with consecutive matrices
    composing to zero (verified exactly by the caller's tests).
    """
    out = []
    blocks = _blocks_for(mp, truncation)
    for block in blocks:
        top = block.max_total_degree()
        for degree in range(top + 1):
            label = (f"w{block.weight}_d{degree}" if block.weight is not None
                     else f"d{degree}")
            out.append((label, block.total_matrix(degree)))
    return out


def _blocks_for(mp, truncation):
    if truncation.mode == "total_degree":
        return [build_block(mp, truncation)]
    return [build_block(mp, truncation, weight=w)
            for w in range(truncation.bound + 1)]


def betti(mp: MatchedPairData, truncation: Truncation,
          method: str = "sparse") -> BettiReport:
    """Betti numbers of the truncated double complex.

    Weight mode is exact per weight block for the polynomial model;
    total_degree mode computes the truncated subcomplex and is labeled a
    filtered approximation.
    """
    if method not in ("sparse", "oracle"):
        raise TruncationError(f"unknown method {method!r}")
    reports = [_block_report(block, method)
               for block in _blocks_for(mp, truncation)]
    label = ("exact_weight_graded" if truncation.mode == "weight"
             else "filtered_approximation")
    return BettiReport(truncation.mode, truncation.bound, method, label,
                       tuple(reports))


def betti_oracle(mp: MatchedPairData, truncation: Truncation) -> BettiReport:
    """Cross-validation route: dense naive elimination over GQ."""
    return betti(mp, truncation, method="oracle")


def canonical_pair_for(pi: Multivector) -> MatchedPairData:
    """Convenience wrapper used by the CLI."""
    return canonical_matched_pair(pi)
