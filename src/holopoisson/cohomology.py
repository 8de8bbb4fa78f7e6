"""Double-complex differentials and exact Betti numbers of a matched pair.

A (k, l) cochain is a section of Lambda^k A* (x) Lambda^l B* presented by
components on pairs of increasing frame index sets.  The two coboundary
operators of the matched-pair double complex, partial_A and partial_B,
are linear differential operators with polynomial coefficients, so each
cell's operator is read off the matched-pair data once, into a table from
each source frame pair (I, J) to its target pairs (I', J').  Each target
has one list of terms (shift, v, c): first those of the vector field
rho(a_i), which differentiate along x_v, then those of one summed
multiplier for the connection and structure terms (v None).  The data the
tables read (anchor terms, signed connection and structure lists) is read
once per direction.  A matched pair (A, B) is symmetric: (B, A) is one
too, so the B-direction table is the A-direction table of the swapped pair
(MatchedPairData.swapped) with the A- and B-index tuples exchanged.  The
total differential on total degree k + l is partial_A + (-1)^k partial_B.

A cell's basis is its frame pairs outer and one monomial list inner, so a
basis element's column is start(I, J) + m, and a table term takes
monomial m of its source pair to row start(I', J') + position of its
target pair.  Each table term has a sparse run, computed once per shift
and coefficient: the target position and value of each monomial it does
not send to zero.  The cell matrices are written from the runs straight
into their row dicts, with no key built per term.  A cell with no
monomial has no frame pairs, and its matrix is empty with no table.

The route depends on the pair, the mode and the method alone.  In weight
mode with method "sparse", the double complex of a pair with the
canonical pair's shape (_reduces: A is T^{0,1}X on its d/dzb frame, both
connections are zero, B is holomorphic) is not built.  Its columns are
the polynomial de Rham complex in zb, exact above k = 0, and its rows are
d_pi on holomorphic polyvectors, so _reduced_reports fills every cell and
total_betti by counting from the ranks r(l, b) of d_pi on holomorphic
l-polyvectors with coefficients of degree b, which _reduced_ranks builds
as partial_B cell matrices on cells of holomorphic monomials.  Every other
case, --method oracle and total-degree mode, ranks the double complex.
The matrix dumps are the double complex's total matrices on every route:
assemble_total builds them, one at a time as its caller reaches them.

A truncation whose basis, counted before any block is built, is above
MAX_BASIS is a TruncationError: the double complex's (basis_size, checked
by _blocks_for, which the double-complex route and assemble_total both go
through), or the polyvectors the reduced route ranks (_reduced_size).  So
is one whose report would hold more than MAX_CELLS cells.  Otherwise, on
the double complex, Betti numbers are computed per truncation block, one
total degree at a time: the partial_A and partial_B matrices of that
degree's cells are built once, already in the coordinates of the degree's
total matrix (rows from the target cell's start, columns from the source
cell's start, partial_B negated at odd k), ranked for the cell reports,
and then merged in place into the total matrix.  The blocks of one
truncation share a layout: the cells' frame pairs, the monomials of each
degree, the tables and the runs.
Ranks come from two independent elimination routes over GQ: sparse
elimination (method "sparse"), which first peels the row and column
singletons (pivots that need no arithmetic) and then takes each pivot
from column-count buckets (a column of least count, its shortest row)
with no scan of the remaining nonzeros, and dense naive Gaussian
elimination (method "oracle").

The sparse route ranks through the complex.  Every block is a subcomplex
(an image that leaves it is a TruncationError), so D_{d+1} D_d = 0 there;
the pivot rows of D_d are rank D_d independent rows, so they and im D_d
span C_{d+1}, and rank D_{d+1} is the rank of D_{d+1} on the columns
outside them.  Each total matrix is ranked without the previous total
matrix's pivot rows, each partial_A at fixed l without those of the
partial_A before it, and each partial_B at fixed k likewise; all of them
are in degree coordinates, so the pivot rows of D_d are columns of
degree d + 1 as they are.  Every image
is computed in full all the same, so the escape check sees every column.
The oracle ranks every full matrix.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from operator import add

from .algebroid import MatchedPairData
from .errors import Record, TruncationError
from .exactalg import Poly, _accumulate
from .linalg import SparseMatrix
from .multivec import insert_index


def _signed(polys) -> list:
    """The (index, poly, -poly) triples of the nonzero entries of a list."""
    return [(m, p, -p) for m, p in enumerate(polys) if not p.is_zero()]


def _anchor_terms(row) -> tuple:
    """The anchor field sum_v row[v] d/dx_v as table terms (shift, v, c),
    by variable v, with x^(shift + 1_v) = each term's monomial, and the
    same for the negated field."""
    plus = tuple((tuple(e - 1 if w == v else e for w, e in enumerate(exps)),
                  v, c)
                 for v, poly in enumerate(row) for exps, c in poly.terms.items())
    return plus, tuple((shift, v, -c) for shift, v, c in plus)


def _direction_data(mp: MatchedPairData, direction: str) -> tuple:
    """What the coboundary tables of direction 'A' or 'B' read, once per
    direction: the two ranks, each frame's anchor terms and the signed
    connection and structure lists.  Direction 'B' reads the swapped
    pair."""
    if direction == "B":
        mp = mp.swapped()
    a = mp.A
    return (a.rank, mp.B.rank,
            [_anchor_terms(row) for row in a.anchor],
            [[_signed(vec) for vec in row] for row in mp.nablaAB.gamma],
            [[_signed(vec) for vec in row] for row in a.structure])


def _coboundary_table(data: tuple, k: int, l: int) -> dict:
    """The A-direction coboundary from cell (k, l) to (k + 1, l) of the
    pair whose _direction_data is given.

    On frame arguments (A_0..A_k, B_1..B_l) the coboundary of alpha is
    sum_i (-1)^i [ a(A_i) alpha(..hat A_i.., B..)
                   - sum_j alpha(..hat A_i.., B_1, .., nabla_{A_i} B_j, ..) ]
    + sum_{i<j} (-1)^{i+j} alpha([A_i,A_j], ..hat A_i..hat A_j.., B..).
    Each term takes the component of alpha on one source frame pair (I, J)
    into one target pair (I', J'), either through the anchor (a vector
    field) or by multiplication with a polynomial.  The table maps each
    source pair to a tuple of entries (target, terms), each term
    (shift, v, c) taking x^e to c e_v x^(e + shift) (the field's term
    c x^(shift + 1_v) d/dx_v), or, with v None, to c x^(e + shift) (a term
    of the summed multiplier).  The field's terms come first, by variable,
    then the multiplier's.  A source and a target differ in one A-index, so
    the anchor part of each pair is one frame's anchor field, signed; the
    structure terms, which do not depend on the B-indices, are read once
    per A-index tuple.
    """
    rank_a, rank_b, anchors, gamma, structure = data
    fields: dict = {}  # (source, target) -> anchor terms
    mults: dict = {}  # (source, target) -> multiplier
    for I_out in combinations(range(rank_a), k + 1):
        brackets = []  # (source I, coefficient) of the structure terms
        for t in range(k + 1):
            for u in range(t + 1, k + 1):
                rest = I_out[:t] + I_out[t + 1:u] + I_out[u + 1:]
                sign = -1 if (t + u) % 2 else 1
                for m, c, minus_c in structure[I_out[t]][I_out[u]]:
                    merged = insert_index(m, rest)
                    if merged is not None:
                        key, ins = merged
                        brackets.append((key, c if sign * ins > 0
                                         else minus_c))
        for J_out in combinations(range(rank_b), l):
            target = (I_out, J_out)
            for t, i in enumerate(I_out):
                rest = I_out[:t] + I_out[t + 1:]
                sign = -1 if t % 2 else 1
                plus, minus = anchors[i]
                if plus:
                    fields[((rest, J_out), target)] = (
                        plus if sign > 0 else minus)
                for s, j in enumerate(J_out):
                    others = J_out[:s] + J_out[s + 1:]
                    slot_sign = -1 if s % 2 else 1
                    for m, c, minus_c in gamma[i][j]:
                        merged = insert_index(m, others)
                        if merged is None:
                            continue
                        key, ins = merged
                        _accumulate(mults, ((rest, key), target),
                                    minus_c if sign * slot_sign * ins > 0
                                    else c)
            for key, c in brackets:
                _accumulate(mults, ((key, J_out), target), c)
    grouped: dict = {}
    for (source, target), terms in fields.items():
        grouped.setdefault(source, {})[target] = terms
    for (source, target), poly in mults.items():
        targets = grouped.setdefault(source, {})
        targets[target] = targets.get(target, ()) + tuple(
            (exps, None, c) for exps, c in poly.terms.items())
    return {source: tuple(targets.items())
            for source, targets in grouped.items()}


def _cell_table(data: tuple, cell, direction: str) -> dict:
    """The coboundary table of one cell in direction 'A' or 'B', from that
    direction's _direction_data.  The B table is the A table of the
    swapped pair on cell (l, k), with the index pairs of its sources and
    targets exchanged."""
    k, l = cell
    if direction == "A":
        return _coboundary_table(data, k, l)
    swapped = _coboundary_table(data, l, k)
    return {(I, J): tuple(((I2, J2), terms) for (J2, I2), terms in entries)
            for (J, I), entries in swapped.items()}


# ----------------------------------------------------------------------
# truncation and basis enumeration

class Truncation(Record):
    __slots__ = ("mode", "bound")  # mode is "total_degree" or "weight"

    def __init__(self, mode: str, bound: int):
        if mode not in ("total_degree", "weight"):
            raise TruncationError(f"unknown truncation mode {mode!r}")
        if bound < 0:
            raise TruncationError("truncation bound must be >= 0")
        super().__init__(mode, bound)


def _homogeneous_degree(poly: Poly):
    """Degree of a homogeneous polynomial; None for zero; error if mixed."""
    if poly.is_zero():
        return None
    degs = {sum(e) for e in poly.terms}
    if len(degs) != 1:
        raise TruncationError(
            "weight mode requires homogeneous structure data")
    return degs.pop()


def _direction_shift(mp: MatchedPairData) -> set:
    """Degree shifts of the A-direction data: anchor entries shift by their
    degree minus one, connection and structure coefficients by their
    degree."""
    shifts = set()
    for row in mp.A.anchor:
        for entry in row:
            d = _homogeneous_degree(entry)
            if d is not None:
                shifts.add(d - 1)
    for table in (mp.nablaAB.gamma, mp.A.structure):
        for row in table:
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
    shifts_a = _direction_shift(mp)
    shifts_b = _direction_shift(mp.swapped())
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
    # (prefix, remaining degree), one variable's exponent at a time
    level = [((), degree)]
    for _ in range(nvars - 1):
        level = [(prefix + (e,), remaining - e) for prefix, remaining in level
                 for e in range(remaining, -1, -1)]
    return [prefix + (remaining,) for prefix, remaining in level]


def monomials_up_to_degree(nvars: int, bound: int):
    out = []
    for d in range(bound + 1):
        out.extend(monomials_of_degree(nvars, d))
    return out


class CellReport(Record):
    __slots__ = ("k", "l", "dim", "ker_A", "rank_A", "ker_B", "rank_B")


class BlockReport(Record):
    __slots__ = ("weight", "cells", "total_dims", "total_betti")


class BettiReport(Record):
    __slots__ = ("mode", "bound", "method", "label", "blocks")

    def block(self, weight):
        for b in self.blocks:
            if b.weight == weight:
                return b
        raise KeyError(weight)


class _Cell:
    """The frozen basis of one cell, frame pairs outer and monomials
    inner: position p * len(monos) + m holds (I, J, monos[m]) for
    (I, J) = pairs[p].  pair_index maps each pair to its p, positions each monomial to its m;
    degrees is the (low, high) range of the monomials' degrees.  A cell
    with no monomial has no pairs."""

    __slots__ = ("pairs", "pair_index", "monos", "positions", "degrees")

    def __init__(self, pairs, pair_index, monos, positions, degrees):
        self.pairs = pairs
        self.pair_index = pair_index
        self.monos = monos
        self.positions = positions
        self.degrees = degrees

    def __len__(self):
        return len(self.pairs) * len(self.monos)


class _Layout:
    """What the blocks of one matched pair share, each part built on first
    use: the frame pairs of each cell, the monomials of each degree range
    with their positions, each direction's data, the coboundary table of
    each (cell, direction), and the sparse runs of the table terms that
    cell matrices read.  A holomorphic layout's monomials are those of
    z_1..z_n, with zero zb exponents."""

    __slots__ = ("mp", "zeros", "pairs", "monos", "data", "tables", "runs")

    def __init__(self, mp: MatchedPairData, holomorphic=False):
        self.mp = mp
        self.zeros = (0,) * mp.A.chart.n if holomorphic else None
        self.pairs = {}
        self.monos = {}
        self.data = {}
        self.tables = {}
        self.runs = {}

    def cell(self, k, l, low, high) -> _Cell:
        """Cell (k, l) with the monomials of degrees low..high (none if
        high < 0) on each frame pair; no pair is enumerated when there is
        no monomial."""
        degrees = (low, high)
        found = self.monos.get(degrees)
        if found is None:
            zeros = self.zeros
            nvars = self.mp.A.chart.nvars if zeros is None else len(zeros)
            if high < 0:
                monos = []
            elif low == high:
                monos = monomials_of_degree(nvars, low)
            else:
                monos = monomials_up_to_degree(nvars, high)
            if zeros:
                monos = [exps + zeros for exps in monos]
            found = self.monos[degrees] = (
                monos, {exps: m for m, exps in enumerate(monos)})
        monos, positions = found
        if not monos:
            return _Cell((), {}, monos, positions, degrees)
        pairs = self.pairs.get((k, l))
        if pairs is None:
            listed = [(I, J) for I in combinations(range(self.mp.A.rank), k)
                      for J in combinations(range(self.mp.B.rank), l)]
            pairs = self.pairs[(k, l)] = (
                listed, {pair: p for p, pair in enumerate(listed)})
        return _Cell(*pairs, monos, positions, degrees)

    def table(self, cell, direction):
        key = (cell, direction)
        table = self.tables.get(key)
        if table is None:
            data = self.data.get(direction)
            if data is None:
                data = self.data[direction] = _direction_data(self.mp,
                                                              direction)
            table = self.tables[key] = _cell_table(data, cell, direction)
        return table

    def run(self, source: _Cell, goal, shift, v, c) -> tuple:
        """One table term's sparse run from source into goal (a _Cell, or
        None when the term's target pair is not there): the term takes
        monomial e = source.monos[m] to value x^(e + shift), with value
        c e_v for the anchor term c x^(shift + 1_v) d/dx_v (none where
        e_v = 0) and c for a multiplier term (v None).  The run is the
        (m, position in goal, value) of each monomial with a value, and
        the (m, value) of those whose x^(e + shift) is not in goal."""
        key = (source.degrees, None if goal is None else goal.degrees,
               shift, v, c)
        found = self.runs.get(key)
        if found is None:
            positions = {} if goal is None else goal.positions
            inside, outside = [], []
            for m, exps in enumerate(source.monos):
                if v is None:
                    value = c
                else:
                    e = exps[v]
                    if not e:
                        continue
                    value = c if e == 1 else c * e
                pos = positions.get(tuple(map(add, exps, shift)))
                if pos is None:
                    outside.append((m, value))
                else:
                    inside.append((m, pos, value))
            found = self.runs[key] = (inside, outside)
        return found


def _place(rows, run, row, col, escapes, escape):
    """Add one table term's run into the row dicts: rows[row + position]
    [col + m] += value, dropping an entry (and then a row) that sums to
    zero.  The values outside the target basis are added into escapes
    under escape + (m,) instead."""
    inside, outside = run
    for m, pos, value in inside:
        i = row + pos
        entries = rows.get(i)
        if entries is None:
            rows[i] = {col + m: value}
            continue
        j = col + m
        old = entries.get(j)
        if old is None:
            entries[j] = value
        else:
            value = old + value
            if not value.is_zero():
                entries[j] = value
            elif len(entries) > 1:
                del entries[j]
            else:
                del rows[i]
    for m, value in outside:
        _accumulate(escapes, escape + (m,), value)


class _Block:
    """One truncation block: a finite complex with frozen basis order.

    basis maps each cell (k, l) to its _Cell; layout is shared with the
    pair's other blocks."""

    def __init__(self, mp: MatchedPairData, weight, basis, layout):
        self.mp = mp
        self.weight = weight
        self.basis = basis
        self.layout = layout

    def cells(self):
        return sorted(self.basis)

    def cell_dim(self, cell):
        found = self.basis.get(cell)
        return 0 if found is None else len(found)

    def cell_matrix(self, cell, direction, row_start=0, col_start=0,
                    negate=False, shape=None):
        """Matrix of partial_A (direction 'A') or partial_B ('B') from one
        cell to its neighbor, in the frozen basis order; an image outside
        the target cell's basis is a TruncationError.

        Column col_start + p * len(monos) + m is monomial m on source frame
        pair p, and row row_start + q * width + position is the monomial at
        that position on target pair q; negate negates every entry, and
        shape (nrows, ncols) defaults to the two cells' dimensions.  So the
        defaults give the cell's own matrix, and cell_matrices places it
        in the total matrix of its degree.  Each table term of a source
        pair adds its sparse run (the target position and value of each
        monomial, computed once per shift and coefficient) straight into
        the row dicts; an image outside the target basis is kept per
        target pair, shift and monomial, and is an error only if it is
        not zero once the pair's terms are in.  An empty cell has no
        table."""
        k, l = cell
        target = (k + 1, l) if direction == "A" else (k, l + 1)
        source = self.basis[cell]
        goal = self.basis.get(target)
        if shape is None:
            shape = (0 if goal is None else len(goal), len(source))
        rows = {}
        size = len(source.monos)
        if not size:
            return SparseMatrix.from_rows(*shape, rows)
        layout = self.layout
        run = layout.run
        table = layout.table(cell, direction)
        if goal is None:
            pair_index, width = {}, 0
        else:
            pair_index, width = goal.pair_index, len(goal.monos)
        for p, pair in enumerate(source.pairs):
            entries = table.get(pair)
            if entries is None:
                continue
            col = col_start + p * size
            escapes = {}
            for goal_pair, terms in entries:
                q = pair_index.get(goal_pair)
                if q is None:
                    into, row = None, 0
                else:
                    into, row = goal, row_start + q * width
                for shift, v, c in terms:
                    _place(rows, run(source, into, shift, v,
                                     -c if negate else c),
                           row, col, escapes, (goal_pair, shift))
            if escapes:
                raise TruncationError(
                    "differential escapes the truncated basis; "
                    "choose a compatible truncation")
        return SparseMatrix.from_rows(*shape, rows)

    def degree_cells(self, degree):
        return [c for c in self.cells() if c[0] + c[1] == degree]

    def starts(self, degree):
        """Each cell of one total degree -> its first position in that
        degree's basis, and the degree's dimension."""
        out = {}
        size = 0
        for cell in self.degree_cells(degree):
            out[cell] = size
            size += self.cell_dim(cell)
        return out, size

    def cell_matrices(self, degree):
        """The partial_A and partial_B matrices of every cell of one total
        degree, keyed by (cell, direction), each placed in the coordinates
        of the total matrix from that degree to the next: rows from the
        target cell's start, columns from the source cell's start,
        partial_B negated when k is odd."""
        cols, ncols = self.starts(degree)
        rows, nrows = self.starts(degree + 1)
        out = {}
        for cell, col_start in cols.items():
            k, l = cell
            for direction, target in (("A", (k + 1, l)), ("B", (k, l + 1))):
                # an absent target cell gets no rows: its start is unused
                out[(cell, direction)] = self.cell_matrix(
                    cell, direction, rows.get(target, 0), col_start,
                    direction == "B" and k % 2 == 1, (nrows, ncols))
        return out

    def total_matrix(self, degree, cell_matrices=None):
        """Matrix of the total differential from total degree n to n+1.

        The placed cell matrices of degree n (built here unless given)
        merged in place: the first matrix to reach a row gives that row's
        dict, and later ones update it (partial_A and partial_B of two
        cells can reach one row, on columns of their own).  The given
        matrices are consumed: their row dicts become the total's.
        """
        if cell_matrices is None:
            cell_matrices = self.cell_matrices(degree)
        rows = {}
        for matrix in cell_matrices.values():
            for i, row in matrix.row_dicts.items():
                found = rows.get(i)
                if found is None:
                    rows[i] = row
                else:
                    found.update(row)
        return SparseMatrix.from_rows(self.starts(degree + 1)[1],
                                      self.starts(degree)[1], rows)

    def max_total_degree(self):
        return max((c[0] + c[1] for c in self.cells()), default=-1)


def _canonical_cells(mp):
    return [(k, l) for k in range(mp.A.rank + 1)
            for l in range(mp.B.rank + 1)]


# The most basis elements betti and assemble_total take, over all blocks
# of a truncation, as the route counts them.  On the double complex, so4 at weight 4 has
# 396 160 and takes about 2 s cold on a 2-CPU x86-64 host, and
# quadratic.json at weight 60, which ran past a minute there, has
# 10 181 632.  The slowest corpus case that the reduced route's count
# admits is sl2_realified.json at its top weight, 73 (492 100 polyvectors
# ranked): 7.0-9.7 s cold there (the CLI's elapsed, 6 runs), 46 MB peak
# RSS.  so4 at its top weight, 9 (315 315), took 1.23 s (median of 5).
MAX_BASIS = 500_000

# The most cells a report holds, (bound + 1)(r_A + 1)(r_B + 1), on every
# route: a chart with no variables has a one-element basis at any bound,
# which MAX_BASIS cannot refuse.  The largest report that the tests and
# the cold ladder ask for, quadratic.json at weight 60, has 549 cells,
# 1/21 of this.  A Lie algebra of rank 0 at 12 000 cells (weight 11 999)
# took 0.35 s cold on the reduced route and 0.65 s on the double complex,
# on the same host.
MAX_CELLS = 12_000


def _at_most(nvars: int, degree: int) -> int:
    """The number of monomials in nvars variables of degree <= degree."""
    return comb(degree + nvars, nvars) if degree >= 0 else 0


def basis_size(mp: MatchedPairData, truncation: Truncation) -> int:
    """The truncation's basis dimension, summed over its blocks, by
    counting: cell (k, l) has C(r_A, k) C(r_B, l) frame pairs, each with
    the monomials of degree w - c_A k - c_B l for each weight
    0 <= w <= bound.  Total-degree mode is the case c_A = c_B = 0."""
    if truncation.mode == "weight":
        c_a, c_b = weight_exponents(mp)
    else:
        c_a = c_b = 0
    nvars = mp.A.chart.nvars
    return sum(comb(mp.A.rank, k) * comb(mp.B.rank, l)
               * (_at_most(nvars, truncation.bound - c_a * k - c_b * l)
                  - _at_most(nvars, -c_a * k - c_b * l - 1))
               for k, l in _canonical_cells(mp))


def build_block(mp: MatchedPairData, truncation: Truncation, weight=None,
                layout=None):
    """Enumerate the frozen basis of one block; layout holds the frame
    pairs, monomials and coboundary tables to share with the pair's other
    blocks (a new one if None)."""
    if layout is None:
        layout = _Layout(mp)
    if truncation.mode == "total_degree":
        weight = None
    else:
        c_a, c_b = weight_exponents(mp)
    basis = {}
    for k, l in _canonical_cells(mp):
        if weight is None:
            basis[(k, l)] = layout.cell(k, l, 0, truncation.bound)
        else:
            degree = weight - c_a * k - c_b * l
            basis[(k, l)] = layout.cell(k, l, degree, degree)
    return _Block(mp, weight, basis, layout)


def _block_report(block: _Block, method: str) -> BlockReport:
    """Ranks and Betti numbers of one block, one total degree at a time.

    A rank goes through the complex: the pivot rows P of a differential
    D_d (rank D_d independent rows) and im D_d together span C_{d+1}, and
    D_{d+1} kills im D_d, so rank D_{d+1} is the rank of D_{d+1} on the
    columns outside P.  The sparse route ranks each total matrix, each
    partial_A at fixed l and each partial_B at fixed k that way, on the
    pivot rows of the one before it; the oracle ranks every full matrix.
    Every matrix is in degree coordinates, so the pivot rows of D_d are
    columns of degree d + 1 as they are.  The cell matrices are ranked
    before total_matrix merges them, which consumes them.
    """
    cells = []
    dims = []
    ranks = []
    pivots = {}  # (target cell, direction) or "total" -> pivot rows
    for degree in range(block.max_total_degree() + 1):
        matrices = block.cell_matrices(degree)
        previous, pivots = pivots, {}
        for cell in block.degree_cells(degree):
            k, l = cell
            dim = block.cell_dim(cell)
            cell_ranks = []
            for direction, target in (("A", (k + 1, l)), ("B", (k, l + 1))):
                matrix = matrices[(cell, direction)].without_columns(
                    previous.get((cell, direction)))
                cell_ranks.append(matrix.rank(method))
                pivots[(target, direction)] = matrix.pivot_rows
            rank_a, rank_b = cell_ranks
            cells.append(CellReport(k, l, dim, dim - rank_a, rank_a,
                                    dim - rank_b, rank_b))
        total = block.total_matrix(degree, matrices)
        dims.append(total.ncols)
        total = total.without_columns(previous.get("total"))
        ranks.append(total.rank(method))
        pivots["total"] = total.pivot_rows
        del matrices, total  # keep one degree's matrices alive at a time
    cells.sort(key=lambda c: (c.k, c.l))
    betti = []
    for degree, dim in enumerate(dims):
        incoming = ranks[degree - 1] if degree > 0 else 0
        betti.append(dim - ranks[degree] - incoming)
    return BlockReport(block.weight, tuple(cells), tuple(dims), tuple(betti))


def _reduces(mp: MatchedPairData) -> bool:
    """Whether the double complex of mp collapses to the reduced complex
    of B, checked exactly on the data: A's anchor is the d/dzb frame and
    its structure functions are zero, both connections are zero on frames,
    and B's anchor and structure functions have no zb and no d/dzb entry.
    Every pair of holomorphic_matched_pair with holomorphic data passes,
    the canonical pairs included."""
    a, b = mp.A, mp.B
    chart = a.chart
    n = chart.n
    if not chart.is_complex() or a.rank != n:
        return False
    one = Poly.one(chart)
    if any(entry != one if v == n + k else entry.terms
           for k, row in enumerate(a.anchor) for v, entry in enumerate(row)):
        return False
    if any(p.terms for table in (a.structure, mp.nablaAB.gamma,
                                 mp.nablaBA.gamma)
           for row in table for section in row for p in section):
        return False
    return (all(not p.terms for row in b.anchor for p in row[n:])
            and all(p.is_holomorphic()
                    for section in b.anchor + [v for row in b.structure
                                               for v in row]
                    for p in section))


def _reduced_size(mp: MatchedPairData, bound: int, c_b: int) -> int:
    """The basis that _reduced_ranks ranks, by counting: the C(r_B, l)
    frames of each l < r_B, each with the holomorphic monomials of degree
    b for 0 <= b <= bound - c_b l."""
    r_b = mp.B.rank
    return sum(comb(r_b, l) * _at_most(mp.A.chart.n, bound - c_b * l)
               for l in range(r_b))


def _reduced_ranks(mp: MatchedPairData, bound: int, c_b: int) -> dict:
    """r[(l, b)]: the rank of d_pi from holomorphic l-polyvectors with
    coefficients of degree b, for 0 <= l < r_B and 0 <= b <= bound - c_b l
    (a missing key is rank 0).  Each is a partial_B cell matrix on the
    k = 0 row, built from B's coboundary table and runs on cells of
    holomorphic monomials.  The (l, b) lie on the chains b + c_b l = t, the
    reduced complex of weight t, and each chain is ranked through the
    complex as a block is: each matrix without the previous pivot rows."""
    r_b = mp.B.rank
    layout = _Layout(mp, holomorphic=True)
    ranks = {}
    for t in range(min(0, c_b * (r_b - 1)), bound + 1) if r_b else ():
        degrees = [t - c_b * l for l in range(r_b + 1)]
        block = _Block(mp, t, {(0, l): layout.cell(0, l, degree, degree)
                               for l, degree in enumerate(degrees)}, layout)
        pivots = None
        for l, degree in enumerate(degrees[:-1]):
            if degree < 0:
                pivots = None
                continue
            matrix = block.cell_matrix((0, l), "B").without_columns(pivots)
            ranks[(l, degree)] = matrix.rank("sparse")
            pivots = matrix.pivot_rows
        # the chains of a linear pi share no degree, so no run is read
        # again: keep one chain's runs at a time
        layout.runs.clear()
    return ranks


def _reduced_reports(mp: MatchedPairData, bound: int, c_a: int,
                     c_b: int) -> list:
    """The block reports of weights 0..bound of a pair that _reduces, from
    counting and the ranks r(l, b) of _reduced_ranks alone.

    A cochain of cell (k, l) and degree D = w - c_A k - c_B l is a sum of
    zb^a z^b dzb_I (x) e_J with a + b = D; write #(m) for the monomials of
    degree m in n variables.  partial_A is d on the polynomial k-forms in
    zb, the identity on z^b e_J.  Its rank on degree a is rho(k, a), and
    the polynomial Poincare lemma (d exact on forms of weight a + k >= 1)
    gives rho(k, a) = C(n, k) #(a) - rho(k - 1, a + 1), with rho(-1, .) =
    rho(0, 0) = 0.  Summed over a + b = D with the weights C(r_B, l) #(b),
    that is rank_A(k, l) = dim(k, l) - rank_A(k - 1, l), one degree up,
    for k >= 1 (rho(k - 1, 0) = 0), and rank_A(0, l) = dim(0, l) -
    C(r_B, l) #(D).  partial_B is d_pi on z^b e_J, the identity on
    zb^a dzb_I, so rank_B = C(n, k) sum #(a) r(l, b).  The columns are
    exact above k = 0 and the k = 0 row is the reduced complex, so the
    spectral sequence stops at E2: total_betti at degree d is the reduced
    complex's H^d at coefficient degree w - c_B d."""
    n, r_b = mp.A.rank, mp.B.rank
    nvars = mp.A.chart.nvars
    ranks = _reduced_ranks(mp, bound, c_b)
    nonzero = [[(b, r) for (j, b), r in sorted(ranks.items()) if j == l and r]
               for l in range(r_b + 1)]
    convolved = {}  # (l, D) -> sum over a + b = D of #(a) r(l, b)

    def count(degree, nvars=n):
        return _at_most(nvars, degree) - _at_most(nvars, degree - 1)

    reports = []
    for weight in range(bound + 1):
        cells = []
        dims = [0] * (n + r_b + 1)
        column = [0] * (r_b + 1)  # rank_A(k - 1, l) for each l
        for k in range(n + 1):
            for l in range(r_b + 1):
                degree = weight - c_a * k - c_b * l
                dim = comb(n, k) * comb(r_b, l) * count(degree, nvars)
                rank_a = column[l] = dim - (
                    column[l] if k else comb(r_b, l) * count(degree))
                key = (l, degree)
                found = convolved.get(key)
                if found is None:
                    found = convolved[key] = sum(
                        count(degree - b) * r for b, r in nonzero[l]
                        if b <= degree)
                rank_b = comb(n, k) * found
                cells.append(CellReport(k, l, dim, dim - rank_a, rank_a,
                                        dim - rank_b, rank_b))
                dims[k + l] += dim
        betti = [0] * len(dims)
        for d in range(r_b + 1):
            degree = weight - c_b * d
            betti[d] = (comb(r_b, d) * count(degree)
                        - ranks.get((d, degree), 0)
                        - ranks.get((d - 1, degree + c_b), 0))
        reports.append(BlockReport(weight, tuple(cells), tuple(dims),
                                   tuple(betti)))
    return reports


def assemble_total(mp: MatchedPairData, truncation: Truncation):
    """All total-differential matrices of the truncation, labeled
    d<degree>, or w<weight>_d<degree> in weight mode: the double complex's
    on every route, refused above budget as betti's double complex is,
    when assemble_total is called.

    Returns an iterator of (label, SparseMatrix) in degree order, block by
    block, that builds each matrix when it is reached, so a caller that
    writes each one out holds one at a time.  Consecutive matrices compose
    to zero (verified exactly by the caller's tests).
    """
    return ((f"d{degree}" if block.weight is None
             else f"w{block.weight}_d{degree}", block.total_matrix(degree))
            for block in _blocks_for(mp, truncation)
            for degree in range(block.max_total_degree() + 1))


def _check_budget(mp: MatchedPairData, truncation: Truncation, size: int):
    """Refuse a truncation of size basis elements, as its route counts
    them, above MAX_BASIS, or one whose report would hold more than
    MAX_CELLS cells."""
    if size > MAX_BASIS:
        raise TruncationError(
            f"the truncation has {size} basis elements, more than the "
            f"{MAX_BASIS} cohomology takes; choose a smaller bound")
    cells = (truncation.bound + 1) * (mp.A.rank + 1) * (mp.B.rank + 1)
    if cells > MAX_CELLS:
        raise TruncationError(
            f"the truncation has {cells} cells, more than the {MAX_CELLS} "
            "cohomology takes; choose a smaller bound")


def _blocks_for(mp, truncation):
    """The truncation's blocks of the double complex, sharing one layout,
    once its counted basis (basis_size) and cells are within budget.  The
    budget is checked at the call; the weight blocks are built one at a
    time, as the caller reaches them."""
    _check_budget(mp, truncation, basis_size(mp, truncation))
    layout = _Layout(mp)
    if truncation.mode == "total_degree":
        return [build_block(mp, truncation, layout=layout)]
    return (build_block(mp, truncation, weight=w, layout=layout)
            for w in range(truncation.bound + 1))


def betti(mp: MatchedPairData, truncation: Truncation,
          method: str = "sparse") -> BettiReport:
    """Betti numbers of the truncated double complex.

    Weight mode is exact per weight block for the polynomial model;
    total_degree mode computes the truncated subcomplex and is labeled a
    filtered approximation.  In weight mode with method "sparse", a pair
    that _reduces is ranked on its reduced complex (_reduced_reports);
    every other case ranks the double complex.
    """
    if method not in ("sparse", "oracle"):
        raise TruncationError(f"unknown method {method!r}")
    if (truncation.mode == "weight" and method == "sparse"
            and _reduces(mp)):
        c_a, c_b = weight_exponents(mp)
        _check_budget(mp, truncation,
                      _reduced_size(mp, truncation.bound, c_b))
        reports = _reduced_reports(mp, truncation.bound, c_a, c_b)
    else:
        reports = [_block_report(block, method)
                   for block in _blocks_for(mp, truncation)]
    label = ("exact_weight_graded" if truncation.mode == "weight"
             else "filtered_approximation")
    return BettiReport(truncation.mode, truncation.bound, method, label,
                       tuple(reports))
