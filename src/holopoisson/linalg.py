"""Exact rank computation over the Gaussian rationals.

Two independent routes are kept deliberately separate:

* ``markowitz_rank``: sparse Gaussian elimination straight over GQ, rows
  stored as dicts with a column -> rows index; each pivot is the entry of
  least Markowitz cost (r - 1)(c - 1), ties by (row, col), and only the
  rows with a nonzero in the pivot column are updated.  Deterministic.
* ``dense_rank``: naive dense Gaussian elimination straight over GQ with
  first-nonzero pivoting and no heuristics of any kind.  This is the
  cross-validation oracle and must stay simple.
"""

from __future__ import annotations

from .exactalg import GQ, Poly


class SparseMatrix:
    """Immutable-by-convention sparse matrix of GQ entries."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {}
        if entries:
            for (i, j), value in entries.items():
                value = GQ.of(value)
                if value.is_zero():
                    continue
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise IndexError(f"entry ({i},{j}) outside matrix")
                self.entries[(i, j)] = value

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def rows(self):
        """Dense row-major copy (GQ entries)."""
        zero = GQ(0)
        out = [[zero] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def rank(self, method: str = "sparse") -> int:
        if method == "sparse":
            return markowitz_rank(self)
        if method == "oracle":
            return dense_rank(self.rows())
        raise ValueError(f"unknown rank method {method!r}")


# ----------------------------------------------------------------------
# dense oracle over GQ

def dense_rank(rows) -> int:
    """Rank by plain Gaussian elimination over GQ, first-nonzero pivots."""
    m = [list(map(GQ.of, row)) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, nrows):
            if not m[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, nrows):
            factor = m[r][col]
            if factor.is_zero():
                continue
            scale = factor / pivot
            row_r = m[r]
            row_p = m[rank]
            for cc in range(col, ncols):
                if not row_p[cc].is_zero():
                    row_r[cc] = row_r[cc] - row_p[cc] * scale
        rank += 1
        if rank == nrows:
            break
    return rank


# ----------------------------------------------------------------------
# sparse elimination over GQ with Markowitz pivoting

def markowitz_rank(matrix: SparseMatrix) -> int:
    """Rank of a sparse GQ matrix by Gaussian elimination over GQ.

    Rows are dicts ``col -> value`` with a ``col -> rows`` index.  Each
    step pivots on the entry with the smallest Markowitz cost
    ``(r - 1)(c - 1)`` (r, c: nonzeros in its row and column), ties broken
    by the smaller (row, col), and updates only the rows with a nonzero in
    the pivot column.
    """
    rows: dict = {}
    cols: dict = {}
    # rows are only ever deleted, so the dict keeps ascending row order
    for i, j in sorted(matrix.entries):
        rows.setdefault(i, {})[j] = matrix.entries[(i, j)]
        cols.setdefault(j, set()).add(i)
    rank = 0
    while rows:
        best = pr = pc = None
        for i, row in rows.items():
            r1 = len(row) - 1
            for j in row:
                cost = r1 * (len(cols[j]) - 1)
                if (best is None or cost < best
                        or cost == best and i == pr and j < pc):
                    best, pr, pc = cost, i, j
            if best == 0:
                break  # later rows lose the tie on the row index
        pivot_row = rows.pop(pr)
        neg_inv = GQ(-1) / pivot_row.pop(pc)
        below = cols.pop(pc)
        below.discard(pr)
        for j in pivot_row:
            cols[j].discard(pr)
        for i in below:
            row = rows[i]
            factor = row.pop(pc) * neg_inv
            for j, value in pivot_row.items():
                old = row.get(j)
                if old is None:
                    row[j] = factor * value
                    cols[j].add(i)
                else:
                    new = old + factor * value
                    if new.is_zero():
                        del row[j]
                        cols[j].discard(i)
                    else:
                        row[j] = new
            if not row:
                del rows[i]
        rank += 1
    return rank


def column_space_equal(a, b) -> bool:
    """Exact column-space equality of two dense GQ matrices of equal height."""
    if len(a) != len(b):
        raise ValueError("matrices must have the same number of rows")
    ra = dense_rank(a)
    rb = dense_rank(b)
    joined = [list(ra_row) + list(rb_row) for ra_row, rb_row in zip(a, b)]
    return ra == rb == dense_rank(joined)


def gq_mat_inverse(rows):
    """Exact inverse of a square GQ matrix by Gauss-Jordan.

    Raises SingularError on degenerate input.
    """
    from .errors import SingularError

    m = len(rows)
    a = [list(map(GQ.of, row)) + [GQ(1) if i == j else GQ(0)
                                  for j in range(m)]
         for i, row in enumerate(rows)]
    for col in range(m):
        pivot_row = None
        for r in range(col, m):
            if not a[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            raise SingularError("matrix is singular")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        inv = GQ(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(m):
            if r == col or a[r][col].is_zero():
                continue
            factor = a[r][col]
            a[r] = [x - y * factor for x, y in zip(a[r], a[col])]
    return [row[m:] for row in a]


# ----------------------------------------------------------------------
# matrices of polynomials (used for endomorphism fields and anchors)

def poly_zero_matrix(chart, nrows, ncols):
    return [[Poly.zero(chart) for _ in range(ncols)] for _ in range(nrows)]


def poly_identity(chart, m):
    rows = poly_zero_matrix(chart, m, m)
    for k in range(m):
        rows[k][k] = Poly.one(chart)
    return rows


def poly_mat_mul(a, b):
    if not a or not b:
        return []
    chart = a[0][0].chart
    inner = len(b)
    out = []
    for row in a:
        new_row = []
        for j in range(len(b[0])):
            acc = Poly.zero(chart)
            for k in range(inner):
                if not row[k].is_zero() and not b[k][j].is_zero():
                    acc = acc + row[k] * b[k][j]
            new_row.append(acc)
        out.append(new_row)
    return out


def poly_mat_vec(a, v):
    """The product a v of a polynomial matrix and a coefficient list."""
    if not a:
        return []
    chart = a[0][0].chart
    out = []
    for row in a:
        acc = Poly.zero(chart)
        for entry, x in zip(row, v):
            if not entry.is_zero() and not x.is_zero():
                acc = acc + entry * x
        out.append(acc)
    return out


def poly_mat_transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def poly_mat_scale(a, s):
    return [[entry.scale(s) for entry in row] for row in a]


def poly_mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def poly_mat_eq(a, b) -> bool:
    if len(a) != len(b):
        return False
    return all(len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
               for ra, rb in zip(a, b))


def poly_mat_squares_to_minus_identity(a) -> bool:
    """a a = -1 exactly; true for the empty matrix."""
    if not a:
        return True
    minus_one = poly_mat_scale(poly_identity(a[0][0].chart, len(a)), GQ(-1))
    return poly_mat_eq(poly_mat_mul(a, a), minus_one)


def poly_mat_eval(a, point):
    """Evaluate a polynomial matrix at a rational point, giving GQ rows."""
    return [[entry.evaluate(point) for entry in row] for row in a]
