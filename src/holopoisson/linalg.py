"""Exact rank computation over the Gaussian rationals.

A ``SparseMatrix`` holds its nonzero entries as rows, dicts
``{row: {col: GQ}}``.  ``SparseMatrix(nrows, ncols, entries)`` checks and
converts a dict ``{(row, col): value}``; ``SparseMatrix.from_rows`` takes
row dicts as they are, for routes that build them nonzero and in range.
``without_columns`` is a view of the same rows with some columns left
out, so restricting a matrix copies nothing.

Two independent routes are kept deliberately separate:

* ``markowitz_rank``: sparse Gaussian elimination straight over GQ.  It
  first peels the singletons, pivots of Markowitz cost 0 that need no
  arithmetic: columns with one nonzero, then rows with one nonzero, each
  kind until none is left, on counts over the matrix's rows, which it
  leaves as they are.  One loop peels both kinds, the rows' on the
  transposed incidence.  It copies only the rows left after the peel, with
  a column -> rows index.  The columns left are kept in buckets by
  nonzero count; each further pivot is in a column of least count, on
  its shortest row (ties to the smaller row index), found with no scan
  of the remaining nonzeros, and only the rows with a nonzero in the
  pivot column are updated.  Deterministic.  Its pivot rows are
  rank-many linearly independent rows of the matrix; ``rank("sparse")``
  keeps them as ``pivot_rows``.
* ``dense_rank``: naive dense Gaussian elimination straight over GQ with
  first-nonzero pivoting and no heuristics of any kind.  This is the
  cross-validation oracle and must stay simple.
"""

from __future__ import annotations

from .errors import SingularError
from .exactalg import GQ, Poly

_NO_COLUMNS = frozenset()
_MINUS_ONE = GQ(-1)


class SparseMatrix:
    """Immutable-by-convention sparse matrix of GQ entries, held as rows.

    ``row_dicts`` maps each row with a nonzero entry to its dict
    ``{col: GQ}``; the columns in ``skip`` are left out of every reading
    (``entries``, ``nnz``, ``rows()`` and ``rank``).  ``pivot_rows`` is
    None until ``rank("sparse")`` sets it to the set of the elimination's
    pivot rows.
    """

    __slots__ = ("nrows", "ncols", "row_dicts", "skip", "pivot_rows")

    def __init__(self, nrows: int, ncols: int, entries=None):
        rows = {}
        if entries:
            for (i, j), value in entries.items():
                value = GQ.of(value)
                if value.is_zero():
                    continue
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise IndexError(f"entry ({i},{j}) outside matrix")
                rows.setdefault(i, {})[j] = value
        self.nrows = nrows
        self.ncols = ncols
        self.row_dicts = rows
        self.skip = _NO_COLUMNS
        self.pivot_rows = None

    @classmethod
    def from_rows(cls, nrows: int, ncols: int, row_dicts,
                  skip=_NO_COLUMNS) -> "SparseMatrix":
        """The matrix of the row dicts, unchecked and not copied: every
        row and column in range, every row nonempty, every value a
        nonzero GQ."""
        matrix = cls.__new__(cls)
        matrix.nrows = nrows
        matrix.ncols = ncols
        matrix.row_dicts = row_dicts
        matrix.skip = skip
        matrix.pivot_rows = None
        return matrix

    def without_columns(self, columns) -> "SparseMatrix":
        """A view of this matrix with the given columns (a set) left out
        as well, sharing its shape and rows; the matrix itself when
        columns is empty or None."""
        if not columns:
            return self
        return SparseMatrix.from_rows(self.nrows, self.ncols, self.row_dicts,
                                      self.skip | columns)

    @property
    def entries(self) -> dict:
        """The nonzero entries as a new dict ``{(row, col): GQ}``."""
        skip = self.skip
        return {(i, j): v for i, row in self.row_dicts.items()
                for j, v in row.items() if j not in skip}

    @property
    def nnz(self) -> int:
        if not self.skip:
            return sum(map(len, self.row_dicts.values()))
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
            self.pivot_rows = set()
            return markowitz_rank(self, self.pivot_rows)
        if method == "oracle":
            # the dense block on the nonzero rows and columns, in order:
            # the zero rows and columns that a placed cell matrix is
            # padded with change no rank
            entries = self.entries
            rows = sorted({i for i, _ in entries})
            cols = sorted({j for _, j in entries})
            row_at = {i: r for r, i in enumerate(rows)}
            col_at = {j: c for c, j in enumerate(cols)}
            zero = GQ(0)
            block = [[zero] * len(cols) for _ in rows]
            for (i, j), v in entries.items():
                block[row_at[i]][col_at[j]] = v
            return dense_rank(block)
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
# sparse elimination over GQ: singletons peeled, then pivots from
# column-count buckets

def _peel(count, index, length, source, stack) -> dict:
    """Peel the column singletons (count and index by column, length and
    source by row), or with the two swapped the row singletons.  Each
    line popped from stack that has not left pivots on its one live cross
    line, which leaves, so the lines of that cross line lose one count
    each (pushed at 1, gone at 0).  Returns the pivots, line -> cross
    line."""
    pivots = {}
    while stack:
        line = stack.pop()
        if count.pop(line, None) is None:
            continue  # its one cross line was an earlier pivot's
        for cross in index[line]:
            if cross in length:
                break
        del length[cross]
        for j in source[cross]:
            n = count.get(j)
            if n is None:
                continue
            if n == 2:
                count[j] = 1
                stack.append(j)
            elif n == 1:
                del count[j]
            else:
                count[j] = n - 1
        pivots[line] = cross
    return pivots


def markowitz_rank(matrix: SparseMatrix, pivot_rows: set) -> int:
    """Rank of a sparse GQ matrix by Gaussian elimination over GQ.

    The peel runs on counts over the matrix's own row dicts, which it
    does not change: a ``col -> rows`` index (lists in row order, the
    skipped columns left out), each live column's count of live rows and
    each live row's length.  First the pivots of Markowitz cost
    (r - 1)(c - 1) = 0 are peeled, with no GQ arithmetic, until no
    singleton is left: a column with one live row pivots on that row,
    which leaves (its columns' counts drop); then a row with one live
    column pivots on that entry, and its column leaves every other row
    (their lengths drop), the same loop (_peel) on the transpose.  Each
    removal can make a new singleton of its own kind, never one of the
    other, so one pass of each peels them all.

    Only the rows left after the peel are copied, with the skipped and
    peeled columns filtered out, into row dicts ``col -> value`` with a
    ``col -> rows`` index (a dict used as an insertion-ordered set).
    Those columns sit in count buckets, stacks of the columns pushed at
    each nonzero count (at the start in ascending column order), with a
    pointer at the lowest non-empty count.  Each step pivots in a column
    of that least count (a column of count 1 at once, with no search and
    nothing to eliminate), on its shortest row, ties to the smaller row
    index (the one-column case of Zlatev's limited Markowitz search,
    1980), and updates only the rows with a nonzero in the pivot column.
    Only the pivot row's columns change count; each is pushed onto the
    bucket of its new count, and a column whose count reaches 0 leaves
    the index.  An entry whose column has left or whose count has changed
    since its push is stale and is dropped when popped.  No step scans the
    remaining nonzeros, and the pivot order depends on the matrix alone
    (the peel's stacks, too, are seeded in sorted order).

    Eliminating by a one-entry row deletes its column's entries, so each
    pivot row, peeled or not, is the original row plus multiples of
    earlier pivot rows, and the pivot rows are rank-many linearly
    independent rows of the matrix; the set pivot_rows receives them.
    """
    source = matrix.row_dicts
    skip = matrix.skip
    index: dict = {}  # col -> its rows, in row order
    length: dict = {}  # live row -> its number of live columns
    for i, row in source.items():
        n = 0
        for j in row:
            if j in skip:
                continue
            n += 1
            col = index.get(j)
            if col is None:
                index[j] = [i]
            else:
                col.append(i)
        if n:
            length[i] = n
    # live column -> its number of live rows; the skipped columns and the
    # columns that have left are absent, so a live row's live columns are
    # its columns with a count
    count = {j: len(col) for j, col in index.items()}
    # Column singletons: each pivots on its one live row, which leaves, so
    # only that row's columns lose count (new column singletons, no new
    # row singleton).
    by_column = _peel(count, index, length, source, [
        j for j in sorted(count) if count[j] == 1])
    # Row singletons, smaller row index first (the bucket loop's tie
    # rule): eliminating with a one-entry row deletes its column from
    # every other row, so only rows shorten (new row singletons, and still
    # no column singleton).
    by_row = _peel(length, source, count, index, [
        i for i in sorted(length, reverse=True) if length[i] == 1])
    pivot_rows.update(by_column.values())
    pivot_rows.update(by_row)
    rank = len(by_column) + len(by_row)
    if not length:
        return rank
    rows: dict = {}
    cols: dict = {}
    for i in length:
        row = rows[i] = {j: v for j, v in source[i].items() if j in count}
        for j in row:
            col = cols.get(j)
            if col is None:
                cols[j] = {i: None}
            else:
                col[i] = None
    buckets: dict = {}
    for j in sorted(cols):
        buckets.setdefault(len(cols[j]), []).append(j)
    low = 1
    while buckets:
        while low not in buckets:
            low += 1
        bucket = buckets[low]
        pc = bucket.pop()
        if not bucket:
            del buckets[low]
        below = cols.get(pc)
        if below is None or len(below) != low:
            continue  # stale
        del cols[pc]
        if low == 1:
            pr = below.popitem()[0]
            pivot_row = rows.pop(pr)
            del pivot_row[pc]
        else:
            best = None
            for i in below:
                length = len(rows[i])
                if best is None or length < best or length == best and i < pr:
                    best, pr = length, i
            del below[pr]
            pivot_row = rows.pop(pr)
            neg_inv = _MINUS_ONE / pivot_row.pop(pc)
        counts = [len(cols[j]) for j in pivot_row]
        for j in pivot_row:
            del cols[j][pr]
        for i in below:
            row = rows[i]
            factor = row.pop(pc) * neg_inv
            for j, value in pivot_row.items():
                old = row.get(j)
                if old is None:
                    row[j] = factor * value
                    cols[j][i] = None
                else:
                    new = old + factor * value
                    if new.is_zero():
                        del row[j]
                        del cols[j][i]
                    else:
                        row[j] = new
            if not row:
                del rows[i]
        for j, count in zip(pivot_row, counts):
            new = len(cols[j])
            if not new:
                del cols[j]
            elif new != count:
                buckets.setdefault(new, []).append(j)
                if new < low:
                    low = new
        pivot_rows.add(pr)
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


def poly_combine(coeffs, vectors, out):
    """out + sum_k coeffs[k] vectors[k], for Poly coefficients and vectors
    of Polys; a matrix a times v is poly_combine(v, the columns of a, 0)."""
    for c, vector in zip(coeffs, vectors):
        if c.terms:
            out = [x + c * y if y.terms else x for x, y in zip(out, vector)]
    return out


def poly_mat_transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def poly_mat_scale(a, s):
    return [[entry.scale(s) for entry in row] for row in a]


def poly_mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def poly_mat_squares_to_minus_identity(a) -> bool:
    """a a = -1 exactly; true for the empty matrix."""
    if not a:
        return True
    minus_one = poly_mat_scale(poly_identity(a[0][0].chart, len(a)), GQ(-1))
    return poly_mat_mul(a, a) == minus_one


def poly_mat_eval(a, point):
    """Evaluate a polynomial matrix at a rational point, giving GQ rows."""
    return [[entry.evaluate(point) for entry in row] for row in a]
