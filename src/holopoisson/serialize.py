"""Parsing and canonical printing of the JSON input and report documents.

All numbers travel as exact strings in the polynomial literal grammar;
printing uses the global monomial and frame orders so that reports are
byte-stable.
"""

from __future__ import annotations

from .algebroid import AlgebroidChart, LieAlgebra, lie_algebra
from .errors import ParseError
from .exactalg import Chart, Poly, parse_gq, parse_poly
from .multivec import Form, Multivector


def require_keys(obj: dict, allowed, context: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{context}: expected an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ParseError(f"{context}: unknown fields {sorted(unknown)}")


def require_field(doc: dict, key: str, context: str):
    """doc[key]; a missing key is an input error, never read as zero or
    as empty."""
    if key not in doc:
        raise ParseError(f"{context}: missing field {key!r}")
    return doc[key]


# input budgets, checked before any object is built: every command on a
# chart of n = 16 or a Lie algebra of rank 16 finishes in about a second,
# and the cost grows fast beyond (yao-check takes 10 s at n = 32)
MAX_CHART_N = 16
MAX_LIE_RANK = 16


def is_int(value) -> bool:
    """True for a JSON integer: bool is an int subclass, but not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_chart(doc) -> Chart:
    require_keys(doc, {"kind", "n"}, "chart")
    kind = require_field(doc, "kind", "chart")
    n = require_field(doc, "n", "chart")
    if not is_int(n):
        raise ParseError("chart: n must be an integer")
    if n > MAX_CHART_N:
        raise ParseError(f"chart: n = {n} is over the budget of "
                         f"{MAX_CHART_N}")
    if kind not in ("complex", "real"):
        raise ParseError(f"chart: unknown kind {kind!r}")
    return Chart(kind, n)


def chart_dict(chart: Chart) -> dict:
    return {"kind": chart.kind, "n": chart.n}


def parse_alternating(chart: Chart, entries, degree, kind) -> "Multivector|Form":
    """Parse a component list [{"frame": [...], "coeff": "..."}] into a
    Multivector (kind 'vector') or Form (kind 'form')."""
    cls = Multivector if kind == "vector" else Form
    comps = {}
    if not isinstance(entries, list):
        raise ParseError("component list expected")
    for entry in entries:
        require_keys(entry, {"frame", "coeff"}, "component")
        names = entry.get("frame")
        if not isinstance(names, list):
            raise ParseError("component frame must be a list of names")
        idx = tuple(chart.var_index(str(name)) for name in names)
        if list(idx) != sorted(set(idx)):
            raise ParseError(f"component frame {names} is not strictly "
                             "increasing in the canonical order")
        if degree is not None and len(idx) != degree:
            raise ParseError(f"component frame {names} has wrong degree")
        poly = parse_poly(str(require_field(entry, "coeff", "component")),
                          chart)
        if idx in comps:
            raise ParseError(f"duplicate component {names}")
        comps[idx] = poly
    if degree is None:
        degrees = {len(i) for i in comps}
        if len(degrees) > 1:
            raise ParseError("components of mixed degree")
        degree = degrees.pop() if degrees else 0
    return cls(chart, degree, comps)


def alternating_dict(obj) -> list:
    out = []
    for idx, poly in obj.sorted_comps():
        out.append({"frame": [obj.chart.var_name(k) for k in idx],
                    "coeff": str(poly)})
    return out


def parse_bivector(chart: Chart, entries) -> Multivector:
    return parse_alternating(chart, entries, 2, "vector")


def parse_matrix(chart: Chart, rows, size, context="matrix"):
    if not isinstance(rows, list) or len(rows) != size:
        raise ParseError(f"{context}: expected {size} rows")
    out = []
    for row in rows:
        if not isinstance(row, list) or len(row) != size:
            raise ParseError(f"{context}: expected {size} columns")
        out.append([parse_poly(str(v), chart) for v in row])
    return out


def parse_endo(chart: Chart, doc) -> list:
    """A chart endomorphism: the square Poly matrix over the coordinate
    tangent frame, column c the image of frame vector c."""
    return parse_matrix(chart, doc, chart.nvars, "endo")


def parse_liealgebra(doc) -> LieAlgebra:
    require_keys(doc, {"rank", "brackets", "j"}, "lie_algebra")
    rank = doc.get("rank")
    if not is_int(rank) or rank < 0:
        raise ParseError("lie_algebra: rank must be a nonnegative integer")
    if rank > MAX_LIE_RANK:
        raise ParseError(f"lie_algebra: rank = {rank} is over the budget "
                         f"of {MAX_LIE_RANK}")
    brackets = require_field(doc, "brackets", "lie_algebra")
    if not isinstance(brackets, list):
        raise ParseError("lie_algebra: brackets must be a list")
    triples = []
    for item in brackets:
        if not isinstance(item, list) or len(item) != 4:
            raise ParseError("lie_algebra: brackets entries are "
                             "[i, j, k, coeff]")
        i, j, k, coeff = item
        for v in (i, j, k):
            if not is_int(v) or not 1 <= v <= rank:
                raise ParseError(f"lie_algebra: index {v!r} out of range")
        triples.append((i, j, k, parse_gq(str(coeff))))
    algebra = lie_algebra(rank, triples)
    j = None
    if doc.get("j") is not None:
        rows = doc["j"]
        if (not isinstance(rows, list) or len(rows) != rank
                or any(not isinstance(row, list) or len(row) != rank
                       for row in rows)):
            raise ParseError("lie_algebra: j must be rank x rank")
        j = [[Poly.const(algebra.chart, parse_gq(str(v))) for v in row]
             for row in rows]
    return LieAlgebra(algebra, j)


def algebroid_dict(a: AlgebroidChart) -> dict:
    structure = []
    for i in range(a.rank):
        for j in range(i + 1, a.rank):
            for k, poly in enumerate(a.structure[i][j]):
                if not poly.is_zero():
                    structure.append([i + 1, j + 1, k + 1, str(poly)])
    return {
        "chart": chart_dict(a.chart),
        "rank": a.rank,
        "anchor": [[str(p) for p in row] for row in a.anchor],
        "structure": structure,
    }
