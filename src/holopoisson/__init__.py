"""Exact-arithmetic calculus of holomorphic Poisson structures, Lie
algebroids, matched pairs and their double-complex cohomology on polynomial
coordinate charts."""

from .exactalg import GQ, Chart, Poly, parse_poly

__all__ = [
    "GQ",
    "Chart",
    "Poly",
    "parse_poly",
]

__version__ = "0.1.0"
