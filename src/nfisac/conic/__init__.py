"""Trace-linear semidefinite programming: modeling layer and ADMM solver."""

from .model import (
    ConicProgram,
    LinExpr,
    PsdBlock,
    epigraph_trace_inverse,
    matrix_to_params,
    params_to_matrix,
    real_trace,
    realify_matrix,
    scalar_term,
    trace_coefficients,
)
from .solver import ConicSolution, assemble, solve

__all__ = [
    "ConicProgram", "LinExpr", "PsdBlock",
    "epigraph_trace_inverse", "matrix_to_params", "params_to_matrix",
    "real_trace", "realify_matrix", "scalar_term",
    "trace_coefficients", "ConicSolution", "assemble", "solve",
]
