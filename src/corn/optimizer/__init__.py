"""Exact bubble-partition optimization: model build, solve, brute force, export."""

from .model import ClusterInstance, IlpModel, LinearConstraint, build_model
from .branch_bound import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_TIMEOUT,
    SolveResult,
    solve,
    verify_clustering,
)
from .brute import brute_force_solve
from .export import export_model, write_lp, write_mps

__all__ = [
    "ClusterInstance",
    "IlpModel",
    "LinearConstraint",
    "STATUS_INFEASIBLE",
    "STATUS_OPTIMAL",
    "STATUS_TIMEOUT",
    "SolveResult",
    "brute_force_solve",
    "build_model",
    "export_model",
    "solve",
    "verify_clustering",
    "write_lp",
    "write_mps",
]
