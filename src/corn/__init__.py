"""Contact-network bubble clustering for healthcare facilities.

Partitions a facility's substitutable rooms and staff into K bubbles so
that expected cross-bubble transmission is minimized, rewires visit logs
to respect the partition, and measures both the epidemic effect and the
operational cost of doing so.
"""

from .clustering import BubbleClustering, load_clustering, save_clustering
from .episim import (
    CasualContactModel,
    ContactSchedule,
    DiseaseParams,
    SimConfig,
    SimSummary,
    calibrate_rho,
    compare_runs,
    estimate_r0,
    simulate,
)
from .errors import (
    ClusteringMismatchError,
    ConfigError,
    CornError,
    DisconnectedError,
    InvalidKError,
    NotBracketedError,
    ParseError,
    SpecError,
    TooLargeError,
    ValidationError,
)
from .manifest import RunManifest, load_manifest, write_manifest
from .model import (
    HcpRoster,
    LocationRoster,
    Visit,
    VisitGraph,
    compute_loads_demands,
    load_hcp_roster,
    load_location_roster,
    load_mobility_log,
    read_mobility_log,
    validate,
)
from .optimizer import (
    ClusterInstance,
    SolveResult,
    brute_force_solve,
    build_model,
    export_model,
    solve,
    verify_clustering,
)
from .pipeline import ExperimentConfig, ExperimentResult, run_experiment
from .rewiring import compute_costs, random_clustering, rewire
from .spatial import SpatialGraph, load_spatial_graph, shortest_path_metric
from .synth import FacilitySpec, generate_facility, generate_mobility, zone_clustering
from .weights import WeightMatrix, weight_matrix, z_from_rho

__version__ = "0.1.0"

__all__ = [
    "BubbleClustering",
    "CasualContactModel",
    "ClusterInstance",
    "ClusteringMismatchError",
    "ConfigError",
    "ContactSchedule",
    "CornError",
    "DiseaseParams",
    "DisconnectedError",
    "ExperimentConfig",
    "ExperimentResult",
    "FacilitySpec",
    "HcpRoster",
    "InvalidKError",
    "LocationRoster",
    "NotBracketedError",
    "ParseError",
    "RunManifest",
    "SimConfig",
    "SimSummary",
    "SolveResult",
    "SpatialGraph",
    "SpecError",
    "TooLargeError",
    "ValidationError",
    "Visit",
    "VisitGraph",
    "WeightMatrix",
    "brute_force_solve",
    "build_model",
    "calibrate_rho",
    "compare_runs",
    "compute_costs",
    "compute_loads_demands",
    "estimate_r0",
    "export_model",
    "generate_facility",
    "generate_mobility",
    "load_clustering",
    "load_hcp_roster",
    "load_location_roster",
    "load_manifest",
    "load_mobility_log",
    "load_spatial_graph",
    "random_clustering",
    "read_mobility_log",
    "rewire",
    "run_experiment",
    "save_clustering",
    "shortest_path_metric",
    "simulate",
    "solve",
    "validate",
    "verify_clustering",
    "weight_matrix",
    "write_manifest",
    "z_from_rho",
]
