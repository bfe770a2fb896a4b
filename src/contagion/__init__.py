"""Bootstrap-style activation processes on sparse random graphs.

Core objects: :class:`Graph` (immutable CSR adjacency), the resumable
activation engine (:class:`Percolator`, run once by :func:`percolate`), a
staged greedy constructor for small contagious sets
(:func:`construct_contagious`), an exact branch-and-bound solver
(:func:`min_contagious_exact`), analytic quantities
(:func:`critical_random_seed_size`, :func:`density_witness`), and a
reproducible experiment harness (:func:`run_experiment`).
"""

from .bounds import (
    DensityWitnessReport,
    GenerationsDag,
    critical_random_seed_size,
    density_witness,
    h2k_longest_path,
    sample_generations_dag,
)
from .construct import (
    ConstructionError,
    ConstructionTrace,
    IterationRecord,
    StageParams,
    TupleSearchParams,
    construct_contagious,
    search_minimal_tuple,
)
from .exact import DEFAULT_NODE_BUDGET, ExactResult, min_contagious_exact
from .experiments import (
    CSV_HEADER_V1,
    MODES,
    ExperimentConfig,
    ExperimentOutcome,
    ExperimentRecord,
    derive_seed,
    growth_violations,
    normalized_size,
    predicted_threshold,
    render_output,
    run_experiment,
    statistical_thresholds,
)
from .graph import (
    GnpParams,
    Graph,
    GraphFormatError,
    connected_components,
    gather_rows,
    induced_edge_count,
    is_connected,
    load_edge_list,
    sample_gnp,
    save_edge_list,
)
from .percolation import (
    NEVER,
    PercolationResult,
    Percolator,
    mandatory_seeds,
    percolate,
    validate_result,
)

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER_V1",
    "ConstructionError",
    "ConstructionTrace",
    "DEFAULT_NODE_BUDGET",
    "DensityWitnessReport",
    "ExactResult",
    "ExperimentConfig",
    "ExperimentOutcome",
    "ExperimentRecord",
    "GenerationsDag",
    "GnpParams",
    "Graph",
    "GraphFormatError",
    "IterationRecord",
    "MODES",
    "NEVER",
    "PercolationResult",
    "Percolator",
    "StageParams",
    "TupleSearchParams",
    "connected_components",
    "construct_contagious",
    "critical_random_seed_size",
    "density_witness",
    "derive_seed",
    "gather_rows",
    "growth_violations",
    "h2k_longest_path",
    "induced_edge_count",
    "is_connected",
    "load_edge_list",
    "mandatory_seeds",
    "min_contagious_exact",
    "normalized_size",
    "percolate",
    "predicted_threshold",
    "render_output",
    "run_experiment",
    "sample_gnp",
    "sample_generations_dag",
    "save_edge_list",
    "search_minimal_tuple",
    "statistical_thresholds",
    "validate_result",
]
