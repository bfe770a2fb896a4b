"""Bootstrap-style activation processes on sparse random graphs.

Core objects: :class:`Graph` (immutable CSR adjacency), the resumable
activation engine (:class:`Percolator`, run once by :func:`percolate`), a
staged greedy constructor for small contagious sets
(:func:`construct_contagious`), an exact branch-and-bound solver
(:func:`min_contagious_exact`), analytic quantities
(:func:`critical_random_seed_size`, :func:`density_witness`), and a
reproducible experiment harness (:func:`run_experiment`).

The package exports exactly the names in its submodules' ``__all__`` lists.
"""

from . import bounds, construct, exact, experiments, graph, percolation
from .bounds import *  # noqa: F403
from .construct import *  # noqa: F403
from .exact import *  # noqa: F403
from .experiments import *  # noqa: F403
from .graph import *  # noqa: F403
from .percolation import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (bounds, construct, exact, experiments, graph, percolation)
    for name in module.__all__
)
