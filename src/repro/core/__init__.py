"""Public top-level API: configuration, cluster assembly, runs, metrics.

Typical use::

    from repro.core import ClusterConfig, run_simulation
    from repro.apps import get_app

    app = get_app("fft", n_procs=16, scale=0.25, seed=1)
    result = run_simulation(app, ClusterConfig())
    print(result.speedup, result.time_breakdown())
"""

from repro.core.cluster import Cluster, Node
from repro.core.config import ClusterConfig
from repro.core.metrics import RunResult, geometric_mean
from repro.core.run import run_simulation
from repro.core.stats import MetricsRegistry

__all__ = [
    "Cluster",
    "ClusterConfig",
    "MetricsRegistry",
    "Node",
    "RunResult",
    "geometric_mean",
    "run_simulation",
]
