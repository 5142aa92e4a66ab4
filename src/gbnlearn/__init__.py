"""Parameter learning and KL evaluation for linear-Gaussian networks
whose DAG structure is known.

The public surface spans five areas: graph structure (``dag``), the
model with sampling / covariance / evaluation (``gbn``), the coefficient
and variance estimators (``estimators``), adversarial data scenarios
(``datagen``), and the reproducible benchmark harness with its CLI
(``bench``, ``cli``).
"""

from . import bench, cli, dag, datagen, errors, estimators, gbn
from .dag import (
    Dag,
    build_dag,
    is_polytree,
    random_er_dag,
    random_tree_dag,
    remove_random_edges,
)
from .datagen import ContaminationSpec, NoiseLaw, contaminated_sample
from .errors import GbnError
from .estimators import FitConfig, empirical_mle, fit, fit_detailed, mad_variance, variance_recovery
from .gbn import (
    EvalReport,
    GaussianBayesNet,
    covariance,
    dcp,
    gaussian_kl,
    kl_divergence,
    parent_covariances,
    random_gbn,
    sample,
)

__version__ = "0.1.0"

__all__ = [
    "Dag",
    "GaussianBayesNet",
    "EvalReport",
    "FitConfig",
    "ContaminationSpec",
    "NoiseLaw",
    "GbnError",
    "build_dag",
    "is_polytree",
    "random_tree_dag",
    "random_er_dag",
    "remove_random_edges",
    "random_gbn",
    "sample",
    "covariance",
    "parent_covariances",
    "dcp",
    "kl_divergence",
    "gaussian_kl",
    "fit",
    "fit_detailed",
    "empirical_mle",
    "variance_recovery",
    "mad_variance",
    "contaminated_sample",
    "bench",
    "cli",
    "dag",
    "datagen",
    "errors",
    "estimators",
    "gbn",
    "__version__",
]
