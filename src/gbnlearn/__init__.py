"""Parameter learning and KL evaluation for linear-Gaussian networks
whose DAG structure is known.

The public surface spans five areas: graph structure (``dag``), the
model with sampling / covariance / evaluation (``gbn``), the coefficient
and variance estimators (``estimators``), adversarial data scenarios
(``datagen``), and the reproducible benchmark harness with its CLI
(``bench``, ``cli``). Names are imported from those submodules, for
example ``from gbnlearn.gbn import kl_divergence``.
"""

from . import bench, cli, dag, datagen, errors, estimators, gbn

__version__ = "0.1.0"
