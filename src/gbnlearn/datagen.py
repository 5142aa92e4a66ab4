"""Contaminated data for the benchmark.

Contaminated sampling is an edit of the noise matrix: the clean noise is
drawn, the noise at chosen (row, node) cells is overwritten with draws
from a gross-error law centered far from the data scale, and the result
is propagated through the structural equations, so the corruption
reaches descendants exactly as if the corrupted value had been observed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import gbn
from .errors import InvalidSpec

_LAW_KINDS = ("gaussian", "cauchy")


@dataclass(frozen=True)
class NoiseLaw:
    """Gross-error law for contaminated cells.

    ``kind`` is ``"gaussian"`` (N(location, scale) with ``scale`` the
    variance) or ``"cauchy"`` (location/scale Cauchy). The defaults put
    the corruption three orders of magnitude off the clean data scale.
    """

    kind: str = "gaussian"
    location: float = 1000.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _LAW_KINDS:
            raise InvalidSpec(f"unknown noise law {self.kind!r}; expected one of {_LAW_KINDS}")
        if self.scale <= 0:
            raise InvalidSpec(f"noise law scale must be positive, got {self.scale}")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.normal(self.location, math.sqrt(self.scale), size=size)
        return self.location + self.scale * rng.standard_cauchy(size)


@dataclass(frozen=True)
class ContaminationSpec:
    """The contaminated scenario: which cells get corrupted and by what law.

    ``ceil(sample_fraction * m)`` consecutive rows (a block with uniformly
    chosen start) and ``node_count`` uniformly chosen nodes are targeted;
    every (row, node) pair in the cross product is contaminated. The
    fields are the keys of the bench config's ``contaminated`` scenario.

    The corrupted rows form one contiguous block rather than a scatter:
    since rows are i.i.d. their position carries no information, and a
    block keeps the corruption confined to a minority of the consecutive
    batches used by the batch estimators — the regime in which the
    batch-median estimators are designed to survive gross errors. A
    uniform scatter at 5% would corrupt most size-21 batches
    (1 - 0.95^21 ~ 0.66) and no aggregator could survive that.
    """

    KIND: ClassVar[str] = "contaminated"
    sample_fraction: float = 0.05
    node_count: int = 5
    law: NoiseLaw = NoiseLaw()

    def validate(self, n: int) -> None:
        if not (0.0 <= self.sample_fraction <= 1.0):
            raise InvalidSpec(f"sample_fraction must lie in [0, 1], got {self.sample_fraction}")
        if not (0 <= self.node_count <= n):
            raise InvalidSpec(f"node_count must lie in [0, {n}], got {self.node_count}")


def _ceil_count(fraction: float, m: int) -> int:
    # ceil(fraction * m), robust to float residue: 0.05 * 1000 must give
    # exactly 50 even though the product is slightly above 50 in binary.
    x = fraction * m
    nearest = round(x)
    if abs(x - nearest) < 1e-9:
        return int(nearest)
    return int(math.ceil(x))


def choose_contamination_targets(spec: ContaminationSpec, n: int, m: int, rng: np.random.Generator):
    """Row and node index arrays (each sorted ascending) for ``spec``.

    Rows are one contiguous block with a uniformly drawn start; nodes are
    drawn uniformly without replacement.
    """
    spec.validate(n)
    count = _ceil_count(spec.sample_fraction, m)
    start = int(rng.integers(0, m - count + 1))
    rows = np.arange(start, start + count, dtype=int)
    nodes = np.sort(rng.choice(n, size=spec.node_count, replace=False)).astype(int)
    return rows, nodes


def contaminated_sample(
    model: gbn.GaussianBayesNet, m: int, spec: ContaminationSpec, rng: np.random.Generator, contam_rng: np.random.Generator
) -> np.ndarray:
    """``m`` samples of ``model`` with the noise of the targeted cells replaced.

    The targets are chosen from ``contam_rng`` and the clean noise of
    every node is drawn from ``rng`` exactly as :func:`gbnlearn.gbn.sample`
    draws it. The targeted cells are then overwritten with draws from
    ``spec.law``, taken from ``contam_rng`` node by node in topological
    order, and the noise is propagated through the structural equations.
    So an empty target set reproduces the clean matrix bit for bit, and
    untargeted rows equal the clean ones.
    """
    rows, nodes = choose_contamination_targets(spec, model.dag.n, m, contam_rng)
    x = gbn._draw_noise(model, m, rng)
    if rows.size:
        targeted = set(nodes.tolist())
        for i in model.dag.order:
            if i in targeted:
                x[rows, i] = spec.law.draw(contam_rng, rows.size)
    gbn._propagate(model, x)
    return x
