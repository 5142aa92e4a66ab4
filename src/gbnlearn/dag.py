"""DAG structure with known parent sets, plus random-graph generators.

Nodes are integers ``0..n-1``. Edges are written ``(parent, child)``
throughout, parent lists are stored sorted ascending, and acyclicity is
validated at construction time. Two generators cover the benchmark's
graph families: uniformly random labeled trees (decoded from Prufer
sequences, rooted at node 0 and directed away from the root) and
Erdos-Renyi DAGs where each unordered pair is kept independently and
oriented from the lower index to the higher one.
"""

from __future__ import annotations

import heapq
import numbers
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FileFormatError, InvalidParameter


@dataclass(frozen=True)
class Dag:
    """Immutable directed acyclic graph over nodes ``0..n-1``.

    ``parents[i]`` lists the parents of node ``i`` in ascending order, and
    ``order`` caches a topological order (ascending-index tie-break).
    Instances should be built through :func:`build_dag`, which validates
    the edge set and derives both fields consistently.
    """

    n: int
    parents: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]

    @property
    def num_edges(self) -> int:
        return sum(len(p) for p in self.parents)

    def edges(self) -> list[tuple[int, int]]:
        """All (parent, child) pairs in lexicographic order."""
        out = [(j, i) for i, pa in enumerate(self.parents) for j in pa]
        out.sort()
        return out


def as_count(value, low: int, message: str) -> int:
    """``value`` as an int if it is a non-bool integer >= ``low``, else InvalidParameter(message.format(value))."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise InvalidParameter(message.format(value))
    return int(value)


def build_dag(n: int, edges) -> Dag:
    """Construct a validated :class:`Dag` from ``(parent, child)`` pairs.

    Raises InvalidParameter for a non-positive node count, an edge
    outside ``[0, n)``, a self loop, a duplicate edge, or an edge set that
    admits no topological order.
    """
    n = as_count(n, 1, "node count must be a positive integer, got {!r}")
    parent_sets: list[set[int]] = [set() for _ in range(n)]
    for edge in edges:
        j, i = edge
        j, i = int(j), int(i)
        if not (0 <= j < n and 0 <= i < n):
            raise InvalidParameter(f"edge ({j}, {i}) outside [0, {n})")
        if j == i:
            raise InvalidParameter(f"self loop at node {i}")
        if j in parent_sets[i]:
            raise InvalidParameter(f"edge ({j}, {i}) listed twice")
        parent_sets[i].add(j)
    parents = tuple(tuple(sorted(s)) for s in parent_sets)
    return Dag(n=n, parents=parents, order=_topological_order(n, parents))


def _topological_order(n: int, parents) -> tuple[int, ...]:
    # Kahn's algorithm with a min-heap so ties always break toward the
    # smallest node index, making the order deterministic.
    indeg = [len(p) for p in parents]
    children: list[list[int]] = [[] for _ in range(n)]
    for i, pa in enumerate(parents):
        for j in pa:
            children[j].append(i)
    ready = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    if len(order) != n:
        raise InvalidParameter("edge set contains a directed cycle")
    return tuple(order)


def is_polytree(dag: Dag) -> bool:
    """True when the undirected skeleton of ``dag`` is a forest."""
    root = list(range(dag.n))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for j, i in dag.edges():
        rj, ri = find(j), find(i)
        if rj == ri:
            return False
        root[rj] = ri
    return True


def random_tree_dag(n: int, rng: np.random.Generator) -> Dag:
    """Uniformly random labeled tree on ``n`` nodes, rooted at node 0.

    The tree is drawn by decoding a uniform Prufer sequence of length
    ``n - 2`` and every edge is directed away from the root, so each node
    except node 0 has in-degree exactly 1. Requires ``n >= 2``.
    """
    n = as_count(n, 2, "a tree needs at least 2 nodes, got {!r}")
    seq = [int(v) for v in rng.integers(0, n, size=n - 2)]
    undirected = _decode_prufer(n, seq)
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in undirected:
        adj[a].append(b)
        adj[b].append(a)
    edges: list[tuple[int, int]] = []
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in sorted(adj[v]):
            if not seen[w]:
                seen[w] = True
                edges.append((v, w))
                queue.append(w)
    return build_dag(n, edges)


def _decode_prufer(n: int, seq: list[int]) -> list[tuple[int, int]]:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return edges


def random_er_dag(n: int, d: float, rng: np.random.Generator) -> Dag:
    """Erdos-Renyi DAG: each pair {i, j} kept with probability ``d / n``.

    Kept pairs are oriented from the lower index to the higher one, which
    makes the result acyclic by construction. The expected edge count is
    ``C(n, 2) * d / n``.
    """
    n = as_count(n, 1, "node count must be a positive integer, got {!r}")
    if not (0 < d <= n):
        raise InvalidParameter(f"degree parameter must satisfy 0 < d <= n, got {d!r}")
    lo, hi = np.triu_indices(n, k=1)
    mask = rng.random(lo.size) < d / n
    edges = [(int(a), int(b)) for a, b in zip(lo[mask], hi[mask])]
    return build_dag(n, edges)


def remove_random_edges(dag: Dag, k: int, rng: np.random.Generator) -> Dag:
    """New DAG with ``k`` edges removed, chosen uniformly without replacement."""
    k = as_count(k, 0, "cannot remove {} edges")
    edges = dag.edges()
    if k > len(edges):
        raise InvalidParameter(f"graph has {len(edges)} edges, cannot remove {k}")
    if k == 0:
        return dag
    drop = set(int(i) for i in rng.choice(len(edges), size=k, replace=False))
    kept = [e for idx, e in enumerate(edges) if idx not in drop]
    return build_dag(dag.n, kept)


def write_dag_file(dag: Dag, path) -> None:
    """Write the node count line followed by sorted ``parent child`` lines."""
    lines = [str(dag.n)]
    lines.extend(f"{j} {i}" for j, i in dag.edges())
    Path(path).write_text("\n".join(lines) + "\n")


def read_dag_file(path) -> Dag:
    """Parse a DAG file written by :func:`write_dag_file`."""
    raw = [ln.strip() for ln in Path(path).read_text().splitlines()]
    lines = [ln for ln in raw if ln]
    if not lines:
        raise FileFormatError(f"{path}: empty DAG file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise FileFormatError(f"{path}: first line must be the node count") from exc
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FileFormatError(f"{path}: malformed edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise FileFormatError(f"{path}: malformed edge line {ln!r}") from exc
    try:
        return build_dag(n, edges)
    except InvalidParameter as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
