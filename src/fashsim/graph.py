"""Static social graphs the market simulator runs on.

Agents are vertices 0..n-1. Edges are undirected, unweighted and immutable
once built: construction assembles adjacency sets, then freezes them into a
sorted CSR layout (offsets/targets arrays) that the engine reads directly.

Three builders are provided: a regular ring lattice, an Erdos-Renyi style
random graph, and a small-world graph obtained by rewiring ring edges.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Set

import numpy as np

__all__ = [
    "SocialGraph",
    "TopologySpec",
    "build_ring",
    "build_random",
    "build_small_world",
    "neighbors",
]


class SocialGraph:
    """Immutable undirected graph in CSR form.

    Attributes:
        n: number of vertices.
        offsets: int64 array of length n+1; row i's neighbors live in
            targets[offsets[i]:offsets[i+1]], sorted ascending.
        targets: int64 array of vertex ids, one entry per directed edge.
    """

    __slots__ = ("n", "offsets", "targets")

    def __init__(self, n: int, offsets: np.ndarray, targets: np.ndarray):
        if n < 1:
            raise ValueError("n: graph needs at least one vertex (got %d)" % n)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        if offsets.shape != (n + 1,) or offsets[0] != 0 or offsets[-1] != len(targets):
            raise ValueError("offsets: malformed CSR index")
        offsets.setflags(write=False)
        targets.setflags(write=False)
        self.n = n
        self.offsets = offsets
        self.targets = targets

    @classmethod
    def from_adjacency(cls, adjacency: Mapping[int, Iterable[int]]) -> "SocialGraph":
        """Freeze an adjacency mapping {vertex: neighbor ids} into a graph.

        The mapping must cover vertices 0..n-1 exactly, contain no self
        loops, and be symmetric.
        """
        n = len(adjacency)
        if set(adjacency) != set(range(n)):
            raise ValueError("adjacency: keys must be exactly 0..n-1")
        sets: Dict[int, Set[int]] = {i: set(adjacency[i]) for i in range(n)}
        for i, nbrs in sets.items():
            for j in nbrs:
                if not 0 <= j < n:
                    raise ValueError("adjacency: vertex %d out of range" % j)
                if j == i:
                    raise ValueError("adjacency: self loop at %d" % i)
                if i not in sets[j]:
                    raise ValueError("adjacency: edge %d-%d not symmetric" % (i, j))
        offsets = np.zeros(n + 1, dtype=np.int64)
        for i in range(n):
            offsets[i + 1] = offsets[i] + len(sets[i])
        targets = np.empty(int(offsets[-1]), dtype=np.int64)
        for i in range(n):
            targets[offsets[i]:offsets[i + 1]] = sorted(sets[i])
        return cls(n, offsets, targets)

    def degree(self, i: int) -> int:
        self._check_vertex(i)
        return int(self.offsets[i + 1] - self.offsets[i])

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every vertex, int64 array of length n."""
        return np.diff(self.offsets)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return len(self.targets) // 2

    def neighbor_array(self, i: int) -> np.ndarray:
        """Read-only sorted neighbor ids of vertex i."""
        self._check_vertex(i)
        return self.targets[self.offsets[i]:self.offsets[i + 1]]

    def neighbors(self, i: int) -> Set[int]:
        """Neighbor ids of vertex i as a set."""
        return set(int(j) for j in self.neighbor_array(i))

    def has_edge(self, i: int, j: int) -> bool:
        self._check_vertex(j)
        row = self.neighbor_array(i)
        pos = int(np.searchsorted(row, j))
        return pos < len(row) and row[pos] == j

    def _check_vertex(self, i: int) -> None:
        if not isinstance(i, (int, np.integer)) or not 0 <= i < self.n:
            raise ValueError("vertex id %r out of range [0, %d)" % (i, self.n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SocialGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.targets, other.targets)
        )

    def __hash__(self):  # mutable-array container; identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return "SocialGraph(n=%d, edges=%d)" % (self.n, self.edge_count)


def neighbors(graph: SocialGraph, i: int) -> Set[int]:
    """Neighbor set of agent i in graph."""
    return graph.neighbors(i)


def _validate_ring_args(n: int, k: int) -> None:
    if n < 3:
        raise ValueError("n: ring lattice needs n >= 3 (got %d)" % n)
    if k % 2 != 0:
        raise ValueError("k: ring degree must be even (got %d)" % k)
    if not 0 < k < n:
        raise ValueError("k: need 0 < k < n (got k=%d, n=%d)" % (k, n))


def _ring_sets(n: int, k: int) -> Dict[int, Set[int]]:
    half = k // 2
    return {
        i: {(i + d) % n for d in range(1, half + 1)}
        | {(i - d) % n for d in range(1, half + 1)}
        for i in range(n)
    }


def build_ring(n: int, k: int) -> SocialGraph:
    """Ring lattice: each agent links to its k/2 nearest on each side.

    Indices wrap modulo n. k must be even and strictly less than n.
    """
    _validate_ring_args(n, k)
    return SocialGraph.from_adjacency(_ring_sets(n, k))


# Doubles drawn per block in build_random (2 MiB): bounds its memory.
_RANDOM_BLOCK = 1 << 18


def build_random(n: int, p: float, rng: np.random.Generator) -> SocialGraph:
    """Random graph: each unordered pair is an edge with probability p.

    Pairs are examined row by row ((0,1..n-1), (1,2..n-1), ...), one
    Bernoulli draw per pair, so a given rng state always yields the same
    graph. Isolated vertices are legal.

    Whole rows are drawn in blocks of about _RANDOM_BLOCK doubles. Each
    double takes the same bit-generator output however the draws are
    split, so this is the stream of one rng.random call per row.
    """
    if n < 2:
        raise ValueError("n: random graph needs n >= 2 (got %d)" % n)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p: edge probability must be in [0, 1] (got %r)" % p)
    # Row i holds the pairs (i, i+1..n-1): positions ends[i]-lens[i] to
    # ends[i] of the row-major sequence of draws.
    lens = np.arange(n - 1, 0, -1, dtype=np.int64)
    ends = np.cumsum(lens)
    lo, hi = [], []
    first = 0
    while first < n - 1:
        start = ends[first] - lens[first]
        last = max(int(np.searchsorted(ends, start + _RANDOM_BLOCK, side="right")), first + 1)
        hits = np.flatnonzero(rng.random(int(ends[last - 1] - start)) < p) + start
        rows = np.searchsorted(ends, hits, side="right")
        lo.append(rows)
        hi.append(hits - (ends[rows] - lens[rows]) + rows + 1)
        first = last
    src = np.concatenate(lo + hi)
    dst = np.concatenate(hi + lo)
    order = np.lexsort((dst, src))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return SocialGraph(n, offsets, dst[order])


def build_small_world(n: int, k: int, p: float, rng: np.random.Generator) -> SocialGraph:
    """Small-world graph: ring lattice with random edge rewiring.

    Starting from build_ring(n, k), every clockwise edge (i, i+j mod n),
    j = 1..k/2, is visited in order (i ascending, then j ascending) and,
    with probability p, replaced by an edge from i to a uniformly chosen
    current non-neighbor (self loops and duplicate edges excluded; the
    uniform choice is made by rejection sampling). If i is already linked
    to every other vertex the edge is kept. Edge count is preserved, and
    p = 0 reproduces the ring exactly.
    """
    _validate_ring_args(n, k)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p: rewiring probability must be in [0, 1] (got %r)" % p)
    sets = _ring_sets(n, k)
    half = k // 2
    for j in range(1, half + 1):
        for i in range(n):
            if rng.random() >= p:
                continue
            old = (i + j) % n
            # Own clockwise edges are visited exactly once, so this edge is
            # still present even after earlier rewires elsewhere.
            if len(sets[i]) >= n - 1:
                continue  # no eligible target; keep the original edge
            while True:
                t = int(rng.integers(0, n))
                if t != i and t not in sets[i]:
                    break
            sets[i].remove(old)
            sets[old].remove(i)
            sets[i].add(t)
            sets[t].add(i)
    return SocialGraph.from_adjacency(sets)


_TOPOLOGY_KINDS = ("ring", "random", "small_world")


@dataclass(frozen=True)
class TopologySpec:
    """Which graph to build and with what parameters.

    kind: one of "ring", "random", "small_world".
    k: ring/small-world degree (even). Ignored for random graphs.
    p: edge probability (random) or rewiring probability (small_world).
    """

    kind: str = "ring"
    k: int = 4
    p: float = 0.1

    def __post_init__(self):
        if self.kind not in _TOPOLOGY_KINDS:
            raise ValueError(
                "topology: unknown kind %r (expected one of %s)"
                % (self.kind, ", ".join(_TOPOLOGY_KINDS))
            )
        if self.kind != "random":
            if self.k % 2 != 0 or self.k <= 0:
                raise ValueError("k: must be a positive even integer (got %r)" % (self.k,))
        if self.kind != "ring" and not 0.0 <= self.p <= 1.0:
            raise ValueError("p: must be in [0, 1] (got %r)" % (self.p,))

    def validate_for(self, n: int) -> None:
        """Check this topology choice against a concrete agent count."""
        if self.kind == "random":
            if n < 2:
                raise ValueError("agents: random topology needs n >= 2 (got %d)" % n)
        else:
            _validate_ring_args(n, self.k)

    def build(self, n: int, rng: np.random.Generator) -> SocialGraph:
        if self.kind == "ring":
            return build_ring(n, self.k)
        if self.kind == "random":
            return build_random(n, self.p, rng)
        return build_small_world(n, self.k, self.p, rng)
