"""Static social graphs the market simulator runs on.

Agents are vertices 0..n-1. Edges are undirected, unweighted and immutable
once built: every builder lists each edge once as a (src, dst) pair and
_from_edges freezes the pairs into a sorted CSR layout (offsets/targets
arrays) that the engine reads directly.

Three builders are provided: a regular ring lattice, an Erdos-Renyi style
random graph, and a small-world graph obtained by rewiring ring edges.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Set, Tuple

import numpy as np

__all__ = [
    "SocialGraph",
    "TopologySpec",
    "build_ring",
    "build_random",
    "build_small_world",
    "neighbors",
]


def check_int(name: str, value) -> int:
    """An integer field's value as a Python int. A bool or a non-integer
    is a ValueError naming the field; NumPy integers pass. Shared by every
    config class, so it lives in the module the others import."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError("%s: must be an integer (got %r)" % (name, value))
    return int(value)


def check_float(name: str, value) -> float:
    """A real field's value as a Python float. A bool or a non-real value
    is a ValueError naming the field; NumPy and Python ints and floats
    pass. Range checks stay with the field's owner."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ValueError("%s: must be a number (got %r)" % (name, value))
    return float(value)


def check_floats(name: str, values) -> Tuple[float, ...]:
    """A sequence field's values as a tuple of Python floats, each checked
    by check_float. A str, bytes or non-iterable value is a ValueError
    naming the field."""
    if isinstance(values, (str, bytes)) or not np.iterable(values):
        raise ValueError("%s: expected a sequence of numbers (got %r)" % (name, values))
    return tuple(check_float(name, v) for v in values)


def check_choice(name: str, value, choices: Tuple[str, ...]) -> None:
    """An enumerated field's value must be one of choices; anything else
    is a ValueError naming the field and listing the choices."""
    if value not in choices:
        raise ValueError("%s: expected one of %s (got %r)"
                         % (name, ", ".join(choices), value))


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
        if np.any(offsets[1:] < offsets[:-1]):
            raise ValueError("offsets: must be non-decreasing")
        if len(targets) and not 0 <= targets.min() <= targets.max() < n:
            raise ValueError("targets: vertex ids must be in [0, %d)" % n)
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
        pairs = []
        for i, nbrs in sets.items():
            for j in nbrs:
                if not 0 <= j < n:
                    raise ValueError("adjacency: vertex %d out of range" % j)
                if j == i:
                    raise ValueError("adjacency: self loop at %d" % i)
                if i not in sets[j]:
                    raise ValueError("adjacency: edge %d-%d not symmetric" % (i, j))
                if i < j:
                    pairs.append((i, j))
        return _from_edges(n, *np.array(pairs, dtype=np.int64).reshape(-1, 2).T)

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

    def __hash__(self):
        return hash((self.n, self.offsets.tobytes(), self.targets.tobytes()))

    def __repr__(self) -> str:
        return "SocialGraph(n=%d, edges=%d)" % (self.n, self.edge_count)


def neighbors(graph: SocialGraph, i: int) -> Set[int]:
    """Neighbor set of agent i in graph."""
    return graph.neighbors(i)


def _from_edges(n: int, src: np.ndarray, dst: np.ndarray) -> SocialGraph:
    """The graph of undirected edges {src[e], dst[e]}, each listed once: both
    directions are counted into offsets and sorted by (row, target), as
    the one key row * n + target."""
    rows = np.concatenate((src, dst))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    keys = rows * n
    keys += np.concatenate((dst, src))
    keys.sort()
    return SocialGraph(n, offsets, keys % n)


def _validate_ring_args(n: int, k: int) -> None:
    if n < 3:
        raise ValueError("n: ring lattice needs n >= 3 (got %d)" % n)
    if k % 2 != 0:
        raise ValueError("k: ring degree must be even (got %d)" % k)
    if not 0 < k < n:
        raise ValueError("k: need 0 < k < n (got k=%d, n=%d)" % (k, n))


def _ring_edges(n: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every ring edge once: each vertex's clockwise (i, i+d mod n), d <= k/2."""
    half = k // 2
    src = np.repeat(np.arange(n, dtype=np.int64), half)
    dst = (src + np.tile(np.arange(1, half + 1, dtype=np.int64), n)) % n
    return src, dst


def build_ring(n: int, k: int) -> SocialGraph:
    """Ring lattice: each agent links to its k/2 nearest on each side.

    Indices wrap modulo n. k must be even and strictly less than n.
    """
    _validate_ring_args(n, k)
    return _from_edges(n, *_ring_edges(n, k))


# Doubles drawn per block in build_random (512 KiB), into one buffer.
_RANDOM_BLOCK = 1 << 16


def build_random(n: int, p: float, rng: np.random.Generator) -> SocialGraph:
    """Random graph: each unordered pair is an edge with probability p.

    Pairs are examined row by row ((0,1..n-1), (1,2..n-1), ...), one
    Bernoulli draw per pair, so a given rng state always yields the same
    graph. Isolated vertices are legal.

    The draws go through one buffer of _RANDOM_BLOCK doubles. Each double
    takes the same bit-generator output however the draws are split, so
    this is the stream of one rng.random call per row.
    """
    if n < 2:
        raise ValueError("n: random graph needs n >= 2 (got %d)" % n)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p: edge probability must be in [0, 1] (got %r)" % p)
    pairs = n * (n - 1) // 2
    buf = np.empty(min(_RANDOM_BLOCK, pairs))
    hits = []
    for start in range(0, pairs, len(buf)):
        draws = rng.random(out=buf[:min(len(buf), pairs - start)])
        hits.append(np.flatnonzero(draws < p) + start)
    hits = np.concatenate(hits)
    # Row i holds the pairs (i, i+1..n-1): positions ends[i]-lens[i] to
    # ends[i] of the row-major sequence of draws.
    lens = np.arange(n - 1, 0, -1, dtype=np.int64)
    ends = np.cumsum(lens)
    rows = np.searchsorted(ends, hits, side="right")
    return _from_edges(n, rows, hits - (ends[rows] - lens[rows]) + rows + 1)


def build_small_world(n: int, k: int, p: float, rng: np.random.Generator) -> SocialGraph:
    """Small-world graph: ring lattice with random edge rewiring.

    Starting from build_ring(n, k), every clockwise edge (i, i+j mod n),
    j = 1..k/2, is visited in order (j ascending, then i ascending) and,
    with probability p, replaced by an edge from i to a uniformly chosen
    current non-neighbor (self loops and duplicate edges excluded; the
    uniform choice is made by rejection sampling). If i is already linked
    to every other vertex the edge is kept. Edge count is preserved, and
    p = 0 reproduces the ring exactly.
    """
    _validate_ring_args(n, k)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p: rewiring probability must be in [0, 1] (got %r)" % p)
    # Undirected edge {a, b}, a < b, is the key a * n + b.
    src, dst = _ring_edges(n, k)
    edges = set((np.minimum(src, dst) * n + np.maximum(src, dst)).tolist())
    degree = [k] * n
    for j in range(1, k // 2 + 1):
        for i in range(n):
            if rng.random() >= p:
                continue
            old = (i + j) % n
            # Own clockwise edges are visited exactly once, so this edge is
            # still present even after earlier rewires elsewhere.
            if degree[i] >= n - 1:
                continue  # no eligible target; keep the original edge
            while True:
                t = int(rng.integers(0, n))
                if t != i and min(i, t) * n + max(i, t) not in edges:
                    break
            edges.remove(min(i, old) * n + max(i, old))
            edges.add(min(i, t) * n + max(i, t))
            degree[old] -= 1
            degree[t] += 1
    keys = np.fromiter(edges, dtype=np.int64, count=len(edges))
    return _from_edges(n, keys // n, keys % n)


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
        check_choice("topology", self.kind, _TOPOLOGY_KINDS)
        object.__setattr__(self, "k", check_int("k", self.k))
        object.__setattr__(self, "p", check_float("p", self.p))
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
