"""Market model: parameters, state arrays, and the ranking formulas.

The functions at the bottom are the definitional, scalar forms of every
quantity the simulator uses (social pressure, opinion, marketing effect,
sigmoid penalty, utility, quality, market share). They recompute everything
from the raw consumption matrix, so they stay independent of the cached
per-round counters the engine maintains; tests lean on that independence.
"""

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from .graph import SocialGraph, check_choice, check_float, check_floats, check_int

__all__ = [
    "MarketParams",
    "Agent",
    "Item",
    "MarketBatch",
    "MarketState",
    "shared_params",
    "social_pressure",
    "opinion",
    "marketing_effect",
    "sigmoid",
    "penalty",
    "utility",
    "quality",
    "market_share",
]

MODES = ("cultural", "fashion")
BLENDS = ("liking", "literal_consumption")
NEW_ITEM_LIKINGS = ("zero", "uniform")

# consumed's dtype: each consumption's round label, 0 for none, is below 2^31.
CONSUMED_DTYPE = np.int32
ROUND_LIMIT = int(np.iinfo(CONSUMED_DTYPE).max) + 1

# Cell budget of one block of the score kernel: choose (fashion mode) and
# _score_columns walk the agent rows in blocks of at most this many cells
# through one buffer of max(BLOCK_CELLS, capacity) float64s, 256 KiB, so
# a block's score - penalty or added term stays in cache and the buffer
# does not grow with the market. Picked by a sweep over 2^13-2^16 (2
# vCPUs, 4 MiB L2, Python 3.11, NumPy 2.4; median over three fresh
# processes): a ring run() at n = 10^5 (50 items, 30 rounds) took 2.85 /
# 2.98 / 2.59 / 2.77 s, the paper experiment (100 runs x 11 ads, min of
# 2) 2.39 / 2.06 / 1.99 / 1.94 s, and one 200-agent, 2,045-item run (min
# of 3) 0.064 / 0.060 / 0.051 / 0.049 s; 2^16 adds 0.3-0.5 MiB to the
# paper experiment's peak RSS, for no gain at n = 10^5.
BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class MarketParams:
    """Model constants shared by every agent.

    gamma: weight of social pressure in opinion/utility, in [0, 1].
    beta: sigmoid steepness for the saturation penalty, > 0 and finite.
    sigmoid_center: sigmoid midpoint on the market-share axis, in [0, 1].
    intro_period: rounds between item introductions (fashion mode).
    intro_batch: items added per introduction.
    intro_ads: advertisement levels assigned to introduced items, cycled.
    catalog_ads: advertisement level of the initial catalog.
    tracked_intro_ad: when set, overrides the advertisement of the first
        introduced item only; the sweep machinery uses this to vary one
        item's advertising while the rest of the schedule stays fixed.
    new_item_liking: "zero" (introduced items start unliked) or "uniform".
    utility_social_blend: which personal term enters utility alongside
        social pressure: "liking" or "literal_consumption".
    min_utility: optional score floor; an agent abstains rather than
        consume an item scoring below it. None disables the floor.
    """

    gamma: float = 0.95
    beta: float = 1.0
    sigmoid_center: float = 0.5
    intro_period: int = 6
    intro_batch: int = 1
    intro_ads: Tuple[float, ...] = (0.7,)
    catalog_ads: float = 0.0
    tracked_intro_ad: Optional[float] = None
    new_item_liking: str = "zero"
    utility_social_blend: str = "liking"
    min_utility: Optional[float] = None

    def __post_init__(self):
        for name in ("gamma", "beta", "sigmoid_center", "catalog_ads"):
            object.__setattr__(self, name, check_float(name, getattr(self, name)))
        for name in ("tracked_intro_ad", "min_utility"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check_float(name, getattr(self, name)))
        object.__setattr__(self, "intro_ads", check_floats("intro_ads", self.intro_ads))
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma: must be in [0, 1] (got %r)" % (self.gamma,))
        if not 0.0 < self.beta < math.inf:
            raise ValueError("beta: must be > 0 and finite (got %r)" % (self.beta,))
        if not 0.0 <= self.sigmoid_center <= 1.0:
            raise ValueError(
                "sigmoid_center: must be in [0, 1] (got %r)" % (self.sigmoid_center,)
            )
        for name in ("intro_period", "intro_batch"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        if self.intro_period < 1:
            raise ValueError(
                "intro_period: must be >= 1 (got %r)" % (self.intro_period,)
            )
        if self.intro_batch < 1:
            raise ValueError("intro_batch: must be >= 1 (got %r)" % (self.intro_batch,))
        if len(self.intro_ads) == 0:
            raise ValueError("intro_ads: need at least one advertisement level")
        for a in self.intro_ads:
            _check_advertisement(a, "intro_ads")
        _check_advertisement(self.catalog_ads, "catalog_ads")
        if self.tracked_intro_ad is not None:
            _check_advertisement(self.tracked_intro_ad, "tracked_intro_ad")
        check_choice("new_item_liking", self.new_item_liking, NEW_ITEM_LIKINGS)
        check_choice("utility_social_blend", self.utility_social_blend, BLENDS)
        if self.min_utility is not None and not math.isfinite(self.min_utility):
            raise ValueError("min_utility: must be finite or None")


@dataclass(frozen=True)
class Agent:
    """Read-only snapshot of one agent."""

    id: int
    tolerance: float
    liking: Dict[int, float]
    consumed: Dict[int, int]  # item id -> round it was consumed


@dataclass(frozen=True)
class Item:
    """Read-only snapshot of one item."""

    id: int
    advertisement: float
    intro_round: int
    consumption_count: int


def shared_params(params: MarketParams) -> MarketParams:
    """params with the fields that may differ between the runs of one
    MarketBatch (gamma, beta, tracked_intro_ad) reset: runs whose shared
    params are equal may step as one batch."""
    return replace(params, gamma=0.0, beta=1.0, tracked_intro_ad=None)


class MarketBatch:
    """Markets of one shape stepped together as one market of many agents.

    Run b owns agent rows b * run_size to (b + 1) * run_size - 1 of every
    per-agent array (liking, tolerance, consumed, nbr_counts), and
    ``graph`` is the disjoint union of the runs' graphs, so no edge joins
    two runs. ``counts`` and ``advertisement`` are (runs, capacity);
    ``intro_rounds``, ``m`` and ``round`` are shared. ``run_params[b]`` is
    run b's MarketParams: the runs differ at most in gamma, beta and
    tracked_intro_ad (see shared_params), and ``params`` is run 0's.

    ``consumed[i, a]`` is the 1-based round in which agent row i consumed
    item a, or 0 if it has not. Arrays are sized to a capacity that may
    exceed the live item count (column m and beyond are reserved for
    future introductions); ``m_initial`` remembers the catalog size so
    introduced items can be told apart. ``counts`` and ``nbr_counts`` are
    running caches (consumers per item; per-agent count of neighbours who
    consumed each item) that ``commit_round`` updates once per round.

    ``scores`` caches every agent row's round-independent score for every
    live item,

        scores[i, a] = (gamma * s[i, a] + (1 - gamma) * liking[i, a])
                       + tolerance[i] * advertisement[a]

    where s[i, a] is the fraction of i's neighbours who consumed a, gamma
    and advertisement are those of i's run, and -inf where i already
    consumed a. Cultural mode drops the marketing term, and the
    literal_consumption blend drops the liking term, as in
    ``kernel.decide_round``. Its first ``_scored`` columns are current:
    ``choose`` scores the columns from there up to m, and ``commit_round``
    scores them too, then re-scores the cells whose neighbour counts it
    raised, so it always leaves the cache whole. Both go through
    ``_score``, the one copy of the formula: every cell goes through the
    same IEEE-754 operations in the same order as ``decide_round``, so
    ``choose`` returns what ``kernel.decide_round(market)``, the full
    recompute, returns, bit for bit, whichever runs share the batch.
    Writes to the arrays other than ``commit_round``'s are not followed.
    The market owns the cache and its scratch buffer, so batches on
    different threads share no memory.

    Each cell costs 24 bytes: liking and scores float64, consumed and
    nbr_counts int32 (an int32 count over a float64 degree is the same
    float64 as an int64 one). The scratch buffer is one block of
    max(BLOCK_CELLS, capacity) float64s, whatever the row count:
    ``_score_columns`` and ``choose`` (fashion mode) walk the rows in
    blocks of at most BLOCK_CELLS cells that never cross a run boundary
    (``_blocks``), so each block is cache-sized and each run's penalty
    and advertisement rows still broadcast over its agents. ``penalties``
    adds its sigmoid table, run_size + 1 float64s per distinct beta.

    A MarketState is a batch of one run whose ``counts`` and
    ``advertisement`` have no run axis; the methods here index them as
    ``[..., :m]`` or flatten them, so they serve both.
    """

    __slots__ = (
        "params", "run_params", "runs", "run_size", "graph", "mode", "round",
        "m", "m_initial", "liking", "tolerance", "advertisement", "intro_rounds",
        "consumed", "counts", "nbr_counts", "scores", "_scratch", "_scored",
        "_denom", "_gamma", "_sigmoid",
    )

    def __init__(
        self,
        run_params: Sequence[MarketParams],
        graphs: Sequence[SocialGraph],
        mode: str,
        liking: np.ndarray,
        tolerance: np.ndarray,
        advertisement: np.ndarray,
        capacity: Optional[int] = None,
    ):
        """Round 0 of len(graphs) runs, run b on graphs[b] with run_params[b]:
        liking (runs * n, m) and tolerance (runs * n,) hold the runs' rows
        in order; advertisement is (m,), shared by every run, or (runs, m).
        """
        check_choice("mode", mode, MODES)
        runs = len(graphs)
        if runs < 1 or len(run_params) != runs:
            raise ValueError("graphs: need one graph per run's params (got %d for %d)"
                             % (runs, len(run_params)))
        n = graphs[0].n
        if any(g.n != n for g in graphs):
            raise ValueError("graphs: every run needs a graph of %d agents" % n)
        if len({shared_params(q) for q in set(run_params)}) > 1:
            raise ValueError("run_params: runs of one batch may differ only in gamma, "
                             "beta and tracked_intro_ad")
        liking = np.asarray(liking, dtype=np.float64)
        tolerance = np.asarray(tolerance, dtype=np.float64)
        advertisement = np.asarray(advertisement, dtype=np.float64)
        if liking.ndim != 2:
            raise ValueError("liking: expected a 2-d (agents x items) array")
        rows, m = liking.shape
        if rows != runs * n:
            raise ValueError(
                "liking: row count %d does not match graph size %d" % (rows, runs * n)
            )
        if tolerance.shape != (rows,):
            raise ValueError("tolerance: expected shape (%d,)" % rows)
        if advertisement.shape not in ((m,), (runs, m)):
            raise ValueError("advertisement: expected shape (%d,) or (%d, %d)" % (m, runs, m))
        # Each check asks for the values in range, not out of it: a NaN
        # min or max fails every comparison, so it is rejected too.
        if m and not (liking.min() >= 0.0 and liking.max() <= 1.0):
            raise ValueError("liking: values must be in [0, 1]")
        if rows and not (tolerance.min() > 0.0 and tolerance.max() <= 1.0):
            raise ValueError("tolerance: values must be in (0, 1]")
        if m and not (advertisement.min() >= 0.0 and advertisement.max() <= 1.0):
            raise ValueError("advertisement: values must be in [0, 1]")

        cap = max(m, capacity if capacity is not None else m)
        self.params = run_params[0]
        self.run_params = tuple(run_params)
        self.runs, self.run_size = runs, n
        # Disjoint union: run b's offsets continue where run b - 1's edges
        # end, and its targets move to its block of rows.
        starts = np.cumsum([0] + [len(g.targets) for g in graphs])
        offsets = [g.offsets[1:] + s for g, s in zip(graphs, starts)]
        targets = [g.targets + b * n for b, g in enumerate(graphs)]
        self.graph = SocialGraph(rows, np.concatenate([[0]] + offsets),
                                 np.concatenate(targets))
        self.mode = mode
        self.round = 0
        self.m = m
        self.m_initial = m
        self.liking = np.zeros((rows, cap), dtype=np.float64)
        self.liking[:, :m] = liking
        self.tolerance = np.ascontiguousarray(tolerance)
        self.advertisement = np.zeros((runs, cap), dtype=np.float64)
        self.advertisement[:, :m] = advertisement
        self.intro_rounds = np.zeros(cap, dtype=np.int64)
        self.consumed = np.zeros((rows, cap), dtype=CONSUMED_DTYPE)
        self.counts = np.zeros((runs, cap), dtype=np.int64)
        self.nbr_counts = np.zeros((rows, cap), dtype=np.int32)
        self.scores, self._scratch = np.empty((rows, cap)), np.empty(max(BLOCK_CELLS, cap))
        self._scored = 0
        # max(deg, 1): an isolated agent has counts of 0, and 0 / 1 gives
        # the +0.0 that decide_round leaves where deg == 0.
        self._denom = np.maximum(self.graph.degrees, 1).astype(np.float64)
        # One gamma when the runs agree, else a column of each row's gamma.
        gammas = [q.gamma for q in run_params]
        self._gamma = self.params.gamma if len(set(gammas)) == 1 else (
            np.repeat(np.array(gammas, dtype=np.float64), n)[:, None])
        self._sigmoid = None

    @property
    def n_agents(self) -> int:
        """Agent rows over all runs."""
        return self.graph.n

    @property
    def n_items(self) -> int:
        return self.m

    def choose(self) -> Tuple[np.ndarray, np.ndarray]:
        """This round's consumers and their items, agent rows ascending.

        Scores the live columns not yet in ``scores``, subtracts each run's
        ``penalties`` (fashion mode only) and takes each row's argmax, ties
        to the lowest item id. An agent abstains when nothing is left for
        it (best score -inf) or its best score is below min_utility.
        """
        self._score_columns()
        rows, m = self.n_agents, self.m
        index = np.arange(rows)
        if self.mode == "fashion":
            pen = self.penalties().reshape(-1, 1, m)
            choice, best = np.empty(rows, dtype=np.intp), np.empty(rows)
            for runs, lo, hi in self._blocks(m):
                out = self._scratch[:(hi - lo) * m].reshape(runs.stop - runs.start, -1, m)
                np.subtract(self.scores[lo:hi, :m].reshape(out.shape), pen[runs], out=out)
                out = out.reshape(hi - lo, m)
                out.argmax(axis=1, out=choice[lo:hi])  # first max = lowest id
                best[lo:hi] = out[index[:hi - lo], choice[lo:hi]]
        else:
            scores = self.scores[:, :m]
            choice = scores.argmax(axis=1)  # first max = lowest id
            best = scores[index, choice]
        floor = self.params.min_utility
        keep = best != -np.inf if floor is None else best >= float(floor)
        agents = np.flatnonzero(keep)
        return agents, choice[agents]

    def _blocks(self, width: int) -> Iterator[Tuple[slice, int, int]]:
        """Agent rows lo..hi-1 in order, in blocks of at most BLOCK_CELLS
        cells of the given width, with the slice of runs each block lies
        in: whole runs per block when a run fits, else rows of one run (at
        least one row each), so no block crosses a run boundary."""
        runs, n = self.runs, self.run_size
        if n * width <= BLOCK_CELLS:
            k = BLOCK_CELLS // max(n * width, 1)
            for r in range(0, runs, k):
                last = min(r + k, runs)
                yield slice(r, last), r * n, last * n
        else:
            h = max(BLOCK_CELLS // width, 1)
            for r in range(runs):
                for lo in range(r * n, (r + 1) * n, h):
                    yield slice(r, r + 1), lo, min(lo + h, (r + 1) * n)

    def _score_columns(self) -> None:
        """Score columns _scored to m in place, block by block through
        (runs, rows, columns) views, the scratch buffer (free until choose
        subtracts the penalties) holding each added term and then the
        consumed flags, so no temporary grows with the market."""
        lo, hi = self._scored, self.m
        if hi == lo:
            return
        cap, w = self.scores.shape[1], hi - lo
        for runs, first, last in self._blocks(w):
            shape = (runs.stop - runs.start, -1, w)

            def cell(a):
                return a[first:last, lo:hi].reshape(shape)

            self._score(cell, lambda a: a[first:last].reshape(shape[:2] + (1,)),
                        lambda a: a.reshape(-1, 1, cap)[runs, :, lo:hi],
                        out=cell(self.scores),
                        term=self._scratch[:(last - first) * w].reshape(shape))
        self._scored = hi

    def commit_round(self, agents: np.ndarray, items: np.ndarray,
                     round_no: int) -> None:
        """Commit one round's consumptions together: agents[k] consumed items[k].

        Agents are rows over all runs and must be strictly ascending (one
        consumption per agent per round). Every cache update is an integer
        add or store, so the result equals committing each pair alone, in
        any order. The whole batch is validated before anything is written.

        The live columns not yet scored are scored first; then the cells
        whose neighbour counts rose are re-scored and the consumed pairs
        set to -inf, so the score cache is left whole.
        """
        _check_round(round_no)
        agents = np.asarray(agents, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if agents.ndim != 1 or agents.shape != items.shape:
            raise ValueError("agents, items: expected two 1-d arrays of equal length")
        if len(agents) == 0:
            return
        if agents[0] < 0 or agents[-1] >= self.n_agents or np.any(agents[1:] <= agents[:-1]):
            raise ValueError("agents: expected strictly ascending ids in [0, %d)"
                             % self.n_agents)
        if items.min() < 0 or items.max() >= self.m:
            raise ValueError("items: ids must be in [0, %d)" % self.m)
        seen = self.consumed[agents, items] != 0
        if seen.any():
            k = int(np.argmax(seen))
            raise ValueError("agent %d already consumed item %d" % (agents[k], items[k]))

        self._score_columns()
        self.consumed[agents, items] = round_no
        cap = self.consumed.shape[1]
        # counts flattened: run r's item a is r * cap + a (on a MarketState
        # every agent is in run 0, so the index is the item id).
        counts = self.counts.reshape(-1)
        counts += np.bincount(agents // self.run_size * cap + items, minlength=counts.size)
        rows, cols = self._neighbour_cells(agents, items)
        flat = rows * cap
        flat += cols
        # nbr_counts and scores are allocated C-contiguous (by __init__ and
        # _grow), so the reshapes are views and the flat writes land in them.
        # A scalar of the array's dtype: NumPy's add.at takes a slow path
        # on int32 with a Python int.
        np.add.at(self.nbr_counts.reshape(-1), flat, np.int32(1))
        self._rescore(rows, cols, flat)
        self.scores.reshape(-1).put(agents * cap + items, -np.inf)

    def _neighbour_cells(self, agents: np.ndarray,
                         items: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The neighbour rows of the consumers, gathered from the CSR
        arrays, and each consumer's item repeated once per neighbour."""
        offsets = self.graph.offsets
        starts = offsets[agents]
        lens = offsets[agents + 1] - starts
        ends = np.cumsum(lens)
        pos = np.arange(ends[-1]) + np.repeat(starts - (ends - lens), lens)
        return self.graph.targets[pos], np.repeat(items, lens)

    def _rescore(self, rows: np.ndarray, cols: np.ndarray, flat: np.ndarray) -> None:
        """Re-score the cells (rows, cols), flat index flat, repeats
        allowed, from gathers (take reads its array flattened)."""
        cap = self.scores.shape[1]
        c = self._score(lambda a: a.take(flat), lambda a: a.take(rows),
                        lambda a: a.take(rows // self.run_size * cap + cols))
        self.scores.reshape(-1).put(flat, c)

    def _score(self, cell, row, ads, out=None, term=None) -> np.ndarray:
        """The cached score (see the class docstring) of the cells that
        cell selects from a per-cell array, row from a per-row array and
        ads from advertisement, written into out (allocated when None).

        term, a buffer of the cells' shape, holds each added term and then
        the consumed flags. Without it each term overwrites its own first
        selection, so the selections must then be fresh gathers, never
        views of the market.
        """
        g = self._gamma
        if np.ndim(g):
            g = row(g)
        c = np.divide(cell(self.nbr_counts), row(self._denom), out=out)
        c *= g
        if self.mode != "fashion" or self.params.utility_social_blend == "liking":
            c += _product(cell(self.liking), 1.0 - g, term)
        if self.mode == "fashion":
            c += _product(row(self.tolerance), ads(self.advertisement), term)
        flags = None if term is None else (
            term.reshape(-1).view(np.bool_)[:term.size].reshape(term.shape))
        np.copyto(c, -np.inf, where=np.not_equal(cell(self.consumed), 0, out=flags))
        return c

    def penalties(self) -> np.ndarray:
        """Every live item's saturation penalty for the coming round, one
        row per run (no run axis on a MarketState): the ``penalty`` of the
        item's share counts / run_size, bit for bit; zero in cultural mode.

        The first call builds a table of the scalar ``sigmoid(k /
        run_size, beta, sigmoid_center)`` for k = 0..run_size, one row per
        distinct beta (8 bytes per entry: 0.8 MB at run_size = 10^5), and
        every call is one gather from it times the advertisement. A row
        costs 0.04 ms at run_size = 100, 1-2 ms at 5,000 and 20-37 ms at
        10^5 (2 vCPUs, Python 3.11, NumPy 2.4), paid once per market.
        """
        if self.mode != "fashion":
            return np.zeros(self.counts[..., :self.m].shape)
        if self._sigmoid is None:
            betas, row = np.unique([p.beta for p in self.run_params], return_inverse=True)
            n, center = self.run_size, self.params.sigmoid_center
            table = np.array([[sigmoid(k / n, beta, center) for k in range(n + 1)]
                              for beta in betas.tolist()])
            self._sigmoid = (row.reshape(self.counts.shape[:-1] + (1,)), table)
        row, table = self._sigmoid
        return table[row, self.counts[..., :self.m]] * self.advertisement[..., :self.m]

    def append_items(
        self,
        advertisements: Sequence[float],
        likings: np.ndarray,
        intro_round: int,
    ) -> Tuple[int, ...]:
        """Add items with the given ads and per-agent likings; return new ids.

        advertisements holds one level per new item, the same in every run,
        or one row of levels per run.
        """
        ads = np.asarray(advertisements, dtype=np.float64)
        b = ads.shape[-1]
        likings = np.asarray(likings, dtype=np.float64)
        if likings.shape != (self.n_agents, b):
            raise ValueError("likings: expected shape (%d, %d)" % (self.n_agents, b))
        if b and not (likings.min() >= 0.0 and likings.max() <= 1.0):
            raise ValueError("likings: values must be in [0, 1]")
        for adv in ads.reshape(-1).tolist():
            _check_advertisement(adv, "advertisement")
        if self.m + b > self.liking.shape[1]:
            self._grow(self.m + b)
        lo, hi = self.m, self.m + b
        self.liking[:, lo:hi] = likings
        self.advertisement[..., lo:hi] = ads
        self.intro_rounds[lo:hi] = intro_round
        self.m = hi
        return tuple(range(lo, hi))

    def _grow(self, need: int) -> None:
        cap = self.liking.shape[1]
        new_cap = max(need, cap * 2, cap + 4)
        for name, fill in (("liking", 0.0), ("advertisement", 0.0), ("intro_rounds", 0),
                           ("consumed", 0), ("counts", 0), ("nbr_counts", 0),
                           ("scores", 0.0)):
            old = getattr(self, name)
            new = np.full(old.shape[:-1] + (new_cap,), fill, dtype=old.dtype)
            new[..., :cap] = old
            setattr(self, name, new)
        if self._scratch.size < new_cap:
            self._scratch = np.empty(new_cap)


class MarketState(MarketBatch):
    """Mutable simulation state of one run: who likes, tolerates, and
    consumed what.

    A batch of one (see MarketBatch): ``counts``, ``advertisement`` and
    ``intro_rounds`` are per-item vectors, and the scalar accessors below
    read one agent or item. ``apply_consumption`` commits one event
    through ``commit_round``.
    """

    __slots__ = ()

    def __init__(
        self,
        params: MarketParams,
        graph: SocialGraph,
        mode: str,
        liking: np.ndarray,
        tolerance: np.ndarray,
        advertisement: np.ndarray,
        capacity: Optional[int] = None,
    ):
        super().__init__((params,), (graph,), mode, liking, tolerance, advertisement,
                         capacity)
        self.counts, self.advertisement = self.counts[0], self.advertisement[0]

    def agent(self, agent_id: int) -> Agent:
        _check_agent(self, agent_id)
        i = int(agent_id)
        consumed = {int(a): int(r) for a, r in enumerate(self.consumed[i, :self.m]) if r}
        liking = {int(a): float(self.liking[i, a]) for a in range(self.m)}
        return Agent(id=i, tolerance=float(self.tolerance[i]),
                     liking=liking, consumed=consumed)

    def item(self, item_id: int) -> Item:
        _check_item(self, item_id)
        a = int(item_id)
        return Item(
            id=a,
            advertisement=float(self.advertisement[a]),
            intro_round=int(self.intro_rounds[a]),
            consumption_count=int(self.counts[a]),
        )

    @property
    def agents(self) -> Tuple[Agent, ...]:
        return tuple(self.agent(i) for i in range(self.n_agents))

    @property
    def items(self) -> Tuple[Item, ...]:
        return tuple(self.item(a) for a in range(self.m))

    def has_consumed(self, agent_id: int, item_id: int) -> bool:
        _check_agent(self, agent_id)
        _check_item(self, item_id)
        return bool(self.consumed[agent_id, item_id])

    def apply_consumption(self, agent_id: int, item_id: int, round_no: int) -> None:
        """Commit one consumption event: commit_round of one pair, after
        checking that both ids are integers, which its int64 cast is not."""
        _check_agent(self, agent_id)
        _check_item(self, item_id)
        self.commit_round(np.array([agent_id]), np.array([item_id]), round_no)


def _product(x: np.ndarray, y, out: Optional[np.ndarray]) -> np.ndarray:
    """x * y into out, or into x itself (a fresh gather) when out is None."""
    return np.multiply(x, y, out=x if out is None else out)


def _check_advertisement(a: float, name: str = "advertisement") -> None:
    if not 0.0 <= a <= 1.0:
        raise ValueError("%s: must be in [0, 1] (got %r)" % (name, a))


def _check_tolerance(t: float) -> None:
    if not 0.0 < t <= 1.0:
        raise ValueError("tolerance: must be in (0, 1] (got %r)" % (t,))


def _check_round(round_no: int) -> None:
    if not 1 <= round_no < ROUND_LIMIT:
        raise ValueError("round_no: must be in [1, 2^31) (got %r)" % (round_no,))


def _check_agent(state: MarketState, agent_id: int) -> None:
    if not isinstance(agent_id, (int, np.integer)) or not 0 <= agent_id < state.n_agents:
        raise ValueError("agent id %r out of range [0, %d)" % (agent_id, state.n_agents))


def _check_item(state: MarketState, item_id: int) -> None:
    if not isinstance(item_id, (int, np.integer)) or not 0 <= item_id < state.m:
        raise ValueError("item id %r out of range [0, %d)" % (item_id, state.m))


def social_pressure(state: MarketState, agent_id: int, item_id: int) -> float:
    """Fraction of the agent's neighbors who already consumed the item.

    Computed against the committed consumption state (i.e. the state at the
    start of the current round). Agents without neighbors feel no pressure.
    """
    _check_agent(state, agent_id)
    _check_item(state, item_id)
    nbrs = state.graph.neighbor_array(int(agent_id))
    if len(nbrs) == 0:
        return 0.0
    count = int(np.count_nonzero(state.consumed[nbrs, int(item_id)]))
    return count / len(nbrs)


def opinion(state: MarketState, agent_id: int, item_id: int) -> float:
    """gamma-weighted blend of social pressure and personal liking."""
    g = state.params.gamma
    s = social_pressure(state, agent_id, item_id)
    liking = float(state.liking[int(agent_id), int(item_id)])
    return g * s + (1.0 - g) * liking


def marketing_effect(advertisement: float, tolerance: float) -> float:
    """Advertising pull felt by one agent: advertisement times tolerance."""
    _check_advertisement(advertisement)
    _check_tolerance(tolerance)
    return advertisement * tolerance


def sigmoid(x: float, beta: float = 1.0, center: float = 0.5) -> float:
    """Logistic curve 1 / (1 + exp(-beta * (x - center))).

    beta controls steepness and must be positive and finite; center is
    the midpoint where the curve crosses 1/2. Evaluated in the numerically
    stable branch-by-sign form, so extreme arguments saturate to 0 or 1
    instead of overflowing.
    """
    if not 0.0 < beta < math.inf:
        raise ValueError("beta: must be > 0 and finite (got %r)" % (beta,))
    t = beta * (x - center)
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def penalty(share: float, advertisement: float,
            beta: float = 1.0, center: float = 0.5) -> float:
    """Saturation penalty: sigmoid of market share, scaled by advertising.

    Heavily advertised items are punished hardest once widely consumed;
    the penalty is identical for every agent.
    """
    _check_advertisement(advertisement)
    return sigmoid(share, beta, center) * advertisement


def utility(state: MarketState, agent_id: int, item_id: int) -> float:
    """Fashion-mode ranking score of one item for one agent.

    gamma * social_pressure + (1 - gamma) * blend + marketing - penalty,
    where the blend term is the agent's liking (default) or, under the
    literal_consumption blend, the agent's own 0/1 consumption flag. The
    result may be negative; no clamping is applied.
    """
    _check_agent(state, agent_id)
    _check_item(state, item_id)
    i, a = int(agent_id), int(item_id)
    p = state.params
    s = social_pressure(state, i, a)
    if p.utility_social_blend == "liking":
        blend = float(state.liking[i, a])
    else:
        blend = 1.0 if state.consumed[i, a] else 0.0
    m_eff = marketing_effect(float(state.advertisement[a]), float(state.tolerance[i]))
    pen = penalty(market_share(state, a), float(state.advertisement[a]),
                  p.beta, p.sigmoid_center)
    return p.gamma * s + (1.0 - p.gamma) * blend + m_eff - pen


def quality(state: MarketState, item_id: int) -> float:
    """Mean liking of the item across all agents."""
    _check_item(state, item_id)
    return float(np.mean(state.liking[:, int(item_id)]))


def market_share(state: MarketState, item_id: int) -> float:
    """Fraction of agents who have consumed the item."""
    _check_item(state, item_id)
    count = int(np.count_nonzero(state.consumed[:, int(item_id)]))
    return count / state.n_agents
