"""Simulation engine: synchronous rounds, introductions, runs, ensembles.

Round semantics: every agent scores all items it has not consumed against
the consumption state frozen at the start of the round, consumes exactly
its top-ranked item (ties to the lowest item id; abstains only when
nothing is left to rank or the optional utility floor cuts in), and all
consumptions are committed together before the round counter advances.

Determinism: a run is a pure function of its SimulationConfig. All
randomness flows from one PCG64 stream seeded by config.seed and consumed
in a fixed order (graph build, then catalog likings row-major, then
tolerances, then any introduced-item likings in introduction order).
Ensemble members reseed via derive_seed(master, run_index), so results are
identical whether runs execute serially or on a thread pool.

Batches: ensembles and sweeps step many runs of one shape together as one
model.MarketBatch, each run still drawing from its own stream and each
score cell taking the same IEEE operations as in a lone run, so a run's
results never depend on which runs share its batch. run() is a batch of
one.
"""

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import model
from .graph import TopologySpec, check_choice, check_int
from .model import MODES, ROUND_LIMIT, MarketBatch, MarketParams, MarketState, shared_params

__all__ = [
    "SimulationConfig",
    "ConsumptionEvent",
    "Trace",
    "EnsembleResult",
    "DEFAULT_SEED",
    "BATCH_CELLS",
    "derive_seed",
    "init_market",
    "introduce_items",
    "step",
    "run",
    "run_ensemble",
    "run_ensembles",
]

DEFAULT_SEED = 42

# Cell budget of one batch: runs stepped together hold at most this many
# (agent, item-capacity) cells, about 5.0 MB at 19 bytes per cell (liking
# f8, consumed i2, nbr_counts u1 below degree 256 and the score cache f8,
# plus one block buffer of model.BLOCK_CELLS per market); stepping a full
# batch of the paper's runs peaks at 28.7 bytes per cell with the
# temporaries and the per-round counts (tracemalloc). The times and peaks
# below were taken at 24 bytes per cell. A run larger than the budget is a
# batch of one. The paper's experiment (ring, 100 runs x 11 advertisement
# levels, min of 2 calls, 2 vCPUs) at 2^15 / 2^16 / 2^17 / 2^18 cells
# took, at n = 100 (5,400 cells a run), 2.88-3.31 / 2.45-2.63 /
# 2.32-2.41 / 2.09-2.31 s with peak RSS 43 / 44 / 47 / 53 MiB, and at
# n = 500, 14.0-14.9 / 11.2-12.2 / 11.2-11.4 / 10.7-10.8 s with 41 / 42 /
# 44 / 50 MiB (36 bytes per cell then). It stays below two 5,000-agent,
# 50-item runs (500,000 cells), so those never share a batch.
BATCH_CELLS = 1 << 18

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(master: int, index: int) -> int:
    """Child seed for stream `index` under `master`.

    SplitMix64: advance the state by (index + 1) increments of the golden
    gamma, then apply the standard finalizer. Documented here and in the
    README so other implementations can reproduce the derivation. NumPy
    integers are taken as the Python ints they hold, so fixed-width
    arithmetic never wraps or overflows. Both must fit in 64 bits, in
    [0, 2^64), so no two inputs alias one child.
    """
    master, index = check_int("master", master), check_int("index", index)
    for name, value in (("master", master), ("index", index)):
        if not 0 <= value <= _MASK64:
            raise ValueError("%s: must fit in 64 bits (got %r)" % (name, value))
    z = (master + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class SimulationConfig:
    """Everything a run needs: sizes, horizon, topology, constants, seed."""

    n_agents: int = 100
    m_initial: int = 50
    rounds: int = 30
    topology: TopologySpec = field(default_factory=TopologySpec)
    params: MarketParams = field(default_factory=MarketParams)
    mode: str = "fashion"
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for name, cls in (("topology", TopologySpec), ("params", MarketParams)):
            if not isinstance(getattr(self, name), cls):
                raise ValueError("%s: expected a %s (got %r)"
                                 % (name, cls.__name__, getattr(self, name)))
        for name in ("n_agents", "m_initial", "rounds", "seed"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        if self.n_agents < 2:
            raise ValueError("agents: need at least 2 (got %d)" % self.n_agents)
        if self.m_initial < 1:
            raise ValueError("items: need at least 1 (got %d)" % self.m_initial)
        if not 1 <= self.rounds < ROUND_LIMIT:
            raise ValueError("rounds: must be in [1, 2^31) (got %d)" % self.rounds)
        check_choice("mode", self.mode, MODES)
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed: must fit in 64 bits (got %r)" % (self.seed,))
        self.topology.validate_for(self.n_agents)


class ConsumptionEvent(NamedTuple):
    agent: int
    item: int
    round: int


def _intro_count(config: SimulationConfig) -> int:
    """How many introductions a full run will perform."""
    if config.mode != "fashion":
        return 0
    return (config.rounds - 1) // config.params.intro_period


def _final_item_count(config: SimulationConfig) -> int:
    """Catalog plus every item introduced over a full run."""
    return config.m_initial + config.params.intro_batch * _intro_count(config)


@dataclass(frozen=True)
class Trace:
    """Complete record of one run.

    shares[r, a] is item a's market share after round rounds[r] (rounds are
    labeled 1..R); counts is the matching integer consumer tally. Items
    introduced mid-run have zero share before they enter. quality[a] is the
    item's mean liking in this run's population.

    consumed is the run's one event log, the market's own record:
    consumed[i, a] is the round in which agent i consumed item a, or 0 if
    it never did, in the record's dtype: int16 (2 bytes per cell) unless a
    label passed 32,767, then int32. event_agents, event_items and events
    are derived from it on each access: round r's events in ascending
    agent order, int64, as step returned them.
    """

    config: SimulationConfig
    n_agents: int
    rounds: np.ndarray            # (R,) int64, 1..R
    item_ids: np.ndarray          # (M,) int64
    advertisements: np.ndarray    # (M,) float64
    intro_rounds: np.ndarray      # (M,) int64
    quality: np.ndarray           # (M,) float64
    shares: np.ndarray            # (R, M) float64
    counts: np.ndarray            # (R, M) int64
    consumed: np.ndarray          # (n_agents, M) int16 or int32, round label or 0

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def final_shares(self) -> np.ndarray:
        return self.shares[-1]

    def _round_events(self) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Each round's consuming agents and their items, in one pass over
        consumed. np.nonzero lists the cells agent by agent and an agent
        consumes at most once a round, so a stable sort by round label
        leaves every round in ascending agent order."""
        agents, items = np.nonzero(self.consumed)
        labels = self.consumed[agents, items]
        order = np.argsort(labels, kind="stable")
        cuts = np.searchsorted(labels[order], np.arange(2, len(self.rounds) + 1))
        return np.split(agents[order], cuts), np.split(items[order], cuts)

    @property
    def event_agents(self) -> Tuple[np.ndarray, ...]:
        """Per round, the consuming agent ids (ascending)."""
        return tuple(self._round_events()[0])

    @property
    def event_items(self) -> Tuple[np.ndarray, ...]:
        """Per round, the items matching event_agents."""
        return tuple(self._round_events()[1])

    @property
    def events(self) -> Tuple[Tuple[ConsumptionEvent, ...], ...]:
        """Events materialized round by round (round labels are 1-based)."""
        agents, items = self._round_events()
        return tuple(
            tuple(ConsumptionEvent(i, a, r + 1)
                  for i, a in zip(agents[r].tolist(), items[r].tolist()))
            for r in range(len(agents))
        )


@dataclass(frozen=True)
class EnsembleResult:
    """Aggregates of independent runs of one config (seeds derived per run).

    std_share is the population standard deviation (ddof=0) across runs.
    per_run_integrated_share sums each run's share trajectory over rounds.
    """

    config: SimulationConfig
    runs: int
    rounds: np.ndarray                   # (R,)
    item_ids: np.ndarray                 # (M,)
    advertisements: np.ndarray           # (M,)
    intro_rounds: np.ndarray             # (M,)
    mean_share: np.ndarray               # (R, M)
    std_share: np.ndarray                # (R, M)
    per_run_final_share: np.ndarray      # (runs, M)
    per_run_integrated_share: np.ndarray # (runs, M)
    per_run_quality: np.ndarray          # (runs, M)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def mean_final_share(self) -> np.ndarray:
        return self.mean_share[-1]


def init_market(config: SimulationConfig,
                rng: Optional[np.random.Generator] = None) -> MarketState:
    """Fresh round-0 state: graph, likings U[0,1], tolerances U(0,1].

    When rng is omitted a new PCG64 stream is seeded from config.seed.
    Pass the stream in to keep drawing from it for later item
    introductions (introduce_items), in the order of a run.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.PCG64(config.seed))
    return _new_market([config], [rng])


def _new_market(configs: Sequence[SimulationConfig],
                rngs: Sequence[np.random.Generator]) -> MarketBatch:
    """Round-0 market of runs of one shape (equal _batch_key): run b draws
    its graph, catalog likings and tolerances, in that order, from
    rngs[b]. One run is a MarketState.

    The streams are independent, so every graph is drawn first and the
    market is built around zero likings and unit tolerances (a broadcast
    view and a vector, no (rows, m) buffer); each run's likings then go
    into its rows in row blocks of at most model.BLOCK_CELLS cells, which
    draw the stream in the same order as one (n, m) draw, and its
    tolerances in place."""
    first = configs[0]
    n, m, runs = first.n_agents, first.m_initial, len(configs)
    block = max(model.BLOCK_CELLS // m, 1)
    graphs = [c.topology.build(n, rng) for c, rng in zip(configs, rngs)]
    args = (first.mode, np.broadcast_to(0.0, (runs * n, m)), np.ones(runs * n),
            np.full(m, first.params.catalog_ads))
    capacity = _final_item_count(first)
    if runs == 1:
        market = MarketState(first.params, graphs[0], *args, capacity=capacity)
    else:
        market = MarketBatch([c.params for c in configs], graphs, *args,
                             capacity=capacity)
    for b, rng in enumerate(rngs):
        for lo in range(b * n, (b + 1) * n, block):
            hi = min(lo + block, (b + 1) * n)
            market.liking[lo:hi, :m] = rng.random((hi - lo, m))
        rng.random(out=market.tolerance[b * n:(b + 1) * n])
    np.subtract(1.0, market.tolerance, out=market.tolerance)  # flip [0,1) to (0,1]
    return market


def introduce_items(state: MarketBatch, rng=None) -> Tuple[int, ...]:
    """Add one introduction batch to a fashion market; returns the new ids.

    Advertisement levels cycle through params.intro_ads in introduction
    order, except that the very first introduced item takes the run's
    params.tracked_intro_ad when that override is set. Likings start at
    zero, or are drawn U[0,1] per agent under new_item_liking="uniform"
    (one batch of draws per item, in id order). rng is the run's
    generator, or for a batch of several runs a sequence of one generator
    per run.
    """
    if state.mode != "fashion":
        raise ValueError("mode: item introduction requires fashion mode")
    p = state.params
    n = state.run_size
    batch = p.intro_batch
    first = state.m - state.m_initial

    def level(q: MarketParams, cycle_idx: int) -> float:
        if cycle_idx == 0 and q.tracked_intro_ad is not None:
            return q.tracked_intro_ad
        return q.intro_ads[cycle_idx % len(q.intro_ads)]

    ads = np.array([[level(q, first + off) for off in range(batch)]
                    for q in state.run_params])
    if p.new_item_liking == "uniform":
        if rng is None:
            raise ValueError("rng: uniform new-item likings need a generator")
        rngs = rng if isinstance(rng, (list, tuple)) else [rng]
        if len(rngs) != state.runs:
            raise ValueError("rng: need one generator per run (got %d for %d)"
                             % (len(rngs), state.runs))
        likings = np.concatenate(
            [np.column_stack([r.random(n) for _ in range(batch)]) for r in rngs])
    else:
        likings = np.zeros((state.n_agents, batch), dtype=np.float64)
    return state.append_items(ads.reshape(state.counts.shape[:-1] + (batch,)),
                              likings, intro_round=state.round)


def step(state: MarketBatch) -> np.ndarray:
    """Advance one synchronous round of a market or batch; returns the
    committed events.

    The result is an (events, 2) int64 array of (agent, item) rows in
    ascending agent order (agent rows over all runs of a batch); the round
    they belong to is the new state.round. The choices come from
    state.choose and all of the round's consumptions are written by one
    state.commit_round call, which keep the market's score cache whole
    between rounds.
    """
    round_label = state.round + 1
    if state.m == 0:
        state.round = round_label
        return np.empty((0, 2), dtype=np.int64)
    agents, items = state.choose()
    state.commit_round(agents, items, round_label)
    state.round = round_label
    return np.column_stack((agents, items))


def _simulate(configs: Sequence[SimulationConfig],
              seeds: Sequence[int]) -> Tuple[MarketBatch, np.ndarray]:
    """Step runs of one shape (equal _batch_key) together as one market,
    run b on configs[b] seeded by seeds[b] (its config's seed is not read).

    Returns the market, whose consumed array records every run's events,
    and each run's consumer counts after every round as a (runs, R, M)
    int64 array. Each run draws its graph, likings, tolerances and
    introduced-item likings from its own stream, in the order of a lone
    run (see _new_market). In fashion mode a batch of items is introduced
    at the top of every round r with r > 0 and r % intro_period == 0 (so
    the first batch enters after intro_period completed rounds), before
    that round's decisions.
    """
    first = configs[0]
    rngs = [np.random.default_rng(np.random.PCG64(seed)) for seed in seeds]
    market = _new_market(configs, rngs)
    period = first.params.intro_period
    R = first.rounds
    m_final = _final_item_count(first)
    run_counts = market.counts.reshape(market.runs, -1)
    counts = np.zeros((market.runs, R, m_final), dtype=np.int64)
    for t in range(R):
        if first.mode == "fashion" and market.round > 0 and market.round % period == 0:
            introduce_items(market, rngs)
        step(market)
        counts[:, t, :market.m] = run_counts[:, :market.m]
    if market.m != m_final:
        raise AssertionError("introduction schedule drifted from plan")
    return market, counts


def _read_out(market: MarketBatch, counts: np.ndarray) -> Tuple[np.ndarray, ...]:
    """_simulate's market and counts as each run's shares (runs, R, M),
    quality, its mean liking of each item (runs, M), and advertisements
    (runs, M), and the runs' shared intro rounds (M,)."""
    runs, n, m = market.runs, market.run_size, counts.shape[2]
    ads = market.advertisement.reshape(runs, -1)[:, :m]
    quality = market.liking[:, :m].reshape(runs, n, m).mean(axis=1)
    return counts / n, quality, ads, market.intro_rounds[:m].copy()


def run(config: SimulationConfig) -> Trace:
    """Execute one full simulation and return its trace (a batch of one)."""
    market, counts = _simulate([config], [config.seed])
    shares, quality, ads, intro_rounds = _read_out(market, counts)
    R, m_final = counts.shape[1:]
    return Trace(
        config=config,
        n_agents=config.n_agents,
        rounds=np.arange(1, R + 1, dtype=np.int64),
        item_ids=np.arange(m_final, dtype=np.int64),
        advertisements=ads[0],
        intro_rounds=intro_rounds,
        quality=quality[0],
        shares=shares[0],
        counts=counts[0],
        consumed=market.consumed[:, :m_final],
    )


def _batch_key(config: SimulationConfig) -> SimulationConfig:
    """Runs with equal keys may share a batch: they differ at most in the
    seed, gamma, beta and tracked_intro_ad."""
    return replace(config, seed=0, params=shared_params(config.params))


def _batches(work: Sequence[tuple]) -> Iterator[List[tuple]]:
    """Cut the work list of (point, run, config, seed), in order, into
    batches of equal _batch_key under BATCH_CELLS cells (a larger run is a
    batch alone); each point's config is keyed and sized once."""
    batch, key, cells, point = [], None, 0, None
    for w in work:
        if w[0] != point:
            point, config = w[0], w[2]
            k, size = _batch_key(config), config.n_agents * _final_item_count(config)
        if batch and (k != key or cells + size > BATCH_CELLS):
            yield batch
            batch, cells = [], 0
        batch.append(w)
        key = k
        cells += size
    if batch:
        yield batch


def _run_batch(batch: Sequence[tuple]) -> Tuple[np.ndarray, ...]:
    """Simulate a batch of (point, run, config, seed) work; see _read_out."""
    return _read_out(*_simulate([w[2] for w in batch], [w[3] for w in batch]))


def _in_order(fn, items: Sequence, jobs: int) -> Iterator:
    """fn over items, results in order. With jobs > 1, a pool of that many
    threads runs at most jobs + 1 items ahead of the consumer."""
    if jobs == 1 or len(items) == 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        ahead = deque()
        for item in items:
            ahead.append(pool.submit(fn, item))
            if len(ahead) > jobs:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def run_ensembles(configs: Sequence[SimulationConfig], runs: int,
                  jobs: int = 1) -> List[EnsembleResult]:
    """One ensemble of `runs` runs per config, in order; run i of config c
    is seeded by derive_seed(c.seed, i).

    Every (config, run) pair goes into one work list, config-major, which
    is cut in order into batches of one shape under BATCH_CELLS cells, so
    a batch may hold the last runs of one config and the first of the
    next. jobs caps the worker threads, which map over batches; the
    default, 1, runs everything in the calling thread. Batch results are
    stored in work-list order by run index, so neither the batching nor
    the worker count changes the output, and memory stays at the batches
    in flight plus at most two configs' (runs, R, M) share arrays.
    """
    runs, jobs = check_int("runs", runs), check_int("jobs", jobs)
    if runs < 1:
        raise ValueError("runs: need at least 1 (got %d)" % runs)
    if jobs < 1:
        raise ValueError("jobs: need at least 1 (got %d)" % jobs)
    work = [(p, i, c, derive_seed(c.seed, i))
            for p, c in enumerate(configs) for i in range(runs)]
    batches = list(_batches(work))
    results = []
    for batch, (shares, quality, ads, intro) in zip(
            batches, _in_order(_run_batch, batches, jobs)):
        R, m = shares.shape[1:]
        for b, (point, run_idx, _, _) in enumerate(batch):
            if run_idx == 0:
                point_shares, point_quality = np.empty((runs, R, m)), np.empty((runs, m))
                point_ads, point_intro = ads[b].copy(), intro
            elif not (np.array_equal(ads[b], point_ads)
                      and np.array_equal(intro, point_intro)):
                raise AssertionError("item registry diverged between ensemble runs")
            point_shares[run_idx] = shares[b]
            point_quality[run_idx] = quality[b]
            if run_idx == runs - 1:
                results.append(EnsembleResult(
                    config=configs[point],
                    runs=runs,
                    rounds=np.arange(1, R + 1, dtype=np.int64),
                    item_ids=np.arange(m, dtype=np.int64),
                    advertisements=point_ads,
                    intro_rounds=point_intro,
                    mean_share=point_shares.mean(axis=0),
                    std_share=point_shares.std(axis=0),
                    per_run_final_share=point_shares[:, -1, :].copy(),
                    per_run_integrated_share=point_shares.sum(axis=1),
                    per_run_quality=point_quality,
                ))
    return results


def run_ensemble(config: SimulationConfig, runs: int, jobs: int = 1) -> EnsembleResult:
    """Aggregate `runs` independent runs; run i is seeded by
    derive_seed(config.seed, i). See run_ensembles for batching, threads
    and memory."""
    return run_ensembles([config], runs, jobs)[0]
