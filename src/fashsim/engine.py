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

from . import kernel
from .graph import TopologySpec
from .model import MODES, MarketBatch, MarketParams, MarketState, shared_params

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
# (agent, item-capacity) cells, about 1.3 MB at 41 bytes per cell (liking,
# consumed, consumed_round, nbr_counts, the score table and its scratch
# buffer). A run larger than the budget is a batch of one. On the paper's
# 100-agent runs, 2^15 cells (6 runs) is as fast as 2^16 within 3%, and
# 2^16 adds about 1 MiB to the peak memory of an optimize call.
BATCH_CELLS = 1 << 15

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(master: int, index: int) -> int:
    """Child seed for stream `index` under `master`.

    SplitMix64: advance the state by (index + 1) increments of the golden
    gamma, then apply the standard finalizer. Documented here and in the
    README so other implementations can reproduce the derivation.
    """
    if index < 0:
        raise ValueError("index: must be >= 0 (got %d)" % index)
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
        if self.n_agents < 2:
            raise ValueError("agents: need at least 2 (got %d)" % self.n_agents)
        if self.m_initial < 1:
            raise ValueError("items: need at least 1 (got %d)" % self.m_initial)
        if self.rounds < 1:
            raise ValueError("rounds: need at least 1 (got %d)" % self.rounds)
        if self.mode not in MODES:
            raise ValueError(
                "mode: expected one of %s (got %r)" % (", ".join(MODES), self.mode)
            )
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
    event_agents: Tuple[np.ndarray, ...]  # per round, consuming agent ids
    event_items: Tuple[np.ndarray, ...]   # per round, matching item ids

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def final_shares(self) -> np.ndarray:
        return self.shares[-1]

    @property
    def events(self) -> Tuple[Tuple[ConsumptionEvent, ...], ...]:
        """Events materialized round by round (round labels are 1-based)."""
        return tuple(
            tuple(
                ConsumptionEvent(int(i), int(a), r + 1)
                for i, a in zip(self.event_agents[r], self.event_items[r])
            )
            for r in range(len(self.rounds))
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
    Passing the stream in lets run() keep drawing from it for later item
    introductions.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.PCG64(config.seed))
    graph = config.topology.build(config.n_agents, rng)
    n, m = config.n_agents, config.m_initial
    liking = rng.random((n, m))
    tolerance = 1.0 - rng.random(n)  # flip [0,1) to (0,1]
    ads = np.full(m, config.params.catalog_ads, dtype=np.float64)
    capacity = _final_item_count(config)
    return MarketState(
        params=config.params,
        graph=graph,
        mode=config.mode,
        liking=liking,
        tolerance=tolerance,
        advertisement=ads,
        capacity=capacity,
    )


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


def step(state: MarketBatch,
         table: Optional[kernel.ScoreTable] = None) -> np.ndarray:
    """Advance one synchronous round of a market or batch; returns the
    committed events.

    The result is an (events, 2) int64 array of (agent, item) rows in
    ascending agent order (agent rows over all runs of a batch); the round
    they belong to is the new state.round. Choices come from the
    kernel.ScoreTable, and all of the round's consumptions are written by
    one commit_round call. Without a table, step scores the state from
    scratch, so standalone calls need none; a table passed in must have
    followed every earlier round of this state (run() keeps one).
    """
    round_label = state.round + 1
    if state.m == 0:
        state.round = round_label
        return np.empty((0, 2), dtype=np.int64)
    if table is None:
        table = kernel.ScoreTable(state)
    elif table.state is not state:
        raise ValueError("table: built for another MarketState or batch")
    else:
        table.sync()

    agents, items = table.choose(state.penalties())
    rows, cols = state.commit_round(agents, items, round_label)
    table.refresh(rows, cols, agents, items)
    state.round = round_label
    return np.column_stack((agents, items))


def _simulate(configs: Sequence[SimulationConfig],
              keep_events: bool = False) -> Tuple[MarketBatch, np.ndarray, list]:
    """Step runs of one shape (equal _batch_key) together as one market.

    Returns the market, each run's consumer counts after every round as a
    (runs, R, M) int64 array, and (with keep_events) each round's events
    as step returns them. Each run draws its graph, likings, tolerances and introduced-item
    likings from its own stream, in the order of a lone run. One run is
    stepped on its own MarketState; several are stacked into a
    MarketBatch. In fashion mode a batch of items is introduced at the top
    of every round r with r > 0 and r % intro_period == 0 (so the first
    batch enters after intro_period completed rounds), before that round's
    decisions.
    """
    first = configs[0]
    rngs = [np.random.default_rng(np.random.PCG64(c.seed)) for c in configs]
    states = (init_market(c, r) for c, r in zip(configs, rngs))
    market = next(states) if len(configs) == 1 else MarketBatch.stack(states, len(configs))
    table = kernel.ScoreTable(market)
    period = first.params.intro_period
    R = first.rounds
    m_final = _final_item_count(first)
    run_counts = market.counts.reshape(market.runs, -1)
    counts = np.zeros((market.runs, R, m_final), dtype=np.int64)
    events = []
    for t in range(R):
        if first.mode == "fashion" and market.round > 0 and market.round % period == 0:
            introduce_items(market, rngs)
        round_events = step(market, table)
        counts[:, t, :market.m] = run_counts[:, :market.m]
        if keep_events:
            events.append(round_events)
    if market.m != m_final:
        raise AssertionError("introduction schedule drifted from plan")
    return market, counts, events


def _run_quality(market: MarketBatch, b: int, m: int) -> np.ndarray:
    """Mean liking of each of the first m items in run b."""
    n = market.run_size
    return market.liking[b * n:(b + 1) * n, :m].mean(axis=0)


def run(config: SimulationConfig) -> Trace:
    """Execute one full simulation and return its trace (a batch of one)."""
    market, counts, events = _simulate([config], keep_events=True)
    R = config.rounds
    m_final = counts.shape[2]
    return Trace(
        config=config,
        n_agents=config.n_agents,
        rounds=np.arange(1, R + 1, dtype=np.int64),
        item_ids=np.arange(m_final, dtype=np.int64),
        advertisements=market.advertisement[:m_final].copy(),
        intro_rounds=market.intro_rounds[:m_final].copy(),
        quality=_run_quality(market, 0, m_final),
        shares=counts[0] / config.n_agents,
        counts=counts[0],
        event_agents=tuple(ev[:, 0] for ev in events),
        event_items=tuple(ev[:, 1] for ev in events),
    )


def _batch_key(config: SimulationConfig) -> SimulationConfig:
    """Runs with equal keys may share a batch: they differ at most in the
    seed, gamma, beta and tracked_intro_ad."""
    return replace(config, seed=0, params=shared_params(config.params))


def _batches(work: Sequence[tuple]) -> Iterator[List[tuple]]:
    """Cut the work list of (point, run, config), in order, into batches
    of equal _batch_key holding at most BATCH_CELLS cells (a larger run is
    a batch alone)."""
    batch, key, cells = [], None, 0
    for w in work:
        config = w[2]
        size = config.n_agents * _final_item_count(config)
        k = _batch_key(config)
        if batch and (k != key or cells + size > BATCH_CELLS):
            yield batch
            batch, cells = [], 0
        batch.append(w)
        key = k
        cells += size
    if batch:
        yield batch


def _run_batch(batch: Sequence[tuple]) -> Tuple[np.ndarray, ...]:
    """Each run's shares (runs, R, M), quality (runs, M) and
    advertisements (runs, M), and the batch's intro rounds (M,)."""
    market, counts, _ = _simulate([config for _, _, config in batch])
    m = counts.shape[2]
    runs = market.runs
    ads = market.advertisement.reshape(runs, -1)[:, :m]
    quality = np.stack([_run_quality(market, b, m) for b in range(runs)])
    return counts / market.run_size, quality, ads, market.intro_rounds[:m].copy()


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
    if runs < 1:
        raise ValueError("runs: need at least 1 (got %d)" % runs)
    if jobs < 1:
        raise ValueError("jobs: need at least 1 (got %d)" % jobs)
    work = [(p, i, replace(c, seed=derive_seed(c.seed, i)))
            for p, c in enumerate(configs) for i in range(runs)]
    batches = list(_batches(work))
    results = []
    for batch, (shares, quality, ads, intro) in zip(
            batches, _in_order(_run_batch, batches, jobs)):
        R, m = shares.shape[1:]
        for b, (point, run_idx, _) in enumerate(batch):
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
