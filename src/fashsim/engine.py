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
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import kernel
from .graph import SocialGraph, TopologySpec
from .model import MODES, MarketParams, MarketState, sigmoid

__all__ = [
    "SimulationConfig",
    "ConsumptionEvent",
    "Trace",
    "EnsembleResult",
    "DEFAULT_SEED",
    "derive_seed",
    "init_market",
    "introduce_items",
    "step",
    "run",
    "run_ensemble",
]

DEFAULT_SEED = 42

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


def introduce_items(state: MarketState,
                    rng: Optional[np.random.Generator] = None) -> Tuple[int, ...]:
    """Add one introduction batch to a fashion market; returns the new ids.

    Advertisement levels cycle through params.intro_ads in introduction
    order, except that the very first introduced item takes
    params.tracked_intro_ad when that override is set. Likings start at
    zero, or are drawn U[0,1] per agent under new_item_liking="uniform"
    (one batch of draws per item, in id order).
    """
    if state.mode != "fashion":
        raise ValueError("mode: item introduction requires fashion mode")
    p = state.params
    n = state.n_agents
    batch = p.intro_batch
    ads = []
    for off in range(batch):
        cycle_idx = (state.m + off) - state.m_initial
        if cycle_idx == 0 and p.tracked_intro_ad is not None:
            ads.append(p.tracked_intro_ad)
        else:
            ads.append(p.intro_ads[cycle_idx % len(p.intro_ads)])
    if p.new_item_liking == "uniform":
        if rng is None:
            raise ValueError("rng: uniform new-item likings need a generator")
        likings = np.column_stack([rng.random(n) for _ in range(batch)])
    else:
        likings = np.zeros((n, batch), dtype=np.float64)
    return state.append_items(ads, likings, intro_round=state.round)


def _round_penalties(state: MarketState) -> np.ndarray:
    """Per-item penalty for the coming round, from round-start shares.

    Zero in cultural mode. Counts take at most n + 1 distinct values, so
    the scalar sigmoid runs once per distinct count and is spread to the
    items by table lookup; each item still gets exactly
    sigmoid(count / n) * advertisement.
    """
    p = state.params
    n = state.n_agents
    m = state.m
    if state.mode != "fashion":
        return np.zeros(m, dtype=np.float64)
    uniq, inv = np.unique(state.counts[:m], return_inverse=True)
    table = np.array([sigmoid(k / n, p.beta, p.sigmoid_center) for k in uniq.tolist()],
                     dtype=np.float64)
    return table[inv] * state.advertisement[:m]


def step(state: MarketState,
         table: Optional[kernel.ScoreTable] = None) -> np.ndarray:
    """Advance one synchronous round; returns the committed events.

    The result is an (events, 2) int64 array of (agent, item) rows in
    ascending agent order; the round they belong to is the new state.round.
    Choices come from the run's kernel.ScoreTable, and all of the round's
    consumptions are written by one MarketState.commit_round call. Without
    a table, step scores the state from scratch, so standalone calls need
    none; a table passed in must have followed every earlier round of this
    state (run() keeps one per run).
    """
    round_label = state.round + 1
    if state.m == 0:
        state.round = round_label
        return np.empty((0, 2), dtype=np.int64)
    if table is None:
        table = kernel.ScoreTable(state)
    elif table.state is not state:
        raise ValueError("table: built for another MarketState")
    else:
        table.sync()

    agents, items = table.choose(_round_penalties(state))
    rows, cols = state.commit_round(agents, items, round_label)
    table.refresh(rows, cols, agents, items)
    state.round = round_label
    return np.column_stack((agents, items))


def run(config: SimulationConfig) -> Trace:
    """Execute one full simulation and return its trace.

    In fashion mode a batch of items is introduced at the top of every
    round r with r > 0 and r % intro_period == 0 (so the first batch enters
    after intro_period completed rounds), before that round's decisions.
    """
    rng = np.random.default_rng(np.random.PCG64(config.seed))
    state = init_market(config, rng)
    table = kernel.ScoreTable(state)
    p = config.params
    R = config.rounds
    m_final = _final_item_count(config)

    counts_hist = np.zeros((R, m_final), dtype=np.int64)
    ev_agents = []
    ev_items = []
    for t in range(R):
        if (config.mode == "fashion" and state.round > 0
                and state.round % p.intro_period == 0):
            introduce_items(state, rng)
        events = step(state, table)
        counts_hist[t, :state.m] = state.counts[:state.m]
        ev_agents.append(events[:, 0])
        ev_items.append(events[:, 1])

    if state.m != m_final:
        raise AssertionError("introduction schedule drifted from plan")
    quality = state.liking[:, :m_final].mean(axis=0)
    shares = counts_hist / config.n_agents
    return Trace(
        config=config,
        n_agents=config.n_agents,
        rounds=np.arange(1, R + 1, dtype=np.int64),
        item_ids=np.arange(m_final, dtype=np.int64),
        advertisements=state.advertisement[:m_final].copy(),
        intro_rounds=state.intro_rounds[:m_final].copy(),
        quality=quality,
        shares=shares,
        counts=counts_hist,
        event_agents=tuple(ev_agents),
        event_items=tuple(ev_items),
    )


def _common_registry(registries) -> Tuple[np.ndarray, ...]:
    """First run's (rounds, item_ids, advertisements, intro_rounds); every
    later run must match it."""
    first = None
    for reg in registries:
        if first is None:
            first = reg
        elif not all(np.array_equal(a, b) for a, b in zip(reg, first)):
            raise AssertionError("item registry diverged between ensemble runs")
    return first


def run_ensemble(config: SimulationConfig, runs: int, jobs: int = 1) -> EnsembleResult:
    """Aggregate `runs` independent runs; run i is seeded by
    derive_seed(config.seed, i).

    jobs caps the worker threads; the default, 1, runs everything in the
    calling thread. Each run's shares go into one preallocated
    (runs, R, M) array as the run finishes and its trace is dropped, so
    memory stays O(runs * R * M) whatever the event count. Results are
    accumulated by run index, so the worker count never changes the output.
    """
    if runs < 1:
        raise ValueError("runs: need at least 1 (got %d)" % runs)
    if jobs < 1:
        raise ValueError("jobs: need at least 1 (got %d)" % jobs)
    m_final = _final_item_count(config)
    shares = np.empty((runs, config.rounds, m_final), dtype=np.float64)
    quality = np.empty((runs, m_final), dtype=np.float64)

    def one(run_idx: int) -> Tuple[np.ndarray, ...]:
        cfg = replace(config, seed=derive_seed(config.seed, run_idx))
        tr = run(cfg)
        shares[run_idx] = tr.shares
        quality[run_idx] = tr.quality
        return tr.rounds, tr.item_ids, tr.advertisements, tr.intro_rounds

    if jobs == 1 or runs == 1:
        registry = _common_registry(map(one, range(runs)))
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            registry = _common_registry(pool.map(one, range(runs)))
    rounds, item_ids, advertisements, intro_rounds = registry

    return EnsembleResult(
        config=config,
        runs=runs,
        rounds=rounds,
        item_ids=item_ids,
        advertisements=advertisements,
        intro_rounds=intro_rounds,
        mean_share=shares.mean(axis=0),
        std_share=shares.std(axis=0),
        per_run_final_share=shares[:, -1, :].copy(),
        per_run_integrated_share=shares.sum(axis=1),
        per_run_quality=quality,
    )
