"""Market model: parameters, state arrays, and the ranking formulas.

The functions at the bottom are the definitional, scalar forms of every
quantity the simulator uses (social pressure, opinion, marketing effect,
sigmoid penalty, utility, quality, market share). They recompute everything
from the raw consumption matrix, so they stay independent of the cached
per-round counters the engine maintains; tests lean on that independence.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .graph import SocialGraph

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
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma: must be in [0, 1] (got %r)" % (self.gamma,))
        if not 0.0 < self.beta < math.inf:
            raise ValueError("beta: must be > 0 and finite (got %r)" % (self.beta,))
        if not 0.0 <= self.sigmoid_center <= 1.0:
            raise ValueError(
                "sigmoid_center: must be in [0, 1] (got %r)" % (self.sigmoid_center,)
            )
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
        if self.new_item_liking not in NEW_ITEM_LIKINGS:
            raise ValueError(
                "new_item_liking: expected one of %s (got %r)"
                % (", ".join(NEW_ITEM_LIKINGS), self.new_item_liking)
            )
        if self.utility_social_blend not in BLENDS:
            raise ValueError(
                "utility_social_blend: expected one of %s (got %r)"
                % (", ".join(BLENDS), self.utility_social_blend)
            )
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
    per-agent array (liking, tolerance, consumed, consumed_round,
    nbr_counts, degrees), and ``graph`` is the disjoint union of the runs'
    graphs, so no edge joins two runs. ``counts`` and ``advertisement`` are
    (runs, capacity); ``intro_rounds``, ``m`` and ``round`` are shared.
    ``run_params[b]`` is run b's MarketParams: the runs differ at most in
    gamma, beta and tracked_intro_ad (see shared_params), and ``params`` is
    run 0's.

    Arrays are sized to a capacity that may exceed the live item count
    (column m and beyond are reserved for future introductions);
    ``m_initial`` remembers the catalog size so introduced items can be
    told apart. ``counts`` and ``nbr_counts`` are running caches (consumers
    per item; per-agent count of neighbours who consumed each item) that
    ``commit_round`` updates once per round.

    A MarketState is a batch of one run whose ``counts`` and
    ``advertisement`` have no run axis; the methods here index them as
    ``[..., :m]`` or flatten them, so they serve both.
    """

    __slots__ = (
        "params", "run_params", "runs", "run_size", "graph", "mode", "round",
        "m", "m_initial", "liking", "tolerance", "advertisement", "intro_rounds",
        "consumed", "consumed_round", "counts", "nbr_counts", "degrees", "_sigmoid",
    )

    @classmethod
    def stack(cls, states: Iterable["MarketState"], runs: int) -> "MarketBatch":
        """One batch of `runs` single-run states, run b the b-th state.

        The states must agree in size, capacity, mode, round, live items,
        introduction rounds and shared params. Each is copied in as it
        comes and left as it was, so a generator of states keeps only one
        of them alive at a time.
        """
        it = iter(states)
        s = next(it)

        def shape(s):
            return (s.liking.shape, s.mode, s.round, s.m, s.m_initial,
                    shared_params(s.params), s.intro_rounds.tobytes())

        key = shape(s)
        n = s.n_agents
        self = cls.__new__(cls)
        self.params = s.params
        self.runs, self.run_size = runs, n
        self.mode, self.round, self.m, self.m_initial = s.mode, s.round, s.m, s.m_initial
        self.intro_rounds = s.intro_rounds.copy()
        per_agent = ("liking", "tolerance", "consumed", "consumed_round", "nbr_counts",
                     "degrees")
        for name in per_agent:
            a = getattr(s, name)
            setattr(self, name, np.empty((runs * n,) + a.shape[1:], dtype=a.dtype))
        self.advertisement = np.empty((runs,) + s.advertisement.shape)
        self.counts = np.empty((runs,) + s.counts.shape, dtype=np.int64)
        run_params, offsets, targets, edges = [], [np.zeros(1, dtype=np.int64)], [], 0
        for b in range(runs):
            if b:
                s = next(it)
                if shape(s) != key:
                    raise ValueError("states: a batch needs markets of one shape")
            for name in per_agent:
                getattr(self, name)[b * n:(b + 1) * n] = getattr(s, name)
            self.advertisement[b] = s.advertisement
            self.counts[b] = s.counts
            run_params.append(s.params)
            offsets.append(s.graph.offsets[1:] + edges)
            targets.append(s.graph.targets + b * n)
            edges += len(s.graph.targets)
        self.run_params = tuple(run_params)
        self.graph = SocialGraph(runs * n, np.concatenate(offsets), np.concatenate(targets))
        self._sigmoid = None
        return self

    @property
    def n_agents(self) -> int:
        """Agent rows over all runs."""
        return self.graph.n

    @property
    def n_items(self) -> int:
        return self.m

    def commit_round(self, agents: np.ndarray, items: np.ndarray,
                     round_no: int) -> Tuple[np.ndarray, np.ndarray]:
        """Commit one round's consumptions together: agents[k] consumed items[k].

        Agents are rows over all runs and must be strictly ascending (one
        consumption per agent per round). Every cache update is an integer
        add or store, so the result equals applying each pair with
        ``MarketState.apply_consumption``, in any order. The whole batch is
        validated before anything is written.

        Returns (rows, cols): the ``nbr_counts`` cells it incremented, one
        entry per increment, so callers that cache scores can refresh just
        those cells.
        """
        agents = np.asarray(agents, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if agents.ndim != 1 or agents.shape != items.shape:
            raise ValueError("agents, items: expected two 1-d arrays of equal length")
        if len(agents) == 0:
            return agents, items
        if agents[0] < 0 or agents[-1] >= self.n_agents or np.any(agents[1:] <= agents[:-1]):
            raise ValueError("agents: expected strictly ascending ids in [0, %d)"
                             % self.n_agents)
        if items.min() < 0 or items.max() >= self.m:
            raise ValueError("items: ids must be in [0, %d)" % self.m)
        seen = self.consumed[agents, items] != 0
        if seen.any():
            k = int(np.argmax(seen))
            raise ValueError("agent %d already consumed item %d" % (agents[k], items[k]))

        self.consumed[agents, items] = 1
        self.consumed_round[agents, items] = round_no
        cap = self.consumed.shape[1]
        # counts flattened: run r's item a is r * cap + a (on a MarketState
        # every agent is in run 0, so the index is the item id).
        counts = self.counts.reshape(-1)
        counts += np.bincount(agents // self.run_size * cap + items, minlength=counts.size)
        # Neighbour rows of the consumers, gathered from the CSR arrays, and
        # each consumer's item repeated once per neighbour.
        offsets = self.graph.offsets
        starts = offsets[agents]
        lens = offsets[agents + 1] - starts
        ends = np.cumsum(lens)
        pos = np.arange(ends[-1]) + np.repeat(starts - (ends - lens), lens)
        targets = self.graph.targets[pos]
        cols = np.repeat(items, lens)
        # nbr_counts is allocated C-contiguous (stack, __init__ and _grow), so
        # the reshape is a view and the flat scatter lands in it.
        np.add.at(self.nbr_counts.reshape(-1), targets * cap + cols, 1)
        return targets, cols

    def penalties(self) -> np.ndarray:
        """Every live item's saturation penalty for the coming round, one
        row per run (no run axis on a MarketState): the ``penalty`` of the
        item's share counts / run_size, bit for bit; zero in cultural mode.

        The sigmoid comes from a table over counts 0..run_size, one row per
        distinct beta, whose entries the scalar ``sigmoid`` fills the first
        time a count needs them; so a large market never pays run_size + 1
        calls up front.
        """
        if self.mode != "fashion":
            return np.zeros(self.counts[..., :self.m].shape)
        if self._sigmoid is None:
            betas, row = np.unique([p.beta for p in self.run_params], return_inverse=True)
            row = row.reshape(self.counts.shape[:-1] + (1,))
            self._sigmoid = (betas.tolist(), row,
                             np.full((len(betas), self.run_size + 1), np.nan))
        betas, row, table = self._sigmoid
        counts = self.counts[..., :self.m]
        values = table[row, counts]
        missing = np.isnan(values)
        if missing.any():
            n, center = self.run_size, self.params.sigmoid_center
            rows = np.broadcast_to(row, counts.shape)[missing].tolist()
            for r, k in set(zip(rows, counts[missing].tolist())):
                table[r, k] = sigmoid(k / n, betas[r], center)
            values = table[row, counts]
        return values * self.advertisement[..., :self.m]

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
        if b and (likings.min() < 0.0 or likings.max() > 1.0):
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
                           ("consumed", 0), ("consumed_round", -1), ("counts", 0),
                           ("nbr_counts", 0)):
            old = getattr(self, name)
            new = np.full(old.shape[:-1] + (new_cap,), fill, dtype=old.dtype)
            new[..., :cap] = old
            setattr(self, name, new)


class MarketState(MarketBatch):
    """Mutable simulation state of one run: who likes, tolerates, and
    consumed what.

    A batch of one (see MarketBatch): ``counts``, ``advertisement`` and
    ``intro_rounds`` are per-item vectors, and the scalar accessors below
    read one agent or item. ``apply_consumption`` is the scalar one-event
    form of ``commit_round`` that tests replay as the reference; both keep
    the caches consistent with the ``consumed`` matrix.
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
        intro_rounds: Optional[np.ndarray] = None,
        capacity: Optional[int] = None,
    ):
        if mode not in MODES:
            raise ValueError("mode: expected one of %s (got %r)" % (", ".join(MODES), mode))
        liking = np.asarray(liking, dtype=np.float64)
        tolerance = np.asarray(tolerance, dtype=np.float64)
        advertisement = np.asarray(advertisement, dtype=np.float64)
        if liking.ndim != 2:
            raise ValueError("liking: expected a 2-d (agents x items) array")
        n, m = liking.shape
        if n != graph.n:
            raise ValueError(
                "liking: row count %d does not match graph size %d" % (n, graph.n)
            )
        if tolerance.shape != (n,):
            raise ValueError("tolerance: expected shape (%d,)" % n)
        if advertisement.shape != (m,):
            raise ValueError("advertisement: expected shape (%d,)" % m)
        if m and (liking.min() < 0.0 or liking.max() > 1.0):
            raise ValueError("liking: values must be in [0, 1]")
        if n and (tolerance.min() <= 0.0 or tolerance.max() > 1.0):
            raise ValueError("tolerance: values must be in (0, 1]")
        if m and (advertisement.min() < 0.0 or advertisement.max() > 1.0):
            raise ValueError("advertisement: values must be in [0, 1]")
        if intro_rounds is None:
            intro_rounds = np.zeros(m, dtype=np.int64)
        else:
            intro_rounds = np.asarray(intro_rounds, dtype=np.int64)
            if intro_rounds.shape != (m,):
                raise ValueError("intro_rounds: expected shape (%d,)" % m)
            if m and intro_rounds.min() < 0:
                raise ValueError("intro_rounds: must be >= 0")

        cap = max(m, capacity if capacity is not None else m)
        self.params = params
        self.run_params = (params,)
        self.runs = 1
        self.run_size = n
        self.graph = graph
        self.mode = mode
        self.round = 0
        self.m = m
        self.m_initial = m
        self.liking = np.zeros((n, cap), dtype=np.float64)
        self.liking[:, :m] = liking
        self.tolerance = np.ascontiguousarray(tolerance)
        self.advertisement = np.zeros(cap, dtype=np.float64)
        self.advertisement[:m] = advertisement
        self.intro_rounds = np.zeros(cap, dtype=np.int64)
        self.intro_rounds[:m] = intro_rounds
        self.consumed = np.zeros((n, cap), dtype=np.uint8)
        self.consumed_round = np.full((n, cap), -1, dtype=np.int64)
        self.counts = np.zeros(cap, dtype=np.int64)
        self.nbr_counts = np.zeros((n, cap), dtype=np.int64)
        self.degrees = np.ascontiguousarray(graph.degrees, dtype=np.int64)
        self._sigmoid = None

    def agent(self, agent_id: int) -> Agent:
        _check_agent(self, agent_id)
        i = int(agent_id)
        consumed = {
            int(a): int(self.consumed_round[i, a])
            for a in range(self.m)
            if self.consumed[i, a]
        }
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
        """Commit one consumption event and update the running caches."""
        _check_agent(self, agent_id)
        _check_item(self, item_id)
        i, a = int(agent_id), int(item_id)
        if self.consumed[i, a]:
            raise ValueError("agent %d already consumed item %d" % (i, a))
        self.consumed[i, a] = 1
        self.consumed_round[i, a] = round_no
        self.counts[a] += 1
        nbrs = self.graph.neighbor_array(i)
        self.nbr_counts[nbrs, a] += 1


def _check_advertisement(a: float, name: str = "advertisement") -> None:
    if not 0.0 <= a <= 1.0:
        raise ValueError("%s: must be in [0, 1] (got %r)" % (name, a))


def _check_tolerance(t: float) -> None:
    if not 0.0 < t <= 1.0:
        raise ValueError("tolerance: must be in (0, 1] (got %r)" % (t,))


def _check_agent(state: MarketState, agent_id: int) -> None:
    if not 0 <= int(agent_id) < state.n_agents:
        raise ValueError("agent id %r out of range [0, %d)" % (agent_id, state.n_agents))


def _check_item(state: MarketState, item_id: int) -> None:
    if not 0 <= int(item_id) < state.m:
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
    count = int(state.consumed[nbrs, int(item_id)].sum())
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

    beta controls steepness and must be positive; center is the midpoint
    where the curve crosses 1/2. Evaluated in the numerically stable
    branch-by-sign form, so extreme arguments saturate to 0 or 1 instead of
    overflowing.
    """
    if not beta > 0.0:
        raise ValueError("beta: must be > 0 (got %r)" % (beta,))
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
    count = int(state.consumed[:, int(item_id)].sum())
    return count / state.n_agents
