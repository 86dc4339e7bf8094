"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the code paths under test: formulas go
through mpmath, the simulator below walks agents with the scalar model
functions instead of the engine's array kernel, Gini uses the raw pairwise
sum, Pearson uses plain Python accumulation, and clustering is a direct
neighbor-pair count.
"""

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 40


def mp_sigmoid(x, beta, center):
    return 1 / (1 + mp.e ** (-mp.mpf(beta) * (mp.mpf(x) - mp.mpf(center))))


def mp_penalty(share, advertisement, beta, center):
    return mp_sigmoid(share, beta, center) * mp.mpf(advertisement)


def mp_utility(gamma, s, blend, m_eff, pen):
    gamma = mp.mpf(gamma)
    return gamma * mp.mpf(s) + (1 - gamma) * mp.mpf(blend) + mp.mpf(m_eff) - mp.mpf(pen)


def mp_social_pressure(state, i, a):
    nbrs = state.graph.neighbor_array(i)
    if len(nbrs) == 0:
        return mp.mpf(0)
    return mp.mpf(int(np.count_nonzero(state.consumed[nbrs, a]))) / len(nbrs)


def mp_opinion_state(state, i, a):
    g = mp.mpf(state.params.gamma)
    s = mp_social_pressure(state, i, a)
    return g * s + (1 - g) * mp.mpf(state.liking[i, a])


def mp_utility_state(state, i, a):
    """Utility recomposed in mpmath from the raw state arrays."""
    p = state.params
    g = mp.mpf(p.gamma)
    s = mp_social_pressure(state, i, a)
    if p.utility_social_blend == "liking":
        blend = mp.mpf(state.liking[i, a])
    else:
        blend = mp.mpf(1 if state.consumed[i, a] else 0)
    m_eff = mp.mpf(state.advertisement[a]) * mp.mpf(state.tolerance[i])
    share = mp.mpf(int(np.count_nonzero(state.consumed[:, a]))) / state.n_agents
    pen = mp_sigmoid(share, p.beta, p.sigmoid_center) * mp.mpf(state.advertisement[a])
    return g * s + (1 - g) * blend + m_eff - pen


def pairwise_gini(values):
    """Gini straight from the definition: sum_ij |xi - xj| / (2 m sum x)."""
    x = [float(v) for v in values]
    m = len(x)
    total = sum(x)
    acc = 0.0
    for a in x:
        for b in x:
            acc += abs(a - b)
    return acc / (2.0 * m * total)


def plain_pearson(xs, ys):
    """Pearson correlation with explicit sums (no numpy)."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def local_clustering(graph, i):
    """Fraction of a vertex's neighbor pairs that are themselves linked."""
    nbrs = sorted(graph.neighbors(i))
    k = len(nbrs)
    if k < 2:
        return 0.0
    links = 0
    for a in range(k):
        for b in range(a + 1, k):
            if graph.has_edge(nbrs[a], nbrs[b]):
                links += 1
    return 2.0 * links / (k * (k - 1))


def mean_clustering(graph):
    return sum(local_clustering(graph, i) for i in range(graph.n)) / graph.n


def random_graph_by_rows(n, p, rng):
    """build_random as one rng.random call and one Python set update per
    row: the reference for the blocked, vectorized builder."""
    from fashsim.graph import SocialGraph

    sets = {i: set() for i in range(n)}
    for i in range(n - 1):
        hits = np.flatnonzero(rng.random(n - 1 - i) < p)
        for off in hits:
            j = i + 1 + int(off)
            sets[i].add(j)
            sets[j].add(i)
    return SocialGraph.from_adjacency(sets)


def ring_sets(n, k):
    """Ring lattice as one Python neighbor set per vertex."""
    half = k // 2
    return {
        i: {(i + d) % n for d in range(1, half + 1)}
        | {(i - d) % n for d in range(1, half + 1)}
        for i in range(n)
    }


def small_world_by_sets(n, k, p, rng):
    """build_small_world rewiring one Python neighbor set per vertex: the
    reference for the edge-key builder, draw for draw."""
    from fashsim.graph import SocialGraph

    sets = ring_sets(n, k)
    for j in range(1, k // 2 + 1):
        for i in range(n):
            if rng.random() >= p:
                continue
            old = (i + j) % n
            if len(sets[i]) >= n - 1:
                continue
            while True:
                t = int(rng.integers(0, n))
                if t != i and t not in sets[i]:
                    break
            sets[i].remove(old)
            sets[old].remove(i)
            sets[i].add(t)
            sets[t].add(i)
    return SocialGraph.from_adjacency(sets)


def check_trace_invariants(trace):
    """Assert every structural invariant a finished trace must satisfy."""
    R, M = trace.shares.shape
    n = trace.n_agents
    assert list(trace.rounds) == list(range(1, R + 1))
    assert list(trace.item_ids) == list(range(M))
    assert trace.counts.shape == (R, M)
    assert np.all(trace.counts >= 0) and np.all(trace.counts <= n)
    assert np.all(np.diff(trace.counts, axis=0) >= 0), "counts must not shrink"
    assert np.array_equal(trace.shares, trace.counts / n)
    assert np.all(trace.shares >= 0.0) and np.all(trace.shares <= 1.0)
    assert np.all(trace.quality >= 0.0) and np.all(trace.quality <= 1.0)
    assert np.all(trace.advertisements >= 0.0) and np.all(trace.advertisements <= 1.0)

    seen_pairs = set()
    running = np.zeros(M, dtype=np.int64)
    for r, (agents, items) in enumerate(zip(trace.event_agents, trace.event_items)):
        label = r + 1
        assert len(agents) == len(items)
        assert len(set(agents.tolist())) == len(agents), "one choice per agent per round"
        for i, a in zip(agents.tolist(), items.tolist()):
            assert 0 <= i < n and 0 <= a < M
            assert (i, a) not in seen_pairs, "an item is consumable once per agent"
            seen_pairs.add((i, a))
            assert trace.intro_rounds[a] < label, "consumed before introduction"
            running[a] += 1
        assert np.array_equal(running, trace.counts[r]), "counts must equal event tallies"


def brute_force_round(state):
    """One synchronous round decided purely with the scalar model functions.

    Returns the (agent, item) choices the engine should commit this round,
    without touching the engine's kernel, caches, or argmax code.
    """
    from fashsim.model import opinion, utility

    p = state.params
    choices = []
    for i in range(state.n_agents):
        best_item = None
        best_score = None
        for a in range(state.m):
            if state.consumed[i, a]:
                continue
            if state.mode == "cultural":
                score = opinion(state, i, a)
            else:
                score = utility(state, i, a)
            if best_score is None or score > best_score:
                best_score = score
                best_item = a
        if best_item is not None and p.min_utility is not None:
            if best_score < p.min_utility:
                best_item = None
        if best_item is not None:
            choices.append((i, best_item))
    return choices


def commit_by_hand(state, agent, item, label):
    """Record one consumption in a MarketState's consumed, counts and
    neighbour counts by hand, without commit_round; the score cache is
    left as it was."""
    state.consumed[agent, item] = label
    state.counts[item] += 1
    state.nbr_counts[state.graph.neighbor_array(agent), item] += 1


def brute_force_trace(config):
    """Full-run event log computed independently of engine.run/step.

    Shares the engine's init (the randomness contract) but re-decides every
    round from the definitional formulas, applying consumptions by hand.
    """
    from fashsim.engine import init_market, introduce_items

    rng = np.random.default_rng(np.random.PCG64(config.seed))
    state = init_market(config, rng)
    per_round = []
    for _ in range(config.rounds):
        if (config.mode == "fashion" and state.round > 0
                and state.round % config.params.intro_period == 0):
            introduce_items(state, rng)
        choices = brute_force_round(state)
        label = state.round + 1
        for i, a in choices:
            commit_by_hand(state, i, a, label)
        state.round = label
        per_round.append(choices)
    return per_round, state
