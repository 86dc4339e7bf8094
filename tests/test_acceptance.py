"""Acceptance suite. One test per shipping criterion, so `pytest -v` on
this file prints one pass/fail line for each.

Criteria 1-4 and 8 are exact (tolerance 1e-12 or byte identity) and run
in seconds. Criteria 5-7 are market-level experiments over 100-run
ensembles; they take a few minutes combined and assert their own wall
clock budgets (60 s, 300 s, 900 s).
"""

import json
import time
from dataclasses import replace

import numpy as np

import oracles
from fashsim.cli import main
from fashsim.engine import (
    SimulationConfig,
    init_market,
    run,
    run_ensemble,
    step,
)
from fashsim.graph import SocialGraph, TopologySpec, build_random, build_ring
from fashsim.metrics import (
    gini,
    peak_stats,
    quality_share_correlation,
    rate_series,
)
from fashsim.model import (
    MarketParams,
    MarketState,
    penalty,
    sigmoid,
    utility,
)
from fashsim.sweep import optimize_advertisement

TOL = 1e-12

# Shared setup for the experiment criteria (5-7): a 50-item market run for
# 30 rounds at high social weight, introducing one item every 6 rounds.
# The tracked item is the first introduction (id = m_initial, enters after
# round 6); only its advertisement is varied.
EXPERIMENT_GRID = tuple(round(v * 0.1, 10) for v in range(11))


def experiment_config(n, topology, beta, master):
    return SimulationConfig(
        n_agents=n, m_initial=50, rounds=30,
        topology=topology,
        params=MarketParams(gamma=0.95, beta=beta, intro_period=6,
                            intro_ads=(0.7,)),
        mode="fashion", seed=master,
    )


def tracked_peak_round(config, advertisement, runs=100):
    """Round where the tracked item's mean consumption rate peaks."""
    cfg = replace(config,
                  params=replace(config.params,
                                 tracked_intro_ad=advertisement))
    ens = run_ensemble(cfg, runs)
    rounds, rates = rate_series(ens, cfg.m_initial)
    return peak_stats(rates, rounds=rounds).peak_round


def optimum_shape(config, runs=100):
    """(result, non_monotone) for an advertisement grid search."""
    res = optimize_advertisement(config, EXPERIMENT_GRID, runs=runs)
    means = [pt.mean for pt in res.table]
    diffs = [b - a for a, b in zip(means, means[1:])]
    non_mono = any(d > 0 for d in diffs) and any(d < 0 for d in diffs)
    return res, non_mono


def format_table(res):
    return " | ".join(
        f"A={pt.advertisement:.1f}: {pt.mean:.4f}+-{pt.se:.4f}"
        for pt in res.table
    )


# ---------------------------------------------------------------------------
# criterion 1: randomized small configs all satisfy the trace invariants


def random_small_config(rng):
    n = int(rng.integers(2, 21))
    kind = ("ring", "random", "small_world")[int(rng.integers(3))]
    if n < 3:
        kind = "random"
    if kind == "random":
        topology = TopologySpec(kind="random", p=float(rng.random()))
    else:
        k = 2 * int(rng.integers(1, (n - 1) // 2 + 1))
        topology = TopologySpec(kind=kind, k=k, p=float(rng.random()))
    params = MarketParams(
        gamma=float(rng.random()),
        beta=float(rng.uniform(0.1, 20.0)),
        sigmoid_center=float(rng.random()),
        intro_period=int(rng.integers(1, 6)),
        intro_batch=int(rng.integers(1, 3)),
        intro_ads=tuple(float(v) for v in rng.random(int(rng.integers(1, 4)))),
        catalog_ads=float(rng.random()),
        new_item_liking=("zero", "uniform")[int(rng.integers(2))],
        utility_social_blend=("liking",
                              "literal_consumption")[int(rng.integers(2))],
        min_utility=None if rng.random() < 0.7
        else float(rng.uniform(0.0, 0.8)),
    )
    return SimulationConfig(
        n_agents=n,
        m_initial=int(rng.integers(1, 11)),
        rounds=int(rng.integers(1, 16)),
        topology=topology,
        params=params,
        mode=("cultural", "fashion")[int(rng.integers(2))],
        seed=int(rng.integers(2 ** 32)),
    )


def test_criterion_1_randomized_traces_satisfy_invariants():
    """1000 random configs (n<=20, m<=10, rounds<=15), every trace checked
    against the full invariant list, under 60 seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    for _ in range(1000):
        trace = run(random_small_config(rng))
        oracles.check_trace_invariants(trace)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"invariant sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: the hand-computed scenarios (docs/hand_traces.md)


def test_criterion_2_hand_traced_scenarios_match_exactly():
    """Both scenarios worked out by hand in docs/hand_traces.md reproduce
    event for event."""
    # scenario 1: two agents, gamma=0, each walks its own liking ranking
    state = MarketState(
        MarketParams(gamma=0.0),
        SocialGraph.from_adjacency({0: [1], 1: [0]}),
        "cultural",
        liking=np.array([[0.9, 0.1], [0.2, 0.8]]),
        tolerance=np.full(2, 0.5),
        advertisement=np.zeros(2),
    )
    first = step(state)
    assert first.tolist() == [[0, 0], [1, 1]]
    assert state.round == 1
    second = step(state)
    assert second.tolist() == [[0, 1], [1, 0]]
    assert state.round == 2
    assert state.counts.tolist() == [2, 2]

    # scenario 2: triangle, gamma=0.5, pressure flips agent 1 in round 2
    state = MarketState(
        MarketParams(gamma=0.5),
        build_ring(3, 2),
        "cultural",
        liking=np.array([
            [0.9, 0.6, 0.1],
            [0.8, 0.3, 0.5],
            [0.1, 0.7, 0.6],
        ]),
        tolerance=np.full(3, 0.5),
        advertisement=np.zeros(3),
    )
    first = step(state)
    second = step(state)
    assert first.tolist() == [[0, 0], [1, 0], [2, 1]]
    assert second.tolist() == [[0, 1], [1, 1], [2, 0]]
    assert state.counts.tolist() == [3, 3, 0]


# ---------------------------------------------------------------------------
# criterion 3: formulas vs 40-digit oracles, 1e-12, 100+ inputs each


def random_market_state(rng):
    n = int(rng.integers(2, 9))
    graph = build_random(n, float(rng.random()), rng)
    m = int(rng.integers(1, 7))
    params = MarketParams(
        gamma=float(rng.random()),
        beta=float(rng.uniform(0.2, 20.0)),
        sigmoid_center=float(rng.random()),
        utility_social_blend=("liking",
                              "literal_consumption")[int(rng.integers(2))],
    )
    state = MarketState(
        params, graph, "fashion",
        liking=rng.random((n, m)),
        tolerance=1.0 - rng.random(n),
        advertisement=rng.random(m),
    )
    for i in range(n):
        for a in range(m):
            if rng.random() < 0.4:
                state.apply_consumption(i, a, 1)
    return state


def test_criterion_3_formulas_match_high_precision_oracles():
    """sigmoid, penalty, utility, gini and the quality/share correlation
    each agree with an independent high-precision evaluation to 1e-12 on
    at least 100 random inputs."""
    rng = np.random.default_rng(333)

    for _ in range(120):
        x, center = float(rng.random()), float(rng.random())
        beta = float(rng.uniform(0.1, 30.0))
        want = float(oracles.mp_sigmoid(x, beta, center))
        assert abs(sigmoid(x, beta, center) - want) <= TOL

    for _ in range(120):
        share, adv = float(rng.random()), float(rng.random())
        beta = float(rng.uniform(0.1, 30.0))
        center = float(rng.random())
        want = float(oracles.mp_penalty(share, adv, beta, center))
        assert abs(penalty(share, adv, beta, center) - want) <= TOL

    for _ in range(120):
        state = random_market_state(rng)
        i = int(rng.integers(state.n_agents))
        a = int(rng.integers(state.m))
        want = float(oracles.mp_utility_state(state, i, a))
        assert abs(utility(state, i, a) - want) <= TOL

    checked = 0
    while checked < 120:
        values = rng.uniform(0.0, 5.0, size=int(rng.integers(2, 40)))
        if float(values.sum()) == 0.0:
            continue
        assert abs(gini(values) - oracles.pairwise_gini(values.tolist())) <= TOL
        checked += 1

    checked = 0
    while checked < 120:
        m = int(rng.integers(2, 40))
        q, c = rng.random(m), rng.random(m)
        if np.var(q) == 0.0 or np.var(c) == 0.0:
            continue
        want = oracles.plain_pearson(q.tolist(), c.tolist())
        assert abs(quality_share_correlation(q, c) - want) <= TOL
        checked += 1


# ---------------------------------------------------------------------------
# criterion 4: gamma=0 cultural runs consume in descending-liking order


def test_criterion_4_gamma_zero_follows_descending_liking():
    """With the social term off, every agent's consumption sequence is
    exactly its likings sorted descending. Exact check across seeds and
    market sizes."""
    rng = np.random.default_rng(44)
    for seed in range(40):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(2, 9))
        cfg = SimulationConfig(
            n_agents=n, m_initial=m, rounds=m,
            topology=TopologySpec(kind="random", p=0.5),
            params=MarketParams(gamma=0.0),
            mode="cultural", seed=seed,
        )
        trace = run(cfg)
        likings = init_market(cfg).liking
        order = {i: [] for i in range(n)}
        for agents, items in zip(trace.event_agents, trace.event_items):
            for i, a in zip(agents.tolist(), items.tolist()):
                order[i].append(a)
        for i in range(n):
            want = sorted(range(m), key=lambda a: -likings[i, a])
            assert order[i] == want, f"seed {seed}, agent {i}"


# ---------------------------------------------------------------------------
# criterion 5: aggressive advertising peaks earlier


def test_criterion_5_aggressive_advertising_peaks_earlier():
    """n=100, m=50, gamma=0.95, 30 rounds, 100-run ensembles: with
    beta in {5, 10} x 5 master seeds, the A=1.0 tracked item's consumption
    rate must peak strictly earlier than the A=0.3 one in at least 80% of
    the 10 settings. Budget 5 minutes."""
    t0 = time.perf_counter()
    ring = TopologySpec(kind="ring", k=4)
    outcomes = []
    for beta in (5.0, 10.0):
        for master in (101, 202, 303, 404, 505):
            cfg = experiment_config(100, ring, beta, master)
            hi = tracked_peak_round(cfg, 1.0)
            lo = tracked_peak_round(cfg, 0.3)
            outcomes.append((beta, master, hi, lo))
    wins = sum(hi < lo for _, _, hi, lo in outcomes)
    elapsed = time.perf_counter() - t0
    assert wins >= 8, f"earlier-peak in {wins}/10 settings: {outcomes}"
    assert elapsed < 300.0, f"trend experiment took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 6: grid search lands on an interior optimum


def test_criterion_6_optimizer_finds_interior_optimum():
    """Optimizing the tracked item's final share over A in {0, 0.1, .., 1}
    yields 0 < A* < 1 and a non-monotone objective table, with ensemble
    standard errors attached, at both beta=5 and beta=10."""
    ring = TopologySpec(kind="ring", k=4)
    for beta in (5.0, 10.0):
        cfg = experiment_config(100, ring, beta, 42)
        res, non_mono = optimum_shape(cfg)
        print(f"beta={beta}: A*={res.a_star}  {format_table(res)}")
        assert 0.0 < res.a_star < 1.0, f"beta={beta}: A*={res.a_star}"
        assert non_mono, f"beta={beta}: monotone table {format_table(res)}"
        assert len(res.table) == len(EXPERIMENT_GRID)
        assert [pt.advertisement for pt in res.table] == list(EXPERIMENT_GRID)
        assert all(pt.se >= 0.0 for pt in res.table)
        assert any(pt.se > 0.0 for pt in res.table)


# ---------------------------------------------------------------------------
# criterion 7: both findings survive size and topology changes


def test_criterion_7_trends_hold_across_size_and_topology():
    """Criteria 5 and 6 outcomes keep their direction at n=500 (ring) and
    on a random graph of matching mean degree (n=100, p=4/99). Budget 15
    minutes for the whole set."""
    t0 = time.perf_counter()
    echoes = (
        ("n500-ring", 500, TopologySpec(kind="ring", k=4)),
        ("n100-random", 100, TopologySpec(kind="random", p=4 / 99)),
    )
    for label, n, topology in echoes:
        outcomes = []
        for master in (11, 22, 33):
            cfg = experiment_config(n, topology, 10.0, master)
            hi = tracked_peak_round(cfg, 1.0)
            lo = tracked_peak_round(cfg, 0.3)
            outcomes.append((master, hi, lo))
        wins = sum(hi < lo for _, hi, lo in outcomes)
        assert wins >= 2, f"{label}: earlier-peak in {wins}/3: {outcomes}"

        res, non_mono = optimum_shape(
            experiment_config(n, topology, 10.0, 42))
        print(f"{label}: A*={res.a_star}  {format_table(res)}")
        assert 0.0 < res.a_star < 1.0, f"{label}: A*={res.a_star}"
        assert non_mono, f"{label}: monotone table {format_table(res)}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0, f"robustness experiments took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 8: byte-identical outputs


CRITERION_8_CFG = """\
agents = 40
items = 10
rounds = 12
mode = fashion
topology = ring
k = 4
intro_period = 3
intro_ads = 0.8,0.4
runs = 16
seed = 99
"""


def test_criterion_8_outputs_are_byte_identical(tmp_path):
    """The same invocation writes byte-identical trace.csv twice, and an
    ensemble's outputs do not depend on the thread count."""
    cfg = tmp_path / "market.cfg"
    cfg.write_text(CRITERION_8_CFG, encoding="utf-8")

    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(dir_a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(dir_b)]) == 0
    assert (dir_a / "trace.csv").read_bytes() == (dir_b / "trace.csv").read_bytes()

    jobs1, jobs8 = tmp_path / "j1", tmp_path / "j8"
    assert main(["ensemble", "--config", str(cfg),
                 "--jobs", "1", "--out", str(jobs1)]) == 0
    assert main(["ensemble", "--config", str(cfg),
                 "--jobs", "8", "--out", str(jobs8)]) == 0
    assert (jobs1 / "trace.csv").read_bytes() == (jobs8 / "trace.csv").read_bytes()
    assert (json.loads((jobs1 / "summary.json").read_text())
            == json.loads((jobs8 / "summary.json").read_text()))
