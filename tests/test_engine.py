"""Engine tests: seed derivation, documented hand-traced scenarios, the
brute-force cross-check, introduction scheduling, and ensemble mechanics."""

import copy
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fashsim import engine, kernel
from fashsim.engine import (
    DEFAULT_SEED,
    SimulationConfig,
    derive_seed,
    init_market,
    introduce_items,
    run,
    run_ensemble,
    step,
)
from fashsim.graph import SocialGraph, TopologySpec, build_ring
from fashsim.model import MarketBatch, MarketParams, MarketState, sigmoid
from fashsim.sweep import SweepSpec, _apply, sweep


def rng_from(seed):
    return np.random.default_rng(np.random.PCG64(seed))


def splitmix64_reference(master, index):
    """Textbook splitmix64: state advanced (index+1) times, then finalized."""
    mask = (1 << 64) - 1
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def small_config(**kw):
    base = dict(
        n_agents=6, m_initial=4, rounds=5,
        topology=TopologySpec(kind="ring", k=2),
        params=MarketParams(intro_period=2, intro_ads=(0.7, 0.3)),
        mode="fashion", seed=7,
    )
    base.update(kw)
    return SimulationConfig(**base)


class TestSeedDerivation:
    def test_canonical_test_vector(self):
        # First output of splitmix64 seeded with 0 is 0xE220A8397B1DCDAF.
        assert derive_seed(0, 0) == 0xE220A8397B1DCDAF

    def test_frozen_values(self):
        assert derive_seed(42, 0) == 13679457532755275413
        assert derive_seed(42, 1) == 2949826092126892291
        assert derive_seed(2**64 - 1, 7) == 4638043754431676516

    def test_matches_reference_implementation(self):
        rng = rng_from(1)
        for _ in range(200):
            master = int(rng.integers(0, 2**63))
            index = int(rng.integers(0, 10_000))
            assert derive_seed(master, index) == splitmix64_reference(master, index)

    def test_stays_in_64_bits_and_spreads(self):
        seeds = [derive_seed(DEFAULT_SEED, i) for i in range(2000)]
        assert all(0 <= s < 2**64 for s in seeds)
        assert len(set(seeds)) == 2000

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            derive_seed(42, -1)


class TestConfigValidation:
    def test_defaults(self):
        cfg = SimulationConfig()
        assert (cfg.n_agents, cfg.m_initial, cfg.rounds) == (100, 50, 30)
        assert cfg.mode == "fashion" and cfg.seed == DEFAULT_SEED

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_agents=1)
        with pytest.raises(ValueError):
            SimulationConfig(m_initial=0)
        with pytest.raises(ValueError):
            SimulationConfig(rounds=0)
        with pytest.raises(ValueError):
            SimulationConfig(mode="hybrid")
        with pytest.raises(ValueError):
            SimulationConfig(seed=-1)
        with pytest.raises(ValueError):
            SimulationConfig(seed=2**64)
        with pytest.raises(ValueError):
            SimulationConfig(n_agents=4, topology=TopologySpec(kind="ring", k=4))


class TestInitMarket:
    def test_draw_order_is_graph_likings_tolerances(self):
        cfg = small_config()
        state = init_market(cfg)
        rng = rng_from(cfg.seed)
        graph = cfg.topology.build(cfg.n_agents, rng)
        liking = rng.random((cfg.n_agents, cfg.m_initial))
        tolerance = 1.0 - rng.random(cfg.n_agents)
        assert state.graph == graph
        assert np.array_equal(state.liking[:, : state.m], liking)
        assert np.array_equal(state.tolerance, tolerance)

    def test_value_ranges_and_catalog_setup(self):
        cfg = small_config(params=MarketParams(catalog_ads=0.25))
        state = init_market(cfg)
        assert np.all(state.tolerance > 0.0) and np.all(state.tolerance <= 1.0)
        assert np.all(state.liking[:, : state.m] >= 0.0)
        assert np.all(state.liking[:, : state.m] < 1.0)
        assert np.all(state.advertisement[: state.m] == 0.25)
        assert np.all(state.intro_rounds[: state.m] == 0)
        assert state.round == 0 and state.m == cfg.m_initial

    def test_capacity_covers_the_whole_schedule(self):
        cfg = small_config(rounds=9, params=MarketParams(intro_period=2, intro_batch=3))
        state = init_market(cfg)
        assert state.liking.shape[1] == cfg.m_initial + 3 * 4  # intros at 2,4,6,8


def two_agent_market(gamma=0.0):
    """The documented 2-agent/2-item scenario (full arithmetic in docs/)."""
    graph = SocialGraph.from_adjacency({0: [1], 1: [0]})
    return MarketState(
        MarketParams(gamma=gamma), graph, "cultural",
        liking=np.array([[0.9, 0.1], [0.2, 0.8]]),
        tolerance=np.full(2, 0.5),
        advertisement=np.zeros(2),
    )


def triangle_market():
    """The documented 3-agent/3-item gamma=0.5 scenario (see docs/)."""
    graph = build_ring(3, 2)
    return MarketState(
        MarketParams(gamma=0.5), graph, "cultural",
        liking=np.array([
            [0.9, 0.6, 0.1],
            [0.8, 0.3, 0.5],
            [0.1, 0.7, 0.6],
        ]),
        tolerance=np.full(3, 0.5),
        advertisement=np.zeros(3),
    )


class TestHandTracedScenarios:
    def test_two_agents_follow_their_likings(self):
        state = two_agent_market()
        first = step(state)
        assert first.tolist() == [[0, 0], [1, 1]]
        assert state.round == 1
        second = step(state)
        assert second.tolist() == [[0, 1], [1, 0]]
        assert state.round == 2
        assert state.counts[0] == state.counts[1] == 2  # all shares 1.0

    def test_triangle_social_pressure_flips_agent1(self):
        state = triangle_market()
        first = step(state)
        assert first.tolist() == [[0, 0], [1, 0], [2, 1]]
        second = step(state)
        # agent 1 likes item 2 better (0.5 vs 0.3) but both rankings pick
        # item 1 once pressure enters: O(1,1)=0.40 beats O(1,2)=0.25.
        assert second.tolist() == [[0, 1], [1, 1], [2, 0]]
        assert state.counts[:3].tolist() == [3, 3, 0]

    def test_triangle_arithmetic_matches_the_write_up(self):
        from fashsim.model import opinion

        state = triangle_market()
        step(state)
        # Round 2 scores as documented: agent 0: 0.55 vs 0.05; agent 1:
        # 0.40 vs 0.25; agent 2: 0.55 vs 0.30.
        assert opinion(state, 0, 1) == pytest.approx(0.55, abs=1e-12)
        assert opinion(state, 0, 2) == pytest.approx(0.05, abs=1e-12)
        assert opinion(state, 1, 1) == pytest.approx(0.40, abs=1e-12)
        assert opinion(state, 1, 2) == pytest.approx(0.25, abs=1e-12)
        assert opinion(state, 2, 0) == pytest.approx(0.55, abs=1e-12)
        assert opinion(state, 2, 2) == pytest.approx(0.30, abs=1e-12)


class TestStep:
    def test_ties_break_to_the_lowest_item_id(self):
        graph = SocialGraph.from_adjacency({0: [1], 1: [0]})
        state = MarketState(
            MarketParams(gamma=0.0), graph, "cultural",
            liking=np.array([[0.4, 0.4, 0.4], [0.4, 0.9, 0.4]]),
            tolerance=np.full(2, 0.5),
            advertisement=np.zeros(3),
        )
        events = step(state)
        assert events.tolist() == [[0, 0], [1, 1]]
        events = step(state)
        assert events.tolist() == [[0, 1], [1, 0]]

    def test_synchronous_commit_uses_round_start_state(self):
        # Both agents rank with zero pressure in round 1 even though their
        # choices would raise each other's pressure if applied eagerly.
        state = two_agent_market(gamma=0.99)
        events = step(state)
        assert events.tolist() == [[0, 0], [1, 1]]

    def test_agents_abstain_when_everything_is_consumed(self):
        state = two_agent_market()
        step(state)
        step(state)
        third = step(state)
        assert len(third) == 0
        assert state.round == 3

    def test_min_utility_floor_blocks_low_scores(self):
        params = MarketParams(gamma=0.0, min_utility=0.5)
        graph = SocialGraph.from_adjacency({0: [1], 1: [0]})
        state = MarketState(
            params, graph, "cultural",
            liking=np.array([[0.9, 0.2], [0.3, 0.1]]),
            tolerance=np.full(2, 0.5),
            advertisement=np.zeros(2),
        )
        events = step(state)
        # agent 0's best (0.9) clears the floor; agent 1's best (0.3) does not
        assert events.tolist() == [[0, 0]]
        assert len(step(state)) == 0  # 0.2 stays below the floor forever

    def test_round_counter_advances_even_with_no_events(self):
        state = two_agent_market()
        for want in (1, 2, 3, 4):
            step(state)
            assert state.round == want


def assert_same_commits(got, want):
    assert np.array_equal(got.consumed, want.consumed)
    assert np.array_equal(got.consumed_round, want.consumed_round)
    assert np.array_equal(got.counts, want.counts)
    assert np.array_equal(got.nbr_counts, want.nbr_counts)


class TestCommitRound:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n=st.integers(7, 300),
        kind=st.sampled_from(["ring", "random", "small_world"]),
        k=st.sampled_from([2, 4, 6]),
        p=st.floats(0.0, 0.2),
        mode=st.sampled_from(["cultural", "fashion"]),
    )
    def test_matches_the_scalar_replay(self, seed, n, kind, k, p, mode):
        """step's events, committed with commit_round, equal the same events
        applied one by one with apply_consumption on a copy."""
        cfg = SimulationConfig(
            n_agents=n, m_initial=6, rounds=8,
            topology=TopologySpec(kind=kind, k=k, p=p),
            params=MarketParams(intro_period=2, new_item_liking="uniform",
                                min_utility=0.3),
            mode=mode, seed=seed,
        )
        rng = rng_from(seed)
        state = init_market(cfg, rng)
        replay, replay_rng = copy.deepcopy(state), copy.deepcopy(rng)

        for _ in range(cfg.rounds):
            if mode == "fashion" and state.round > 0 and state.round % 2 == 0:
                introduce_items(state, rng)
                introduce_items(replay, replay_rng)
            events = step(state)
            label = replay.round + 1
            for i, a in events.tolist():
                replay.apply_consumption(i, a, label)
            replay.round = label
            assert state.round == label
            assert_same_commits(state, replay)

    def test_direct_commit_matches_the_scalar_replay(self):
        state = init_market(small_config(n_agents=9, mode="cultural"))
        replay = copy.deepcopy(state)
        agents, items = np.array([0, 3, 4, 8]), np.array([2, 0, 2, 1])
        state.commit_round(agents, items, 1)
        for i, a in zip(agents.tolist(), items.tolist()):
            replay.apply_consumption(i, a, 1)
        assert_same_commits(state, replay)
        state.commit_round(np.empty(0, np.int64), np.empty(0, np.int64), 2)
        assert_same_commits(state, replay)

    def test_rejects_a_pair_already_consumed(self):
        state = init_market(small_config(mode="cultural"))
        state.commit_round(np.array([1, 2]), np.array([0, 3]), 1)
        before = copy.deepcopy(state)
        with pytest.raises(ValueError, match="agent 2 already consumed item 3"):
            state.commit_round(np.array([0, 2, 5]), np.array([1, 3, 1]), 2)
        assert_same_commits(state, before)  # nothing of the batch was written

    def test_rejects_malformed_batches(self):
        state = init_market(small_config())
        bad = [
            ([1, 1], [0, 1]),     # agent twice in one round
            ([2, 1], [0, 1]),     # not ascending
            ([-1], [0]),          # agent out of range
            ([6], [0]),
            ([0], [-1]),          # item out of range
            ([0], [state.m]),     # reserved column, not live yet
            ([0, 1], [0]),        # length mismatch
        ]
        for agents, items in bad:
            with pytest.raises(ValueError):
                state.commit_round(np.array(agents), np.array(items), 1)
        assert not state.consumed.any()


def reference_choices(state):
    """Every agent's choice for the coming round from kernel.decide_round,
    the full recompute (-1 = abstain)."""
    p = state.params
    fashion = state.mode == "fashion"
    ads = state.advertisement if fashion else np.zeros_like(state.advertisement)
    has_min = p.min_utility is not None
    out = np.empty(state.n_agents, dtype=np.int64)
    kernel.decide_round(
        state.liking, state.tolerance, ads, state.penalties(),
        state.nbr_counts, state.degrees, state.consumed,
        p.gamma, not fashion or p.utility_social_blend == "liking", state.m,
        float(p.min_utility) if has_min else 0.0, has_min, out,
    )
    return out


def step_against_the_reference(state, table):
    """step(state, table) once; assert its events are decide_round's
    choices and the table equals one built afresh from the new state."""
    want = reference_choices(state)
    events = step(state, table)
    agents = np.flatnonzero(want >= 0)
    assert events.tolist() == np.column_stack((agents, want[agents])).tolist()
    fresh = kernel.ScoreTable(state)
    m = state.m
    assert table.m == m
    assert np.array_equal(table.scores[:, :m].view(np.int64),
                          fresh.scores[:, :m].view(np.int64))
    return events


class TestScoreTable:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n=st.integers(3, 60),
        m=st.integers(1, 6),
        kind=st.sampled_from(["ring", "random", "small_world"]),
        p=st.sampled_from([0.0, 0.03, 0.1, 0.4]),
        mode=st.sampled_from(["cultural", "fashion"]),
        gamma=st.sampled_from([0.0, 0.5, 0.95, 1.0]),
        blend=st.sampled_from(["liking", "literal_consumption"]),
        liking=st.sampled_from(["zero", "uniform"]),
        floor=st.sampled_from([None, -0.2, 0.0, 0.45]),
        catalog_ads=st.sampled_from([0.0, 0.3]),
    )
    def test_matches_decide_round_every_round(self, seed, n, m, kind, p, mode,
                                               gamma, blend, liking, floor,
                                               catalog_ads):
        """Random graphs with small p leave isolated agents, few items and
        ten rounds leave agents with nothing to consume, and gamma = 1 or
        zero ads and likings tie scores."""
        k = 2 if n < 5 else 4
        cfg = SimulationConfig(
            n_agents=n, m_initial=m, rounds=10,
            topology=TopologySpec(kind=kind, k=k, p=p),
            params=MarketParams(
                gamma=gamma, beta=8.0, intro_period=2, intro_ads=(0.0, 0.9),
                catalog_ads=catalog_ads, new_item_liking=liking,
                utility_social_blend=blend, min_utility=floor,
            ),
            mode=mode, seed=seed,
        )
        rng = rng_from(seed)
        state = init_market(cfg, rng)
        table = kernel.ScoreTable(state)
        for _ in range(cfg.rounds):
            if mode == "fashion" and state.round > 0 and state.round % 2 == 0:
                introduce_items(state, rng)
            step_against_the_reference(state, table)

    def test_follows_the_state_when_capacity_grows(self):
        """A state built without reserved capacity grows on every
        introduction; the table passed to step must start over each time."""
        rng = rng_from(41)
        n, m = 30, 3
        params = MarketParams(gamma=0.7, intro_batch=2, intro_ads=(0.9, 0.4),
                              catalog_ads=0.2, new_item_liking="uniform")
        state = MarketState(
            params, TopologySpec(kind="random", p=0.1).build(n, rng), "fashion",
            liking=rng.random((n, m)), tolerance=1.0 - rng.random(n),
            advertisement=np.full(m, 0.2),
        )
        table = kernel.ScoreTable(state)
        caps = {state.liking.shape[1]}
        for r in range(12):
            if r % 2 == 1:
                introduce_items(state, rng)
                caps.add(state.liking.shape[1])
            step_against_the_reference(state, table)
        assert len(caps) >= 3
        assert table.scores.shape == state.liking.shape

    def test_rejects_a_table_of_another_state(self):
        a = init_market(small_config(seed=1))
        b = init_market(small_config(seed=2))
        with pytest.raises(ValueError, match="another MarketState"):
            step(b, kernel.ScoreTable(a))


def penalties_per_item(state):
    """Per-item scalar sigmoid loop: the bit-level reference for
    state.penalties()."""
    p = state.params
    pen = np.zeros(state.m, dtype=np.float64)
    if state.mode == "fashion":
        for a in range(state.m):
            share = state.counts[a] / state.n_agents
            pen[a] = sigmoid(share, p.beta, p.sigmoid_center) * state.advertisement[a]
    return pen


class TestRoundPenalties:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n=st.integers(3, 60),
        m=st.integers(0, 40),
        beta=st.sampled_from([0.1, 1.0, 7.3, 50.0, 800.0]),
        center=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    )
    def test_matches_the_per_item_loop_bit_for_bit(self, seed, n, m, beta, center):
        cfg = small_config(
            n_agents=n, m_initial=max(m, 1), seed=seed,
            params=MarketParams(beta=beta, sigmoid_center=center),
        )
        state = init_market(cfg)
        state.m = m
        draw = rng_from(seed)
        # Repeated counts, with 0 and n (everyone consumed) always likely.
        pool = np.array([0, n, int(draw.integers(0, n + 1)), int(draw.integers(0, n + 1))])
        state.counts[:m] = draw.choice(pool, size=m)
        ads = draw.random(m)
        ads[draw.random(m) < 0.3] = 0.0
        state.advertisement[:m] = ads
        got = state.penalties()
        want = penalties_per_item(state)
        assert got.dtype == np.float64 and got.shape == (m,)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_cultural_mode_has_no_penalty(self):
        state = init_market(small_config(mode="cultural"))
        state.counts[:state.m] = [0, 6, 3, 6]
        state.advertisement[:state.m] = [0.0, 1.0, 0.5, 0.2]
        got = state.penalties()
        assert got.dtype == np.float64
        assert np.array_equal(got, np.zeros(state.m))


class TestIntroductions:
    def test_requires_fashion_mode(self):
        state = two_agent_market()
        with pytest.raises(ValueError):
            introduce_items(state)

    def test_schedule_and_advertisement_cycle(self):
        cfg = small_config(rounds=7)  # intros when 2, 4 and 6 rounds are done
        trace = run(cfg)
        assert trace.n_items == 7
        assert trace.intro_rounds.tolist() == [0, 0, 0, 0, 2, 4, 6]
        assert trace.advertisements[4:].tolist() == [0.7, 0.3, 0.7]
        assert trace.quality[4:].tolist() == [0.0, 0.0, 0.0]  # unliked at entry

    def test_tracked_override_hits_only_the_first_introduction(self):
        cfg = small_config(
            rounds=7,
            params=MarketParams(
                intro_period=2, intro_ads=(0.7, 0.3), tracked_intro_ad=1.0
            ),
        )
        trace = run(cfg)
        assert trace.advertisements[4:].tolist() == [1.0, 0.3, 0.7]

    def test_no_introductions_in_cultural_mode_or_short_runs(self):
        cultural = run(small_config(mode="cultural", rounds=7))
        assert cultural.n_items == 4
        short = run(small_config(rounds=2))
        assert short.n_items == 4

    def test_boundary_round_counts(self):
        # rounds == period completes no introduction; one more round does.
        at = small_config(rounds=2)
        past = small_config(rounds=3)
        assert run(at).n_items == 4
        assert run(past).n_items == 5

    def test_uniform_likings_draw_from_the_run_stream(self):
        cfg = small_config(
            rounds=3,
            params=MarketParams(intro_period=2, new_item_liking="uniform"),
        )
        trace = run(cfg)
        assert trace.quality[4] > 0.0
        again = run(cfg)
        assert np.array_equal(trace.shares, again.shares)
        assert np.array_equal(trace.quality, again.quality)

    def test_new_items_enter_the_trace_on_the_next_round(self):
        cfg = small_config(rounds=4)
        trace = run(cfg)
        item = 4  # introduced once 2 rounds are done
        assert trace.intro_rounds[item] == 2
        assert np.all(trace.counts[:2, item] == 0)


class TestRunAgainstBruteForce:
    def brute_check(self, cfg):
        trace = run(cfg)
        oracles.check_trace_invariants(trace)
        per_round, state = oracles.brute_force_trace(cfg)
        got_rounds = [
            sorted((int(i), int(a)) for i, a in zip(agents, items))
            for agents, items in zip(trace.event_agents, trace.event_items)
        ]
        want_rounds = [sorted(r) for r in per_round]
        assert got_rounds == want_rounds
        assert np.array_equal(trace.counts[-1], state.counts[: state.m])

    def test_fashion_default_blend(self):
        self.brute_check(small_config(rounds=6, seed=11))

    def test_fashion_literal_blend_uniform_likings(self):
        cfg = small_config(
            rounds=6, seed=12,
            params=MarketParams(
                intro_period=3, intro_ads=(0.9,),
                utility_social_blend="literal_consumption",
                new_item_liking="uniform",
            ),
        )
        self.brute_check(cfg)

    def test_cultural_mode(self):
        self.brute_check(small_config(mode="cultural", rounds=6, seed=13))

    def test_with_min_utility_floor(self):
        cfg = small_config(
            rounds=5, seed=14,
            params=MarketParams(intro_period=2, min_utility=0.15),
        )
        self.brute_check(cfg)

    def test_catalog_advertising_random_topology(self):
        cfg = small_config(
            n_agents=8, rounds=5, seed=15,
            topology=TopologySpec(kind="random", p=0.4),
            params=MarketParams(catalog_ads=0.6, intro_period=2),
        )
        self.brute_check(cfg)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32), mode=st.sampled_from(["cultural", "fashion"]))
    def test_random_small_configs(self, seed, mode):
        rng = rng_from(seed)
        cfg = SimulationConfig(
            n_agents=int(rng.integers(3, 10)),
            m_initial=int(rng.integers(1, 6)),
            rounds=int(rng.integers(1, 8)),
            topology=TopologySpec(kind="random", p=float(rng.random())),
            params=MarketParams(
                gamma=float(rng.random()),
                beta=float(rng.uniform(0.5, 12.0)),
                intro_period=int(rng.integers(1, 4)),
                intro_ads=(0.7, float(rng.random())),
                catalog_ads=float(rng.random()),
            ),
            mode=mode,
            seed=seed,
        )
        self.brute_check(cfg)


class TestRunDeterminism:
    def test_same_config_same_trace(self):
        cfg = small_config(seed=21)
        a, b = run(cfg), run(cfg)
        assert np.array_equal(a.shares, b.shares)
        assert np.array_equal(a.counts, b.counts)
        assert a.events == b.events

    def test_different_seeds_differ(self):
        a = run(small_config(seed=1))
        b = run(small_config(seed=2))
        assert not np.array_equal(a.shares, b.shares)

    def test_gamma_zero_consumption_follows_descending_liking(self):
        for seed in range(6):
            cfg = SimulationConfig(
                n_agents=5, m_initial=6, rounds=6,
                topology=TopologySpec(kind="ring", k=2),
                params=MarketParams(gamma=0.0),
                mode="cultural", seed=seed,
            )
            trace = run(cfg)
            state = init_market(cfg)
            order = {i: [] for i in range(cfg.n_agents)}
            for agents, items in zip(trace.event_agents, trace.event_items):
                for i, a in zip(agents.tolist(), items.tolist()):
                    order[i].append(a)
            for i in range(cfg.n_agents):
                likings = state.liking[i, : cfg.m_initial]
                want = sorted(range(cfg.m_initial), key=lambda a: -likings[a])
                assert order[i] == want[: cfg.rounds]

    def test_everyone_consumes_once_per_round_without_a_floor(self):
        cfg = small_config(n_agents=7, m_initial=9, rounds=6, mode="cultural")
        trace = run(cfg)
        for r in range(cfg.rounds):
            assert len(trace.event_agents[r]) == cfg.n_agents
            assert trace.counts[r].sum() == cfg.n_agents * (r + 1)


class TestEnsembles:
    def test_matches_manually_derived_runs(self):
        cfg = small_config(seed=5)
        ens = run_ensemble(cfg, runs=5, jobs=1)
        traces = [run(replace(cfg, seed=derive_seed(cfg.seed, i))) for i in range(5)]
        stacked = np.stack([t.shares for t in traces])
        assert np.array_equal(ens.mean_share, stacked.mean(axis=0))
        assert np.array_equal(ens.std_share, stacked.std(axis=0))
        assert np.array_equal(ens.per_run_final_share, stacked[:, -1, :])
        assert np.array_equal(ens.per_run_integrated_share, stacked.sum(axis=1))
        assert np.array_equal(
            ens.per_run_quality, np.stack([t.quality for t in traces])
        )

    def test_worker_count_never_changes_results(self):
        cfg = small_config(seed=6)
        one = run_ensemble(cfg, runs=8, jobs=1)
        many = run_ensemble(cfg, runs=8, jobs=4)
        assert np.array_equal(one.mean_share, many.mean_share)
        assert np.array_equal(one.std_share, many.std_share)
        assert np.array_equal(one.per_run_final_share, many.per_run_final_share)

    def test_jobs_one_two_three_are_bit_equal(self):
        """Each run owns its score table and scratch buffer, so runs on
        pool threads cannot disturb each other."""
        cfg = small_config(
            n_agents=150, m_initial=20, rounds=20, seed=8,
            topology=TopologySpec(kind="random", p=0.05),
            params=MarketParams(gamma=0.8, intro_period=3, intro_batch=2,
                                intro_ads=(0.9, 0.2), new_item_liking="uniform",
                                min_utility=0.1),
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-round too
        try:
            results = [run_ensemble(cfg, runs=6, jobs=jobs) for jobs in (1, 2, 3)]
        finally:
            sys.setswitchinterval(interval)
        for other in results[1:]:
            for name in ("rounds", "item_ids", "advertisements", "intro_rounds",
                         "mean_share", "std_share", "per_run_final_share",
                         "per_run_integrated_share", "per_run_quality"):
                a, b = getattr(results[0], name), getattr(other, name)
                assert a.dtype == b.dtype
                assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), name

    def test_default_runs_without_a_thread_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("run_ensemble built a thread pool by default")

        monkeypatch.setattr(engine, "ThreadPoolExecutor", no_pool)
        cfg = small_config(seed=6)
        ens = run_ensemble(cfg, runs=4)
        assert np.array_equal(ens.mean_share, run_ensemble(cfg, runs=4, jobs=1).mean_share)

    def test_single_run_ensemble_has_zero_std(self):
        ens = run_ensemble(small_config(seed=9), runs=1, jobs=1)
        assert np.all(ens.std_share == 0.0)

    def test_std_uses_population_convention(self):
        ens = run_ensemble(small_config(seed=10), runs=4, jobs=1)
        final = ens.per_run_final_share
        assert np.allclose(ens.std_share[-1], np.std(final, axis=0, ddof=0))

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            run_ensemble(small_config(), runs=0)
        with pytest.raises(ValueError):
            run_ensemble(small_config(), runs=2, jobs=0)

    def test_masters_differ(self):
        a = run_ensemble(small_config(seed=1), runs=3, jobs=1)
        b = run_ensemble(small_config(seed=2), runs=3, jobs=1)
        assert not np.array_equal(a.mean_share, b.mean_share)


def bits(a):
    """An array's dtype, shape and bytes, for bit-for-bit comparison."""
    a = np.ascontiguousarray(a)
    return a.dtype, a.shape, a.tobytes()


def batch_base(kind, mode, blend, liking, floor, n=12):
    return SimulationConfig(
        n_agents=n, m_initial=5, rounds=8,
        topology=TopologySpec(kind=kind, k=4, p=0.25),
        params=MarketParams(
            gamma=0.8, beta=6.0, intro_period=2, intro_batch=2,
            intro_ads=(0.9, 0.2, 0.5), catalog_ads=0.3, new_item_liking=liking,
            utility_social_blend=blend, min_utility=floor,
        ),
        mode=mode, seed=23,
    )


SWEEP_GRIDS = {
    "advertisement": (0.0, 0.45, 1.0),
    "beta": (0.5, 6.0, 40.0),
    "gamma": (0.0, 0.6, 0.95),
    "n_agents": (10, 13),
}


class TestBatches:
    """Runs stepped together in one batch give, bit for bit, what each
    gives stepped alone by run()."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["ring", "random", "small_world"]),
        mode=st.sampled_from(["cultural", "fashion"]),
        blend=st.sampled_from(["liking", "literal_consumption"]),
        liking=st.sampled_from(["zero", "uniform"]),
        floor=st.sampled_from([None, 0.4]),
        parameter=st.sampled_from(sorted(SWEEP_GRIDS)),
        runs=st.integers(1, 4),
        budget_runs=st.integers(1, 5),
        jobs=st.sampled_from([1, 3]),
    )
    def test_every_swept_run_matches_a_lone_run(self, kind, mode, blend, liking,
                                                floor, parameter, runs,
                                                budget_runs, jobs):
        """The work list is cut under a budget of budget_runs runs, so
        batches split each sweep and may straddle two grid points."""
        base = batch_base(kind, mode, blend, liking, floor)
        if mode == "cultural" and parameter == "advertisement":
            parameter = "beta"  # no tracked item without introductions
        spec = SweepSpec(base, parameter, SWEEP_GRIDS[parameter], runs=runs)
        batches = []

        def recording(batch):
            batches.append([point for point, _, _ in batch])
            return run_batch(batch)

        run_batch = engine._run_batch
        cells = base.n_agents * engine._final_item_count(base)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "BATCH_CELLS", budget_runs * cells)
            mp.setattr(engine, "_run_batch", recording)
            result = sweep(spec, jobs=jobs)

        assert sum(map(len, batches)) == runs * len(spec.grid)
        if parameter == "n_agents":
            assert all(len(set(b)) == 1 for b in batches)
        else:
            assert max(map(len, batches)) == min(budget_runs, runs * len(spec.grid))
        for pt in result.points:
            cfg = _apply(base, parameter, pt.value, pt.seed)
            traces = [run(replace(cfg, seed=derive_seed(pt.seed, i))) for i in range(runs)]
            shares = np.stack([t.shares for t in traces])
            ens = pt.ensemble
            assert bits(ens.mean_share) == bits(shares.mean(axis=0))
            assert bits(ens.std_share) == bits(shares.std(axis=0))
            assert bits(ens.per_run_final_share) == bits(shares[:, -1, :])
            assert bits(ens.per_run_integrated_share) == bits(shares.sum(axis=1))
            assert bits(ens.per_run_quality) == bits(np.stack([t.quality for t in traces]))
            for name in ("rounds", "item_ids", "advertisements", "intro_rounds"):
                assert bits(getattr(ens, name)) == bits(getattr(traces[0], name)), name

    @pytest.mark.parametrize("kind", ["ring", "random", "small_world"])
    @pytest.mark.parametrize("mode", ["cultural", "fashion"])
    def test_mixed_runs_leave_the_same_state(self, kind, mode):
        """Different seeds, gammas, betas and tracked ads in one batch: each
        run's block of the batch's final arrays equals its lone market's."""
        base = batch_base(kind, mode, "liking", "uniform", 0.1, n=15)
        configs = [
            replace(base, seed=s, params=replace(base.params, gamma=g, beta=b,
                                                 tracked_intro_ad=a))
            for s, g, b, a in [(1, 0.8, 6.0, None), (2, 0.0, 0.5, 1.0),
                               (3, 1.0, 40.0, 0.0), (4, 0.35, 6.0, 0.7)]
        ]
        batch, counts, _ = engine._simulate(configs)
        assert isinstance(batch, MarketBatch) and batch.runs == 4
        n = base.n_agents
        for b, cfg in enumerate(configs):
            lone, lone_counts, _ = engine._simulate([cfg])
            assert isinstance(lone, MarketState)
            assert bits(counts[b]) == bits(lone_counts[0])
            rows = slice(b * n, (b + 1) * n)
            for name in ("liking", "tolerance", "consumed", "consumed_round",
                         "nbr_counts", "degrees"):
                assert bits(getattr(batch, name)[rows]) == bits(getattr(lone, name)), name
            assert bits(batch.counts[b]) == bits(lone.counts)
            assert bits(batch.advertisement[b]) == bits(lone.advertisement)
            assert bits(batch.intro_rounds) == bits(lone.intro_rounds)

    def test_a_batch_steps_like_its_runs_round_by_round(self):
        """step on a stacked batch commits, per run, the events step gives
        on each run alone, with agent rows offset by the run's block."""
        configs = [small_config(n_agents=9, seed=s,
                                params=MarketParams(gamma=g, beta=b, intro_period=2))
                   for s, g, b in [(1, 0.9, 1.0), (2, 0.2, 12.0), (3, 0.9, 3.0)]]
        lone = [init_market(c) for c in configs]
        batch = MarketBatch.stack(lone, 3)
        rngs = [rng_from(c.seed) for c in configs]
        for _ in range(configs[0].rounds):
            if batch.round > 0 and batch.round % 2 == 0:
                introduce_items(batch, rngs)
                for s in lone:
                    introduce_items(s)
            got = step(batch)
            want = [step(s) + [b * 9, 0] for b, s in enumerate(lone)]
            assert got.tolist() == np.concatenate(want).tolist()
            assert batch.round == lone[0].round

    def test_step_on_a_lone_state_uses_its_own_arrays(self):
        state = init_market(small_config())
        arrays = [state.liking, state.counts, state.nbr_counts, state.consumed]
        table = kernel.ScoreTable(state)
        step(state, table)
        assert table.state is state
        assert all(a is b for a, b in zip(arrays, [state.liking, state.counts,
                                                    state.nbr_counts, state.consumed]))
        assert state.counts.sum() > 0

    def test_stack_rejects_markets_of_another_shape(self):
        a = init_market(small_config(seed=1))
        for other in (small_config(seed=2, n_agents=7), small_config(seed=2, mode="cultural"),
                      small_config(seed=2, params=MarketParams(intro_period=3))):
            with pytest.raises(ValueError, match="one shape"):
                MarketBatch.stack([a, init_market(other)], 2)
        moved = init_market(small_config(seed=2))
        step(moved)
        with pytest.raises(ValueError, match="one shape"):
            MarketBatch.stack([a, moved], 2)

    def test_uniform_introductions_need_one_generator_per_run(self):
        cfg = small_config(params=MarketParams(intro_period=2, new_item_liking="uniform"))
        batch = MarketBatch.stack([init_market(cfg), init_market(replace(cfg, seed=8))], 2)
        with pytest.raises(ValueError, match="one generator per run"):
            introduce_items(batch, [rng_from(1)])

    def test_the_budget_cuts_the_work_list_in_order(self, monkeypatch):
        cfg = small_config()
        cells = cfg.n_agents * engine._final_item_count(cfg)
        monkeypatch.setattr(engine, "BATCH_CELLS", 3 * cells)
        work = [(p, i, c) for p, c in enumerate(
            [cfg, replace(cfg, params=replace(cfg.params, gamma=0.1)),
             replace(cfg, n_agents=8)]) for i in range(2)]
        cut = [[w[:2] for w in b] for b in engine._batches(work)]
        assert cut == [[(0, 0), (0, 1), (1, 0)], [(1, 1)], [(2, 0), (2, 1)]]
        monkeypatch.setattr(engine, "BATCH_CELLS", cells - 1)
        assert [len(b) for b in engine._batches(work)] == [1] * 6
