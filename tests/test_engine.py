"""Engine tests: seed derivation, documented hand-traced scenarios, the
brute-force cross-check, introduction scheduling, and ensemble mechanics."""

import copy
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fashsim import engine, kernel, model
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

    def test_rejects_inputs_outside_64_bits(self):
        # Each would otherwise wrap onto an in-range input's child.
        for master, index in ((-1, 0), (2**64, 0), (2**64 + 5, 3), (42, 2**64),
                              (42, 2**64 + 1), (-(2**64), 0)):
            name = "master" if not 0 <= master < 2**64 else "index"
            with pytest.raises(ValueError, match="%s: must fit in 64 bits" % name):
                derive_seed(master, index)
        assert derive_seed(2**64 - 1, 2**64 - 1) == splitmix64_reference(2**64 - 1, 2**64 - 1)

    @pytest.mark.parametrize("master", [0, 5, 42, 2**63 - 1, 2**63, 2**64 - 1])
    def test_numpy_integers_give_the_python_int_seeds(self, master):
        want = [derive_seed(master, i) for i in (0, 1, 7, 10_000)]
        for kind in (np.uint64, np.int64):
            if master > np.iinfo(kind).max:
                continue
            assert [derive_seed(kind(master), kind(i)) for i in (0, 1, 7, 10_000)] == want
            assert [derive_seed(kind(master), i) for i in (0, 1, 7, 10_000)] == want
        assert want == [splitmix64_reference(master, i) for i in (0, 1, 7, 10_000)]

    def test_rejects_non_integers(self):
        for master, index in ((1.0, 0), (True, 0), ("5", 0), (5, 1.5), (5, np.float64(2))):
            with pytest.raises(ValueError, match="master|index"):
                derive_seed(master, index)


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
        with pytest.raises(ValueError, match="rounds"):
            SimulationConfig(rounds=2**31)  # round labels are int32
        SimulationConfig(rounds=2**31 - 1)
        with pytest.raises(ValueError):
            SimulationConfig(mode="hybrid")
        with pytest.raises(ValueError):
            SimulationConfig(seed=-1)
        with pytest.raises(ValueError):
            SimulationConfig(seed=2**64)
        with pytest.raises(ValueError):
            SimulationConfig(n_agents=4, topology=TopologySpec(kind="ring", k=4))


    @pytest.mark.parametrize("value", [True, 4.0, 4.5])
    @pytest.mark.parametrize("field, make", [
        ("n_agents", lambda v: SimulationConfig(n_agents=v)),
        ("m_initial", lambda v: SimulationConfig(m_initial=v)),
        ("rounds", lambda v: SimulationConfig(rounds=v)),
        ("seed", lambda v: SimulationConfig(seed=v)),
        ("intro_period", lambda v: MarketParams(intro_period=v)),
        ("intro_batch", lambda v: MarketParams(intro_batch=v)),
        ("k", lambda v: TopologySpec(k=v)),
        ("runs", lambda v: run_ensemble(small_config(), runs=v)),
        ("jobs", lambda v: run_ensemble(small_config(), runs=2, jobs=v)),
        ("runs", lambda v: SweepSpec(small_config(), "gamma", (0.5,), runs=v)),
        ("jobs", lambda v: sweep(SweepSpec(small_config(), "gamma", (0.5,), runs=2),
                                 jobs=v)),
    ])
    def test_integer_fields_reject_bools_and_floats(self, field, make, value):
        """Caught where the value enters, naming the field: a float used
        to fail deep inside run() and a bool to pass as 0 or 1."""
        with pytest.raises(ValueError, match="^%s: must be an integer" % field):
            make(value)

    @pytest.mark.parametrize("make, message", [
        (lambda: SimulationConfig(params={"gamma": 0.5}),
         "params: expected a MarketParams (got {'gamma': 0.5})"),
        (lambda: SimulationConfig(topology="ring"), "topology: expected a TopologySpec"),
        (lambda: SweepSpec("x", "beta", (1.0,)), "base: expected a SimulationConfig"),
        (lambda: MarketParams(intro_ads=0.7),
         "intro_ads: expected a sequence of numbers (got 0.7)"),
        (lambda: MarketParams(intro_ads=None), "intro_ads: expected a sequence of numbers"),
        (lambda: MarketParams(intro_ads="0.7"),
         "intro_ads: expected a sequence of numbers (got '0.7')"),
        (lambda: SweepSpec(small_config(), "beta", 2.0), "grid: expected a sequence"),
        (lambda: SweepSpec(small_config(), "beta", b"2"), "grid: expected a sequence"),
        (lambda: MarketBatch([MarketParams()] * 2, [build_ring(4, 2)] * 2, "fashion",
                             np.zeros((8, 3)), np.ones(8), np.zeros((3, 3))),
         "advertisement: expected shape (3,) or (2, 3)"),
    ])
    def test_wrong_typed_fields_are_value_errors_naming_the_field(self, make, message):
        """Each used to be accepted and fail deep in a run with an
        AttributeError, or to raise a TypeError or a message that named
        the wrong value or shape."""
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("field, make, value", [
        pytest.param(field, make, value, id="%s-%r" % (field, value))
        for field, make, optional in [
            ("gamma", lambda v: MarketParams(gamma=v), False),
            ("beta", lambda v: MarketParams(beta=v), False),
            ("sigmoid_center", lambda v: MarketParams(sigmoid_center=v), False),
            ("catalog_ads", lambda v: MarketParams(catalog_ads=v), False),
            ("tracked_intro_ad", lambda v: MarketParams(tracked_intro_ad=v), True),
            ("min_utility", lambda v: MarketParams(min_utility=v), True),
            ("intro_ads", lambda v: MarketParams(intro_ads=(0.5, v)), False),
            ("p", lambda v: TopologySpec(p=v), False),
            ("grid", lambda v: SweepSpec(small_config(), "beta", (2.0, v), runs=1), False),
        ]
        for value in (True, "0.5") + (() if optional else (None,))
    ])
    def test_float_fields_reject_bools_and_non_numbers(self, field, make, value):
        """A bool used to pass as 0 or 1, and a string or None to fail in a
        comparison with a TypeError that named no field."""
        with pytest.raises(ValueError, match="^%s: must be a number" % field):
            make(value)

    def test_float_fields_take_numpy_numbers_as_floats(self):
        params = MarketParams(gamma=np.float32(0.5), beta=np.int64(2),
                              sigmoid_center=np.float64(0.25), catalog_ads=np.float16(0.5),
                              intro_ads=[np.float64(0.75), 1], tracked_intro_ad=np.float64(0.3),
                              min_utility=np.int8(0))
        spec = SweepSpec(small_config(), "beta", [np.float64(2.0), np.int64(3)], runs=1)
        array_grid = SweepSpec(small_config(), "beta", np.array([2.0, 3.0]), runs=1).grid
        floats = (params.gamma, params.beta, params.sigmoid_center, params.catalog_ads,
                  params.tracked_intro_ad, params.min_utility, TopologySpec(p=np.float64(0.1)).p)
        assert all(type(v) is float for v in floats + params.intro_ads + spec.grid + array_grid)
        assert params.intro_ads == (0.75, 1.0) and spec.grid == array_grid == (2.0, 3.0)

    def test_integer_fields_take_numpy_integers_as_ints(self):
        cfg = SimulationConfig(n_agents=np.int64(8), m_initial=np.int32(3),
                               rounds=np.int64(4), seed=np.uint64(2**64 - 1),
                               topology=TopologySpec(k=np.int64(2)),
                               params=MarketParams(intro_period=np.int16(2),
                                                   intro_batch=np.int64(2)))
        ints = (cfg.n_agents, cfg.m_initial, cfg.rounds, cfg.seed, cfg.topology.k,
                cfg.params.intro_period, cfg.params.intro_batch)
        assert all(type(v) is int for v in ints)
        ens = run_ensemble(cfg, runs=np.int64(2), jobs=np.int8(1))
        assert type(ens.runs) is int and ens.n_items == 3 + 2
        spec = SweepSpec(cfg, "gamma", (0.5,), runs=np.int32(2))
        assert type(spec.runs) is int and sweep(spec, jobs=np.int64(2)).points


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

    @pytest.mark.parametrize("mode", ["fashion", "cultural"])
    def test_likings_drawn_in_row_blocks_match_one_draw(self, monkeypatch, mode):
        """At a budget of 7 cells, 6 catalog columns go one row a block, 3
        go two rows and 8 (wider than the budget) one row; the stream is
        read as by one (n, m) draw after the graph, run by run."""
        monkeypatch.setattr(model, "BLOCK_CELLS", 7)
        for m in (6, 3, 8):
            configs = [small_config(n_agents=9, m_initial=m, mode=mode, seed=s)
                       for s in (3, 4)]
            market = engine._new_market(configs, [rng_from(c.seed) for c in configs])
            for b, cfg in enumerate(configs):
                rng = rng_from(cfg.seed)
                cfg.topology.build(cfg.n_agents, rng)
                rows = slice(b * 9, (b + 1) * 9)
                assert np.array_equal(market.liking[rows, :m], rng.random((9, m)))
                assert np.array_equal(market.tolerance[rows], 1.0 - rng.random(9))
            assert not market.liking[:, m:].any()

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

    def test_a_market_with_no_items_only_counts_the_round(self):
        graph = SocialGraph.from_adjacency({0: [1], 1: [0]})
        state = MarketState(MarketParams(), graph, "fashion", liking=np.zeros((2, 0)),
                            tolerance=np.full(2, 0.5), advertisement=np.zeros(0))
        events = step(state)
        assert events.shape == (0, 2) and events.dtype == np.int64
        assert state.round == 1

    def test_round_counter_advances_even_with_no_events(self):
        state = two_agent_market()
        for want in (1, 2, 3, 4):
            step(state)
            assert state.round == want


def assert_same_commits(got, want):
    assert np.array_equal(got.consumed, want.consumed)
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
        committed one by one by hand on a copy."""
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
                oracles.commit_by_hand(replay, i, a, label)
            replay.round = label
            assert state.round == label
            assert_same_commits(state, replay)

    def test_direct_commit_matches_the_scalar_replay(self):
        state = init_market(small_config(n_agents=9, mode="cultural"))
        replay = copy.deepcopy(state)
        agents, items = np.array([0, 3, 4, 8]), np.array([2, 0, 2, 1])
        state.commit_round(agents, items, 1)
        for i, a in zip(agents.tolist(), items.tolist()):
            oracles.commit_by_hand(replay, i, a, 1)
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
        for round_no in (0, -1, 2**31):  # 0 means not consumed; labels are int32
            with pytest.raises(ValueError, match="round_no"):
                state.commit_round(np.array([0]), np.array([0]), round_no)
        assert not state.consumed.any()

    def test_a_label_past_int16_widens_the_record(self):
        """consumed starts as int16; the first label past 32,767 widens it
        to int32, every earlier label kept, and the market still decides
        as the full recompute does."""
        state = init_market(cache_config(5))
        assert state.consumed.dtype == np.int16
        for label in (1, 2, 32_767):
            state.commit_round(*open_pairs(state, 6), label)
        before = state.consumed.copy()
        agents, items = open_pairs(state, 6)
        state.commit_round(agents, items, 40_000)
        assert state.consumed.dtype == np.int32
        want = before.astype(np.int32)
        want[agents, items] = 40_000
        assert np.array_equal(state.consumed, want)
        assert sorted(np.unique(want).tolist()) == [0, 1, 2, 32_767, 40_000]
        assert_cache_is_whole(state)
        state.round = 40_000
        step_against_the_reference(state)
        assert state.consumed.max() == 40_001


def rescored(state):
    """A copy of state whose score cache is rebuilt from scratch."""
    fresh = copy.deepcopy(state)
    fresh._scored = 0
    fresh._score_columns()
    return fresh


def assert_cache_is_whole(state):
    """Every live column of state.scores is scored and equals a
    from-scratch rescore bit for bit; under a floor, each run's column
    bound is at least the column's best cached score in that run."""
    m = state.m
    assert state._scored == m
    assert np.array_equal(state.scores[:, :m].view(np.int64),
                          rescored(state).scores[:, :m].view(np.int64))
    if state.params.min_utility is None:
        assert state._colmax is None
    else:
        assert state._colmax.shape == (state.runs, state.scores.shape[1])
        best = state.scores[:, :m].reshape(state.runs, -1, m).max(axis=1)
        assert np.all(state._colmax[:, :m] >= best)


def step_against_the_reference(state):
    """step(state) once; assert its events are decide_round's choices and
    the score cache equals one rebuilt from the new state."""
    want = np.column_stack(kernel.decide_round(state)).tolist()
    events = step(state)
    assert events.tolist() == want
    assert_cache_is_whole(state)
    return events


def cache_config(seed):
    return small_config(
        n_agents=20, m_initial=12, rounds=10, seed=seed,
        topology=TopologySpec(kind="small_world", k=4, p=0.2),
        params=MarketParams(gamma=0.6, beta=6.0, intro_period=3,
                            intro_ads=(0.9, 0.2), new_item_liking="uniform"))


def open_pairs(state, count, m=None):
    """The first `count` agents with an unconsumed item among the first m
    (default: the live ones), and the lowest such item of each."""
    open_cells = state.consumed[:, :state.m if m is None else m] == 0
    agents = np.flatnonzero(open_cells.any(axis=1))[:count]
    return agents, open_cells[agents].argmax(axis=1)


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
        for _ in range(cfg.rounds):
            if mode == "fashion" and state.round > 0 and state.round % 2 == 0:
                introduce_items(state, rng)
            step_against_the_reference(state)

    def test_follows_the_state_when_capacity_grows(self):
        """A state built without reserved capacity grows on every
        introduction; the scores already cached move to the new arrays
        and only the new columns are scored."""
        rng = rng_from(41)
        n, m = 30, 3
        params = MarketParams(gamma=0.7, intro_batch=2, intro_ads=(0.9, 0.4),
                              catalog_ads=0.2, new_item_liking="uniform")
        state = MarketState(
            params, TopologySpec(kind="random", p=0.1).build(n, rng), "fashion",
            liking=rng.random((n, m)), tolerance=1.0 - rng.random(n),
            advertisement=np.full(m, 0.2),
        )
        caps = {state.liking.shape[1]}
        for r in range(12):
            if r % 2 == 1:
                before = state.scores[:, :state.m].copy()
                introduce_items(state, rng)
                caps.add(state.liking.shape[1])
                kept = state.scores[:, :before.shape[1]]
                assert state._scored == before.shape[1]
                assert np.array_equal(kept.view(np.int64), before.view(np.int64))
            step_against_the_reference(state)
        assert len(caps) >= 3
        assert state.scores.shape == state.liking.shape

    def test_apply_consumption_then_step_keeps_the_cache_whole(self):
        """apply_consumption commits through commit_round, so the cache
        stays whole after each event and is never scored from scratch."""
        rng = rng_from(5)
        state = init_market(cache_config(5), rng)
        for _ in range(8):
            if state.round > 0 and state.round % 3 == 0:
                introduce_items(state, rng)
            step_against_the_reference(state)
            label = state.round + 1
            for i, a in zip(*open_pairs(state, 3)):
                state.apply_consumption(int(i), int(a), label)
                assert_cache_is_whole(state)
            state.round = label

    def test_direct_commit_then_step_follows_the_state(self):
        """A direct commit_round leaves the cache whole: it re-scores the
        cells it raised, and one made after an introduction, before any
        step, first scores the new columns."""
        rng = rng_from(6)
        state = init_market(cache_config(6), rng)
        for _ in range(8):
            step_against_the_reference(state)
            if state.round % 3 == 0:
                introduce_items(state, rng)
                scored = state._scored
                assert scored < state.m
                # Pairs in columns the cache had scored, so the raised cells
                # lie in columns it keeps, and pairs in the unscored new one.
                old_agents, old_items = open_pairs(state, 4, scored)
                new_agents = np.setdiff1d(np.arange(state.n_agents), old_agents)[:4]
                assert len(old_agents) > 0 and len(new_agents) > 0
                agents = np.concatenate((old_agents, new_agents))
                items = np.concatenate((old_items, np.full(len(new_agents), state.m - 1)))
                order = np.argsort(agents)
                state.commit_round(agents[order], items[order], state.round + 1)
            else:
                state.commit_round(*open_pairs(state, 4), state.round + 1)
            assert_cache_is_whole(state)
            state.round += 1


def gather_spy(monkeypatch):
    """Record the columns every choose gathers through _argmax (None when
    it reads them all)."""
    gathered = []
    argmax = MarketBatch._argmax

    def spy(market, pen, cols):
        gathered.append(None if cols is None else cols.tolist())
        return argmax(market, pen, cols)

    monkeypatch.setattr(MarketBatch, "_argmax", spy)
    return gathered


def step_batch_against_the_reference(batch, rounds, intro_period, rngs):
    """Step a market rounds times, introducing items every intro_period
    rounds (fashion mode), hold each choose to decide_round and check
    that the commit leaves the score cache whole."""
    for _ in range(rounds):
        if batch.mode == "fashion" and batch.round > 0 and batch.round % intro_period == 0:
            introduce_items(batch, rngs)
        want_agents, want_items = kernel.decide_round(batch)
        agents, items = batch.choose()
        assert agents.tolist() == want_agents.tolist()
        assert items.tolist() == want_items.tolist()
        batch.commit_round(agents, items, batch.round + 1)
        batch.round += 1
        assert_cache_is_whole(batch)


class TestBlockedKernel:
    """choose and _score_columns walk the agent rows in blocks of at most
    model.BLOCK_CELLS cells through one buffer; any budget gives the full
    recompute's choices and a whole cache."""

    # 5 runs of 6 agents, 4 catalog items and 2 more every 2 rounds: at 60
    # cells a block groups two runs and leaves one over, at 7 a 2-column
    # block splits each run into 3 + 3 rows, and at 1 (or 7 with 8 or more
    # columns) every row is wider than the budget.
    def mixed_batch(self):
        base = SimulationConfig(
            n_agents=6, m_initial=4, rounds=9,
            topology=TopologySpec(kind="small_world", k=2, p=0.3),
            params=MarketParams(beta=6.0, intro_period=2, intro_batch=2,
                                intro_ads=(0.9, 0.0, 0.4), catalog_ads=0.2,
                                new_item_liking="uniform", min_utility=0.05),
        )
        configs = [
            replace(base, seed=s, params=replace(base.params, gamma=g, beta=b,
                                                 tracked_intro_ad=a))
            for s, g, b, a in [(1, 0.95, 6.0, None), (2, 0.3, 0.5, 1.0),
                               (3, 1.0, 40.0, 0.0), (4, 0.0, 6.0, 0.6),
                               (5, 0.7, 2.0, None)]
        ]
        rngs = [rng_from(c.seed) for c in configs]
        return base, engine._new_market(configs, rngs), rngs

    @pytest.mark.parametrize("budget", [1, 7, 60])
    def test_blocks_cover_the_rows_within_the_budget(self, monkeypatch, budget):
        monkeypatch.setattr(model, "BLOCK_CELLS", budget)
        _, batch, _ = self.mixed_batch()
        n, seen = batch.run_size, set()
        for width in (1, 2, 4, 6, 10, 12, 70):
            rows = 0
            for runs, lo, hi in batch._blocks(width):
                assert lo == rows < hi
                assert runs.start * n <= lo and hi <= runs.stop * n
                assert (hi - lo) * width <= budget or hi - lo == 1
                if hi - lo == n * (runs.stop - runs.start):
                    seen.add("runs" if runs.stop - runs.start > 1 else "run")
                else:
                    assert runs.stop - runs.start == 1
                    seen.add("rows" if hi - lo > 1 else "row")
                rows = hi
            assert rows == batch.n_agents
        want = {1: {"row"}, 7: {"run", "rows", "row"}, 60: {"runs", "run", "rows", "row"}}
        assert seen == want[budget]

    @pytest.mark.parametrize("budget", [1, 7, 60])
    def test_a_mixed_batch_matches_decide_round_every_round(self, monkeypatch, budget):
        monkeypatch.setattr(model, "BLOCK_CELLS", budget)
        base, batch, rngs = self.mixed_batch()
        step_batch_against_the_reference(batch, base.rounds, 2, rngs)
        assert batch.counts.sum() > 0

    @pytest.mark.parametrize("budget", [1, 7, 60])
    def test_a_lone_state_matches_decide_round_every_round(self, monkeypatch, budget):
        monkeypatch.setattr(model, "BLOCK_CELLS", budget)
        rng = rng_from(8)
        state = init_market(cache_config(8), rng)
        for _ in range(10):
            if state.round > 0 and state.round % 3 == 0:
                introduce_items(state, rng)
            step_against_the_reference(state)

    def test_the_buffer_does_not_grow_with_the_rows(self, monkeypatch):
        sizes = {init_market(small_config(n_agents=n))._scratch.size
                 for n in (6, 600, 6000)}
        assert sizes == {model.BLOCK_CELLS}
        # A row wider than the budget still fits: the buffer follows the
        # capacity past it.
        monkeypatch.setattr(model, "BLOCK_CELLS", 3)
        rng = rng_from(4)
        state = MarketState(MarketParams(intro_batch=3), build_ring(6, 2), "fashion",
                            liking=rng.random((6, 2)), tolerance=np.full(6, 0.5),
                            advertisement=np.full(2, 0.3))
        assert state._scratch.size == 3
        for _ in range(3):
            introduce_items(state, rng)
            assert state._scratch.size == max(3, state.liking.shape[1])
            step_against_the_reference(state)

    @pytest.mark.parametrize("leaves", [0, 300])
    def test_neighbour_counts_follow_the_degree_bound(self, leaves):
        """nbr_counts takes the narrowest unsigned type that holds the
        largest degree, once, and keeps it through introductions and
        _grow: uint8 on a ring of degree 4, uint16 on a star whose hub has
        300 neighbours. Every leaf takes the one catalog item in round 1,
        so the hub's count passes uint8's 255."""
        rng = rng_from(41)
        if leaves:
            graph = SocialGraph.from_adjacency(
                {0: range(1, leaves + 1), **{i: [0] for i in range(1, leaves + 1)}})
        else:
            graph = build_ring(10, 4)
        want = np.uint16 if leaves else np.uint8
        n = graph.n
        state = MarketState(MarketParams(intro_batch=2), graph, "fashion",
                            liking=rng.random((n, 1)), tolerance=np.full(n, 0.5),
                            advertisement=np.full(1, 0.3))
        assert state.nbr_counts.dtype == want
        step_against_the_reference(state)
        assert state.nbr_counts[0, 0] == (leaves or 4)
        caps = set()
        for _ in range(6):
            introduce_items(state, rng)
            caps.add(state.liking.shape[1])
            step_against_the_reference(state)
            assert state.nbr_counts.dtype == want
        assert len(caps) >= 3

    def test_the_paper_batch_stays_under_30_bytes_per_cell(self):
        """tracemalloc peak of stepping a full batch of the paper's runs,
        market, temporaries and per-round counts together: 44.6 B per
        cell with a scratch buffer as large as the cache and int64
        neighbour counts, 33.3 with one block buffer and int32 cells, and
        28.7 with an int16 record and uint8 neighbour counts. The 48 runs
        (100 agents, ring, 50 + 4 items, 30 rounds) fill one BATCH_CELLS
        batch."""
        base = SimulationConfig(
            n_agents=100, m_initial=50, rounds=30,
            params=MarketParams(gamma=0.95, beta=10.0, intro_period=6, intro_ads=(0.7,)))
        configs = [replace(base, seed=derive_seed(11, i), params=replace(
            base.params, tracked_intro_ad=(i % 11) / 10)) for i in range(48)]
        cells = sum(c.n_agents * engine._final_item_count(c) for c in configs)
        work = [(p, 0, c) for p, c in enumerate(configs)]
        assert [len(b) for b in engine._batches(work)] == [len(configs)]
        tracemalloc.start()
        try:
            engine._simulate(configs, [c.seed for c in configs])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / cells < 30


def path_spy(monkeypatch):
    """Record, for every chunk commit_round gathers, whether its neighbour
    rows came as one slice of the graph's targets (True) or by position."""
    paths = []
    neighbour_cells = MarketBatch._neighbour_cells

    def spy(market, starts, lens, items):
        rows, cols = neighbour_cells(market, starts, lens, items)
        paths.append(np.shares_memory(rows, market.graph.targets))
        return rows, cols

    monkeypatch.setattr(MarketBatch, "_neighbour_cells", spy)
    return paths


class TestCommitPaths:
    """commit_round reads a chunk of consecutive consumers' neighbour rows
    as one slice of the graph's targets and any other chunk by position;
    either way it counts every cell it reaches, consumed or not, and
    re-scores only the open ones."""

    # Every row of the 12 agents (degrees 4, 4, 4, 3, 3, 0, 3, 3, 4, 4, 4,
    # 4) goes in chunks [0, 1] [2, 3] [4, 5, 6] [7, 8] [9, 10] [11] at a
    # budget of 8 cells; the gapped rows [0, 2] and [7, 9] go in two.
    EVERY_ROW = (list(range(12)), [2, 2, 0, 2, 0, 2, 0, 1, 2, 1, 0, 1])
    GAPPED = ([0, 2, 7, 9], [0, 0, 1, 2])

    def market(self, mode, floor):
        """A ring of 12 agents (k = 4) with agent 5 cut out, 3 items; in
        round 1 agents 1, 3 and 8 consumed item 0 and agent 6 item 1, so
        round 2's commits reach cells consumed before it."""
        ring = build_ring(12, 4)
        graph = SocialGraph.from_adjacency(
            {i: [j for j in ring.neighbor_array(i).tolist() if 5 not in (i, j)]
             for i in range(12)})
        assert graph.degree(5) == 0
        rng = rng_from(17)
        state = MarketState(MarketParams(gamma=0.6, min_utility=floor), graph, mode,
                            liking=rng.random((12, 3)), tolerance=1.0 - rng.random(12),
                            advertisement=np.array([0.3, 0.0, 0.8]))
        state.commit_round(np.array([1, 3, 6, 8]), np.array([0, 0, 1, 0]), 1)
        state.round = 1
        return state

    @pytest.mark.parametrize("mode", ["cultural", "fashion"])
    @pytest.mark.parametrize("floor", [None, 0.3])
    @pytest.mark.parametrize("pairs, budget, want_paths", [
        (EVERY_ROW, None, [True]),
        (GAPPED, None, [False]),
        (([4, 5, 6], [0, 2, 0]), None, [True]),  # agent 5 has no neighbours
        (([2], [0]), None, [True]),
        (EVERY_ROW, 8, [True] * 6),
        (GAPPED, 8, [False, False]),
    ], ids=["every-row", "gapped", "zero-degree", "one-consumer", "every-row-split",
            "gapped-split"])
    def test_matches_the_pairs_committed_by_hand(self, monkeypatch, mode, floor, pairs,
                                                 budget, want_paths):
        if budget is not None:
            monkeypatch.setattr(model, "BLOCK_CELLS", budget)
        state = self.market(mode, floor)
        before, replay = copy.deepcopy(state), copy.deepcopy(state)
        paths = path_spy(monkeypatch)
        agents, items = (np.array(x) for x in pairs)
        state.commit_round(agents, items, 2)
        for i, a in zip(agents.tolist(), items.tolist()):
            oracles.commit_by_hand(replay, i, a, 2)
        assert paths == want_paths
        assert_same_commits(state, replay)
        fresh = rescored(replay)
        assert np.array_equal(state.scores.view(np.int64), fresh.scores.view(np.int64))

        # Every cell reached is counted; one consumed before this round or
        # in it keeps -inf, and leaves the column bound as it was.
        reached = [(j, a) for i, a in zip(agents.tolist(), items.tolist())
                   for j in state.graph.neighbor_array(i).tolist()]
        dead = [(j, a) for j, a in reached if state.consumed[j, a]]
        assert any(before.consumed[j, a] for j, a in dead)
        for j, a in dead:
            assert state.scores[j, a] == -np.inf
            assert state.nbr_counts[j, a] == before.nbr_counts[j, a] + reached.count((j, a))
        if floor is not None:
            want = before._colmax.copy()
            for j, a in set(reached) - set(dead):
                want[0, a] = max(want[0, a], fresh.scores[j, a])
            assert np.array_equal(state._colmax, want)

        state.round = 2
        want_agents, want_items = kernel.decide_round(state)
        got_agents, got_items = state.choose()
        assert got_agents.tolist() == want_agents.tolist()
        assert got_items.tolist() == want_items.tolist()


class TestColumnBounds:
    """Under a floor, choose reads only the columns whose bound minus
    penalty reaches it in some run, and the choices stay decide_round's."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n=st.integers(3, 20),
        m=st.integers(1, 5),
        runs=st.integers(1, 3),
        kind=st.sampled_from(["ring", "random", "small_world"]),
        mode=st.sampled_from(["cultural", "fashion"]),
        blend=st.sampled_from(["liking", "literal_consumption"]),
        new_liking=st.sampled_from(["zero", "uniform"]),
        floor=st.sampled_from([None, -1.0, -0.2, 0.0, 0.3, 0.45, 0.6, 1.5]),
        ties=st.booleans(),
        intro_period=st.integers(1, 3),
        grow=st.booleans(),
    )
    def test_choose_matches_decide_round_every_round(self, seed, n, m, runs, kind, mode,
                                                     blend, new_liking, floor, ties,
                                                     intro_period, grow):
        """Runs of one batch differ in beta and gamma; with ties the
        catalog likings are rounded to tenths, so scores tie often; with
        grow the market reserves no columns, so introductions grow it.
        Nothing ever clears a floor of 1.5, so no column is eligible, and
        every column is at -1.0, so choose reads them all."""
        base = SimulationConfig(
            n_agents=n, m_initial=m, rounds=12,
            topology=TopologySpec(kind=kind, k=2, p=0.3),
            params=MarketParams(
                beta=6.0, intro_period=intro_period, intro_batch=2,
                intro_ads=(0.9, 0.0, 0.5), catalog_ads=0.3, new_item_liking=new_liking,
                utility_social_blend=blend, min_utility=floor),
            mode=mode, seed=seed,
        )
        configs = [replace(base, seed=seed + b, params=replace(base.params, gamma=g, beta=beta))
                   for b, (g, beta) in enumerate([(0.6, 6.0), (1.0, 0.5), (0.3, 40.0)][:runs])]
        rngs = [rng_from(c.seed) for c in configs]
        with pytest.MonkeyPatch.context() as mp:
            if grow:
                mp.setattr(engine, "_final_item_count", lambda config: config.m_initial)
            batch = engine._new_market(configs, rngs)
        if ties:
            np.round(batch.liking, 1, out=batch.liking)  # before the cache is first scored
        step_batch_against_the_reference(batch, base.rounds, intro_period, rngs)

    def test_a_raised_cell_and_a_new_column_make_columns_eligible(self, monkeypatch):
        """A ring of four, zero ads (no marketing, no penalty), gamma 0.5
        and a floor of 0.3. Every catalog score is below it (agent 1's item
        1 at 0.5 * 0.2 = 0.1), so no column is eligible and every agent
        abstains unread. Agent 0 then consumes item 1, which lifts agent
        1's item 1 to 0.5 * 1/2 + 0.1 = 0.35 and agent 3's to 0.25; a new
        item that agent 2 likes at 1.0 scores 0.5 for it. The next choose
        gathers just those two of five columns. The market reserves no
        column, so the introduction grows the bound with the arrays."""
        gathered = gather_spy(monkeypatch)
        liking = np.zeros((4, 4))
        liking[1, 1] = 0.2
        state = MarketState(MarketParams(gamma=0.5, min_utility=0.3), build_ring(4, 2),
                            "fashion", liking, np.ones(4), np.zeros(4))
        assert [a.tolist() for a in kernel.decide_round(state)] == [[], []]
        agents, items = state.choose()
        assert (agents.tolist(), items.tolist()) == ([], [])
        assert gathered == []
        state.commit_round(np.array([0]), np.array([1]), 1)
        state.round = 1
        state.append_items([0.0], np.array([[0.0], [0.0], [1.0], [0.0]]), intro_round=1)
        assert state._colmax.shape == (1, state.scores.shape[1]) and state.m == 5
        want = kernel.decide_round(state)
        agents, items = state.choose()
        assert (agents.tolist(), items.tolist()) == ([1, 2], [1, 4])
        assert (agents.tolist(), items.tolist()) == (want[0].tolist(), want[1].tolist())
        assert gathered == [[1, 4]]
        assert_cache_is_whole(state)

    def test_a_table_that_falls_still_matches(self, monkeypatch):
        """A sigmoid that falls as the share grows lets a penalty fall from
        one round to the next. The bound is compared with each round's own
        penalties, so choose still gathers the eligible columns and
        matches decide_round (which reads the same table) every round."""
        rising = model.sigmoid
        monkeypatch.setattr(model, "sigmoid", lambda x, beta, center: 1.0 - rising(x, beta, center))
        gathered = gather_spy(monkeypatch)
        configs = catalog_like_configs(min_utility=0.3)
        rngs = [rng_from(c.seed) for c in configs]
        batch = engine._new_market(configs, rngs)
        batch.penalties()  # builds the table
        table = batch._sigmoid[1]
        assert np.all(table[:, 1:] <= table[:, :-1]) and np.any(table[:, 1:] < table[:, :-1])
        step_batch_against_the_reference(batch, configs[0].rounds, 3, rngs)
        assert batch.counts.sum() > 0
        assert any(cols is not None for cols in gathered)

    def test_a_catalog_like_market_gathers_few_columns(self, monkeypatch):
        """catalog-wide's shape, scaled down: three betas, a utility floor
        and the literal_consumption blend leave few columns that can clear
        the floor, so most rounds gather fewer than half the live ones."""
        gathered = gather_spy(monkeypatch)
        configs = catalog_like_configs()
        rngs = [rng_from(c.seed) for c in configs]
        batch = engine._new_market(configs, rngs)
        step_batch_against_the_reference(batch, configs[0].rounds, 3, rngs)
        assert batch.counts.sum() > 0
        few = [cols for cols in gathered if cols is not None]
        assert len(few) > configs[0].rounds // 2


def catalog_like_configs(min_utility=0.45):
    """catalog-wide's sweep-beta batch at 30 agents and 200 items."""
    base = SimulationConfig(
        n_agents=30, m_initial=200, rounds=12,
        topology=TopologySpec(kind="small_world", k=6, p=0.1),
        params=MarketParams(
            gamma=0.6, intro_period=3, intro_batch=5, intro_ads=(0.9, 0.5, 0.2),
            catalog_ads=0.3, new_item_liking="uniform",
            utility_social_blend="literal_consumption", min_utility=min_utility),
        mode="fashion", seed=11,
    )
    return [replace(base, seed=derive_seed(11, b), params=replace(base.params, beta=beta))
            for b, beta in enumerate([1.0, 5.0, 10.0])]


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

    def test_the_table_is_built_whole_on_first_use(self):
        """One row per distinct beta, holding the scalar sigmoid of every
        share k / n, k = 0..n, bit for bit; later calls reuse it."""
        lone = init_market(small_config(params=MarketParams(beta=7.3, sigmoid_center=0.3)))
        _, batch, _ = TestBlockedKernel().mixed_batch()
        for market, betas in ((lone, [7.3]), (batch, [0.5, 2.0, 6.0, 40.0])):
            assert market._sigmoid is None
            market.penalties()
            built = market._sigmoid
            row, table = built
            n, center = market.run_size, market.params.sigmoid_center
            want = [[sigmoid(k / n, beta, center) for k in range(n + 1)] for beta in betas]
            assert bits(table) == bits(np.array(want))
            assert [betas[r] for r in row.reshape(-1)] == [p.beta for p in market.run_params]
            market.penalties()
            assert market._sigmoid is built

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

    def test_uniform_likings_need_a_generator(self):
        state = init_market(small_config(params=MarketParams(new_item_liking="uniform")))
        with pytest.raises(ValueError, match="^rng: uniform new-item likings need a generator$"):
            introduce_items(state)

    def test_a_drifted_schedule_is_an_internal_error(self, monkeypatch):
        """_simulate checks that the introductions made are the planned ones."""
        monkeypatch.setattr(engine, "introduce_items", lambda market, rngs: ())
        with pytest.raises(AssertionError, match="^introduction schedule drifted from plan$"):
            run(small_config(rounds=3))

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


class TestTraceEvents:
    """run() keeps one record of its consumptions, the market's consumed
    array, and derives its per-round events from it."""

    @pytest.mark.parametrize("liking", ["zero", "uniform"])
    @pytest.mark.parametrize("floor", [None, 0.55])
    @pytest.mark.parametrize("mode", ["fashion", "cultural"])
    def test_events_equal_a_step_replay(self, mode, floor, liking):
        """Array for array (values, order, dtype) what step() returns on a
        market replayed by hand; cultural runs exhaust the catalog, so
        their last rounds are empty."""
        cfg = SimulationConfig(
            n_agents=30, m_initial=5, rounds=12,
            topology=TopologySpec(kind="random", p=0.2),
            params=MarketParams(intro_period=2, intro_ads=(0.9, 0.2), catalog_ads=0.4,
                                min_utility=floor, new_item_liking=liking),
            mode=mode, seed=31)
        trace = run(cfg)
        rng = rng_from(cfg.seed)
        state = init_market(cfg, rng)
        want = []
        for _ in range(cfg.rounds):
            if mode == "fashion" and state.round > 0 and state.round % 2 == 0:
                introduce_items(state, rng)
            want.append(step(state))
        agents, items = trace.event_agents, trace.event_items
        assert len(agents) == len(items) == cfg.rounds
        for r, events in enumerate(want):
            assert bits(agents[r]) == bits(events[:, 0])
            assert bits(items[r]) == bits(events[:, 1])
            assert agents[r].dtype == items[r].dtype == np.int64
        assert trace.events == tuple(
            tuple(engine.ConsumptionEvent(i, a, r + 1) for i, a in events.tolist())
            for r, events in enumerate(want))
        assert bits(trace.consumed) == bits(state.consumed)
        sizes = [len(events) for events in want]
        if floor is not None or mode == "cultural":
            assert min(sizes) < cfg.n_agents  # some agents abstain
        if mode == "cultural":
            assert sizes[-1] == 0

    def test_the_trace_keeps_two_bytes_per_cell(self):
        """tracemalloc on a 2 * 10^4-agent ring (50 + 4 items, 30 rounds):
        the run peaks under 24 bytes per cell and the finished Trace holds
        under 3, its int16 consumed array and the small per-round tables.
        With every round's events kept as arrays it was 38.5 and 8.9; with
        the catalog likings drawn through one (n, m) buffer it peaked at
        32.7, in row blocks at 29.9 (holding 4.0 with an int32 record), and
        with 19-byte cells and the commit in chunks at 22.9 (holding 2.0)."""
        cfg = SimulationConfig(n_agents=20_000, m_initial=50, rounds=30)
        cells = cfg.n_agents * engine._final_item_count(cfg)
        tracemalloc.start()
        try:
            trace = run(cfg)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.consumed.shape == (cfg.n_agents, 54)
        assert peak / cells < 24
        assert held / cells < 3


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

    def test_a_diverged_registry_is_an_internal_error(self, monkeypatch):
        """run_ensembles checks that every run of a config shares its
        item registry; here a batch reports run 1 with other ads."""
        run_batch = engine._run_batch

        def diverging(batch):
            shares, quality, ads, intro = run_batch(batch)
            return shares, quality, ads + np.arange(len(ads))[:, None], intro
        monkeypatch.setattr(engine, "_run_batch", diverging)
        with pytest.raises(AssertionError,
                           match="^item registry diverged between ensemble runs$"):
            run_ensemble(small_config(), runs=2)

    def test_worker_count_never_changes_results(self):
        cfg = small_config(seed=6)
        one = run_ensemble(cfg, runs=8, jobs=1)
        many = run_ensemble(cfg, runs=8, jobs=4)
        assert np.array_equal(one.mean_share, many.mean_share)
        assert np.array_equal(one.std_share, many.std_share)
        assert np.array_equal(one.per_run_final_share, many.per_run_final_share)

    def test_jobs_one_two_three_are_bit_equal(self):
        """Each batch owns its score cache and scratch buffer, so runs on
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

    def test_configs_are_checked_per_point_not_per_run(self, monkeypatch):
        """A point's runs share its config and differ only in the seed
        each one is handed, so no run re-checks a config of its own."""
        cfg, calls = small_config(), []
        check = SimulationConfig.__post_init__

        def counted(config):
            calls.append(config)
            check(config)

        monkeypatch.setattr(SimulationConfig, "__post_init__", counted)
        made = []
        for runs in (2, 40):
            calls.clear()
            engine.run_ensembles([cfg], runs)
            made.append(len(calls))
        assert made[0] == made[1]


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


def batch_of(states):
    """Round-0 single-run states as one MarketBatch, run b the b-th."""
    m = states[0].m
    return MarketBatch(
        [s.params for s in states], [s.graph for s in states], states[0].mode,
        np.concatenate([s.liking[:, :m] for s in states]),
        np.concatenate([s.tolerance for s in states]),
        np.stack([s.advertisement[:m] for s in states]),
        capacity=states[0].liking.shape[1],
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
            batches.append([w[0] for w in batch])
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
        batch, counts = engine._simulate(configs, [c.seed for c in configs])
        assert isinstance(batch, MarketBatch) and batch.runs == 4
        n, m = base.n_agents, counts.shape[2]
        quality = engine._read_out(batch, counts)[1]
        for b, cfg in enumerate(configs):
            lone, lone_counts = engine._simulate([cfg], [cfg.seed])
            assert isinstance(lone, MarketState)
            assert bits(counts[b]) == bits(lone_counts[0])
            rows = slice(b * n, (b + 1) * n)
            # The one (runs, n, m) reduction against each run's own mean.
            assert bits(quality[b]) == bits(batch.liking[rows, :m].mean(axis=0))
            for name in ("liking", "tolerance", "consumed", "nbr_counts"):
                assert bits(getattr(batch, name)[rows]) == bits(getattr(lone, name)), name
            assert bits(batch.graph.degrees[rows]) == bits(lone.graph.degrees)
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
        batch = batch_of(lone)
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
        names = ("liking", "counts", "nbr_counts", "consumed", "scores")
        arrays = [getattr(state, name) for name in names]
        step(state)
        assert all(a is getattr(state, name) for a, name in zip(arrays, names))
        assert state.counts.sum() > 0

    def test_the_constructor_rejects_runs_of_another_shape(self):
        a, b = init_market(small_config(seed=1)), init_market(small_config(seed=2))
        m = a.m
        ok = dict(run_params=[a.params, b.params], graphs=[a.graph, b.graph],
                  mode="fashion", liking=np.concatenate([a.liking[:, :m], b.liking[:, :m]]),
                  tolerance=np.concatenate([a.tolerance, b.tolerance]),
                  advertisement=np.zeros(m))
        for change, match in [
            (dict(graphs=[a.graph, build_ring(7, 2)]), "graph of 6 agents"),
            (dict(graphs=[a.graph]), "one graph per run"),
            (dict(run_params=[a.params, MarketParams(intro_period=3)]), "differ only in"),
            (dict(run_params=[a.params, replace(a.params, min_utility=0.1)]),
             "differ only in"),
            (dict(liking=a.liking[:, :m]), "row count 6"),
            (dict(tolerance=a.tolerance), "tolerance"),
            (dict(advertisement=np.zeros((3, m))), "advertisement"),
            (dict(mode="hybrid"), "mode"),
        ]:
            with pytest.raises(ValueError, match=match):
                MarketBatch(**dict(ok, **change))
        other = replace(a.params, gamma=0.1, beta=9.0, tracked_intro_ad=0.2)
        batch = MarketBatch(**dict(ok, run_params=[a.params, other]))
        assert batch.run_params == (a.params, other) and batch.runs == 2

    def test_uniform_introductions_need_one_generator_per_run(self):
        cfg = small_config(params=MarketParams(intro_period=2, new_item_liking="uniform"))
        batch = batch_of([init_market(cfg), init_market(replace(cfg, seed=8))])
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

    def test_the_default_budget_fits_what_it_was_chosen_for(self):
        """One batch holds the 33 runs of an optimize call on the paper's
        shape (11 advertisement levels x 3 runs of 100 agents, 54 item
        slots), and a 5,000-agent, 50-item cultural run never shares one."""
        paper = SimulationConfig(
            n_agents=100, m_initial=50, rounds=30,
            params=MarketParams(gamma=0.95, beta=10.0, intro_period=6,
                                intro_ads=(0.7,)))
        assert engine._final_item_count(paper) == 54
        work = [(p, i, replace(paper, seed=derive_seed(11, i), params=replace(
                    paper.params, tracked_intro_ad=p / 10)))
                for p in range(11) for i in range(3)]
        assert [len(b) for b in engine._batches(work)] == [33]

        large = SimulationConfig(n_agents=5000, m_initial=50, mode="cultural",
                                 topology=TopologySpec(kind="random", p=0.002))
        work = [(0, i, replace(large, seed=derive_seed(11, i))) for i in range(3)]
        assert [len(b) for b in engine._batches(work)] == [1, 1, 1]
