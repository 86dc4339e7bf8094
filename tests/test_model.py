"""Formula-level tests: frozen high-precision values, mpmath cross-checks
on random states, and the documented edge cases."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fashsim.graph import SocialGraph, build_random, build_ring, build_small_world
from fashsim.model import (
    MarketBatch,
    MarketParams,
    MarketState,
    market_share,
    marketing_effect,
    opinion,
    penalty,
    quality,
    sigmoid,
    social_pressure,
    utility,
)

# Frozen from a 40-digit mpmath evaluation of the closed forms.
SIGMOID_AT_ONE = 0.62245933120185456464  # 1/(1+e^-0.5): x=1, beta=1, center=0.5
SIGMOID_LOW_TAIL = 0.0066928509242848555594  # 1/(1+e^5): x=0, beta=10, center=0.5
PENALTY_SATURATED = 0.43572153184129819525  # 0.7/(1+e^-0.5): share=1, A=0.7

TOL = 1e-12


def rng_from(seed):
    return np.random.default_rng(np.random.PCG64(seed))


def star_state(gamma=0.95, liking_center=0.6, advertisement=0.0,
               tolerance_center=0.5, mode="cultural", **params):
    """Agent 0 with four neighbors; one item. Components easy to dial in."""
    graph = SocialGraph.from_adjacency(
        {0: [1, 2, 3, 4], 1: [0], 2: [0], 3: [0], 4: [0]}
    )
    liking = np.full((5, 1), liking_center)
    tolerance = np.full(5, tolerance_center)
    ads = np.array([advertisement])
    return MarketState(
        MarketParams(gamma=gamma, **params), graph, mode, liking, tolerance, ads
    )


def random_state(rng, mode="fashion", blend="liking", consume_frac=0.4):
    n = int(rng.integers(2, 9))
    graph = build_random(n, float(rng.random()), rng)
    m = int(rng.integers(1, 7))
    params = MarketParams(
        gamma=float(rng.random()),
        beta=float(rng.uniform(0.2, 20.0)),
        sigmoid_center=float(rng.random()),
        utility_social_blend=blend,
    )
    state = MarketState(
        params, graph, mode,
        liking=rng.random((n, m)),
        tolerance=1.0 - rng.random(n),
        advertisement=rng.random(m),
    )
    for i in range(n):
        for a in range(m):
            if rng.random() < consume_frac:
                state.apply_consumption(i, a, 1 + (i + a) % 5)
    return state


class TestSigmoid:
    def test_midpoint_is_exactly_half(self):
        for beta, center in [(1.0, 0.5), (10.0, 0.2), (0.3, 0.9)]:
            assert sigmoid(center, beta, center) == 0.5

    def test_frozen_values(self):
        assert abs(sigmoid(1.0, 1.0, 0.5) - SIGMOID_AT_ONE) <= TOL
        assert abs(sigmoid(0.0, 10.0, 0.5) - SIGMOID_LOW_TAIL) <= TOL

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            sigmoid(0.5, 0.0, 0.5)
        with pytest.raises(ValueError):
            sigmoid(0.5, -2.0, 0.5)
        with pytest.raises(ValueError):
            sigmoid(0.5, math.inf, 0.5)  # was NaN: inf * 0.0
        with pytest.raises(ValueError):
            penalty(0.5, 0.7, math.inf, 0.5)

    def test_matches_mpmath_on_random_inputs(self):
        rng = rng_from(101)
        for _ in range(150):
            x = float(rng.random())
            beta = float(rng.uniform(1e-3, 30.0))
            center = float(rng.random())
            want = float(oracles.mp_sigmoid(x, beta, center))
            assert abs(sigmoid(x, beta, center) - want) <= TOL

    def test_strictly_increasing_on_the_share_axis(self):
        xs = np.linspace(0.0, 1.0, 41)
        for beta in (0.5, 1.0, 10.0, 30.0):
            ys = [sigmoid(float(x), beta, 0.5) for x in xs]
            assert all(b > a for a, b in zip(ys, ys[1:]))

    def test_symmetry_about_the_center(self):
        rng = rng_from(7)
        for _ in range(100):
            center = float(rng.random())
            d = float(rng.uniform(0.0, 1.0))
            beta = float(rng.uniform(0.1, 20.0))
            total = sigmoid(center + d, beta, center) + sigmoid(center - d, beta, center)
            assert abs(total - 1.0) <= TOL

    def test_saturates_without_overflow(self):
        assert sigmoid(1.0, 5000.0, 0.0) == pytest.approx(1.0)
        low = sigmoid(0.0, 5000.0, 1.0)
        assert 0.0 <= low < 1e-300
        assert math.isfinite(sigmoid(-1e6, 1.0, 0.5))
        assert math.isfinite(sigmoid(1e6, 1.0, 0.5))


class TestPenalty:
    def test_unadvertised_items_never_penalized(self):
        for share in (0.0, 0.3, 1.0):
            assert penalty(share, 0.0, 1.0, 0.5) == 0.0

    def test_midpoint_share_gives_half_the_advertisement(self):
        for a in (0.2, 0.7, 1.0):
            assert abs(penalty(0.5, a, 1.0, 0.5) - 0.5 * a) <= TOL
            assert abs(penalty(0.2, a, 8.0, 0.2) - 0.5 * a) <= TOL

    def test_frozen_value(self):
        assert abs(penalty(1.0, 0.7, 1.0, 0.5) - PENALTY_SATURATED) <= TOL

    def test_matches_mpmath_on_random_inputs(self):
        rng = rng_from(202)
        for _ in range(150):
            share = float(rng.random())
            adv = float(rng.random())
            beta = float(rng.uniform(1e-3, 30.0))
            center = float(rng.random())
            want = float(oracles.mp_penalty(share, adv, beta, center))
            assert abs(penalty(share, adv, beta, center) - want) <= TOL

    def test_nondecreasing_in_share_and_advertisement(self):
        shares = np.sort(rng_from(3).random(50))
        vals = [penalty(float(s), 0.6, 4.0, 0.5) for s in shares]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        ads = np.sort(rng_from(4).random(50))
        vals = [penalty(0.7, float(a), 4.0, 0.5) for a in ads]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_rejects_out_of_range_advertisement(self):
        with pytest.raises(ValueError):
            penalty(0.5, -0.1, 1.0, 0.5)
        with pytest.raises(ValueError):
            penalty(0.5, 1.1, 1.0, 0.5)


class TestMarketingEffect:
    def test_documented_products(self):
        assert marketing_effect(0.0, 0.3) == 0.0
        assert marketing_effect(0.0, 1.0) == 0.0
        assert marketing_effect(0.7, 1.0) == pytest.approx(0.7, abs=TOL)
        assert marketing_effect(0.7, 0.5) == pytest.approx(0.35, abs=TOL)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            marketing_effect(-0.1, 0.5)
        with pytest.raises(ValueError):
            marketing_effect(1.2, 0.5)
        with pytest.raises(ValueError):
            marketing_effect(0.5, 0.0)  # tolerance must be positive
        with pytest.raises(ValueError):
            marketing_effect(0.5, 1.5)

    def test_matches_mpmath_on_random_inputs(self):
        rng = rng_from(303)
        for _ in range(120):
            a = float(rng.random())
            t = 1.0 - float(rng.random())
            want = float(oracles.mp.mpf(a) * oracles.mp.mpf(t))
            assert abs(marketing_effect(a, t) - want) <= TOL


class TestSocialPressureAndOpinion:
    def test_star_with_half_the_neighbors_consumed(self):
        state = star_state()
        state.apply_consumption(1, 0, 1)
        state.apply_consumption(2, 0, 1)
        assert social_pressure(state, 0, 0) == 0.5
        assert abs(opinion(state, 0, 0) - 0.505) <= TOL  # 0.95*0.5 + 0.05*0.6

    def test_no_neighbors_consumed_and_all_consumed(self):
        state = star_state()
        assert social_pressure(state, 0, 0) == 0.0
        for i in (1, 2, 3, 4):
            state.apply_consumption(i, 0, 1)
        assert social_pressure(state, 0, 0) == 1.0

    def test_isolated_agent_feels_no_pressure(self):
        graph = SocialGraph.from_adjacency({0: [], 1: [2], 2: [1]})
        state = MarketState(
            MarketParams(), graph, "cultural",
            liking=np.full((3, 1), 0.4), tolerance=np.full(3, 0.5),
            advertisement=np.zeros(1),
        )
        state.apply_consumption(1, 0, 1)
        assert social_pressure(state, 0, 0) == 0.0
        assert social_pressure(state, 2, 0) == 1.0

    def test_gamma_extremes_collapse_exactly(self):
        lo = star_state(gamma=0.0, liking_center=0.37)
        lo.apply_consumption(1, 0, 1)
        assert opinion(lo, 0, 0) == 0.37
        hi = star_state(gamma=1.0, liking_center=0.37)
        hi.apply_consumption(1, 0, 1)
        assert opinion(hi, 0, 0) == social_pressure(hi, 0, 0) == 0.25

    def test_matches_mpmath_on_random_states(self):
        rng = rng_from(404)
        checked = 0
        while checked < 120:
            state = random_state(rng, mode="cultural")
            for i in range(state.n_agents):
                for a in range(state.m):
                    want = float(oracles.mp_opinion_state(state, i, a))
                    assert abs(opinion(state, i, a) - want) <= TOL
                    checked += 1

    def test_rejects_bad_ids(self):
        state = star_state()
        with pytest.raises(ValueError):
            social_pressure(state, 9, 0)
        with pytest.raises(ValueError):
            opinion(state, 0, 5)


class TestUtility:
    def test_component_arithmetic_from_the_docs(self):
        # gamma=0.95, S=0.5, B=0.6, M=0.35, P=0.2 composes to 0.655.
        got = 0.95 * 0.5 + (1.0 - 0.95) * 0.6 + 0.35 - 0.2
        assert abs(got - 0.655) <= TOL

    def test_star_market_against_mpmath(self):
        # Two of four neighbors consumed (S=0.5), A=0.7, T=0.5 (M=0.35),
        # L=0.6; the penalty follows from the actual share 2/5.
        state = star_state(advertisement=0.7, mode="fashion")
        state.apply_consumption(1, 0, 1)
        state.apply_consumption(2, 0, 1)
        want = float(oracles.mp_utility_state(state, 0, 0))
        assert abs(utility(state, 0, 0) - want) <= TOL
        by_hand = (
            0.95 * 0.5 + 0.05 * 0.6 + 0.35
            - float(oracles.mp_penalty(0.4, 0.7, 1.0, 0.5))
        )
        assert abs(utility(state, 0, 0) - by_hand) <= 1e-9

    def test_gamma_zero_no_ads_reduces_to_liking(self):
        state = star_state(gamma=0.0, liking_center=0.81, mode="fashion")
        state.apply_consumption(1, 0, 1)
        assert utility(state, 0, 0) == 0.81

    def test_all_terms_vanish(self):
        state = star_state(gamma=1.0, mode="fashion")
        assert utility(state, 0, 0) == 0.0

    def test_literal_blend_contributes_zero_before_consumption(self):
        lik = star_state(gamma=0.9, advertisement=0.4, mode="fashion")
        lit = star_state(
            gamma=0.9, advertisement=0.4, mode="fashion",
            utility_social_blend="literal_consumption",
        )
        for s in (lik, lit):
            s.apply_consumption(1, 0, 2)
        want = float(oracles.mp_utility_state(lit, 0, 0))
        assert abs(utility(lit, 0, 0) - want) <= TOL
        # and the two blends differ by exactly the (1-gamma)*L term
        gap = utility(lik, 0, 0) - utility(lit, 0, 0)
        assert abs(gap - (1.0 - 0.9) * 0.6) <= TOL

    def test_literal_blend_counts_own_consumption(self):
        lit = star_state(
            gamma=0.5, advertisement=0.0, mode="fashion",
            utility_social_blend="literal_consumption",
        )
        lit.apply_consumption(0, 0, 1)
        want = float(oracles.mp_utility_state(lit, 0, 0))
        assert abs(utility(lit, 0, 0) - want) <= TOL
        assert utility(lit, 0, 0) == pytest.approx(0.5, abs=TOL)

    def test_can_go_negative_under_saturation(self):
        state = star_state(
            gamma=0.0, liking_center=0.0, advertisement=1.0,
            tolerance_center=0.01, mode="fashion", beta=10.0,
        )
        for i in range(5):
            state.apply_consumption(i, 0, 1)
        assert utility(state, 1, 0) < 0.0

    def test_matches_mpmath_on_random_states(self):
        rng = rng_from(505)
        checked = 0
        while checked < 120:
            blend = "liking" if rng.random() < 0.5 else "literal_consumption"
            state = random_state(rng, mode="fashion", blend=blend)
            for i in range(state.n_agents):
                for a in range(state.m):
                    want = float(oracles.mp_utility_state(state, i, a))
                    assert abs(utility(state, i, a) - want) <= TOL
                    checked += 1


class TestQualityAndShare:
    def test_quality_is_the_mean_liking(self):
        graph = build_ring(3, 2)
        state = MarketState(
            MarketParams(), graph, "cultural",
            liking=np.array([[0.2, 0.0, 1.0], [0.4, 0.0, 1.0], [0.6, 0.0, 1.0]]),
            tolerance=np.full(3, 0.5),
            advertisement=np.zeros(3),
        )
        assert abs(quality(state, 0) - 0.4) <= TOL
        assert quality(state, 1) == 0.0
        assert quality(state, 2) == 1.0

    def test_market_share_counts(self):
        graph = build_ring(30, 2)
        state = MarketState(
            MarketParams(), graph, "fashion",
            liking=np.full((30, 1), 0.5), tolerance=np.full(30, 0.5),
            advertisement=np.zeros(1),
        )
        assert market_share(state, 0) == 0.0
        for i in range(15):
            state.apply_consumption(i, 0, 1)
        assert market_share(state, 0) == 0.5
        for i in range(15, 30):
            state.apply_consumption(i, 0, 1)
        assert market_share(state, 0) == 1.0

    def test_share_times_n_recovers_the_count(self):
        # count/n is one float division, so share*n rounds back to the
        # count exactly after rounding to the nearest integer.
        rng = rng_from(11)
        for _ in range(200):
            n = int(rng.integers(2, 200))
            count = int(rng.integers(0, n + 1))
            share = count / n
            assert round(share * n) == count


class TestStateContainers:
    def test_params_validation(self):
        for bad in (
            dict(gamma=-0.1), dict(gamma=1.1), dict(beta=0.0), dict(beta=-1.0),
            dict(beta=float("inf")),
            dict(sigmoid_center=2.0), dict(intro_period=0), dict(intro_batch=0),
            dict(intro_ads=()), dict(intro_ads=(0.5, 1.3)), dict(catalog_ads=-0.2),
            dict(tracked_intro_ad=1.5), dict(new_item_liking="never"),
            dict(utility_social_blend="both"), dict(min_utility=float("nan")),
        ):
            with pytest.raises(ValueError):
                MarketParams(**bad)
        MarketParams(min_utility=-3.0)  # negative floors are meaningful

    def test_state_validation(self):
        graph = build_ring(4, 2)
        ok = dict(
            liking=np.full((4, 2), 0.5), tolerance=np.full(4, 0.5),
            advertisement=np.zeros(2),
        )
        MarketState(MarketParams(), graph, "fashion", **ok)
        bad_cases = [
            dict(ok, liking=np.full((3, 2), 0.5)),
            dict(ok, liking=np.full((4, 2), 1.5)),
            dict(ok, tolerance=np.full(3, 0.5)),
            dict(ok, tolerance=np.full(4, 0.0)),
            dict(ok, advertisement=np.zeros(3)),
            dict(ok, advertisement=np.full(2, -0.1)),
        ]
        for kwargs in bad_cases:
            with pytest.raises(ValueError):
                MarketState(MarketParams(), graph, "fashion", **kwargs)
        with pytest.raises(ValueError):
            MarketState(MarketParams(), graph, "neither", **ok)
        with pytest.raises(ValueError, match=r"^liking: expected a 2-d \(agents x items\) array$"):
            MarketState(MarketParams(), graph, "fashion", **dict(ok, liking=np.full(4, 0.5)))

    @pytest.mark.parametrize("field", ["liking", "tolerance", "advertisement"])
    def test_nan_is_out_of_range(self, field):
        """A NaN fails every comparison, so it must fail the range check
        rather than slip past a test for values below or above it; in a
        lone state and in a batch of two runs."""
        graph = build_ring(4, 2)
        ok = dict(liking=np.full((4, 2), 0.5), tolerance=np.full(4, 0.5),
                  advertisement=np.zeros(2))
        bad = ok[field].copy()
        bad.flat[1] = np.nan
        with pytest.raises(ValueError, match=field):
            MarketState(MarketParams(), graph, "fashion", **dict(ok, **{field: bad}))
        two = {k: np.concatenate([v, v]) if k != "advertisement" else v
               for k, v in dict(ok, **{field: bad}).items()}
        with pytest.raises(ValueError, match=field):
            MarketBatch([MarketParams()] * 2, [graph, graph], "fashion", **two)

    def test_double_consumption_rejected(self):
        state = star_state()
        state.apply_consumption(0, 0, 1)
        with pytest.raises(ValueError):
            state.apply_consumption(0, 0, 2)

    def test_round_labels_fit_the_record(self):
        """consumed holds each round label as int32, and 0 means not
        consumed, so labels outside [1, 2^31) are rejected unwritten."""
        state = star_state()
        for bad in (0, -1, 2**31):
            with pytest.raises(ValueError, match="round_no"):
                state.apply_consumption(0, 0, bad)
        assert not state.consumed.any() and state.counts[0] == 0
        state.apply_consumption(0, 0, 2**31 - 1)
        assert state.agent(0).consumed == {0: 2**31 - 1}

    def test_caches_stay_consistent_with_the_matrix(self):
        rng = rng_from(17)
        state = random_state(rng, consume_frac=0.5)
        g = state.graph
        for a in range(state.m):
            assert state.counts[a] == np.count_nonzero(state.consumed[:, a])
            for i in range(state.n_agents):
                nbrs = g.neighbor_array(i)
                want = np.count_nonzero(state.consumed[nbrs, a])
                assert state.nbr_counts[i, a] == want

    def test_agent_and_item_snapshots(self):
        state = star_state(advertisement=0.3, mode="fashion")
        state.apply_consumption(0, 0, 4)
        agent = state.agent(0)
        assert agent.id == 0
        assert agent.tolerance == 0.5
        assert agent.liking == {0: 0.6}
        assert agent.consumed == {0: 4}
        item = state.item(0)
        assert (item.id, item.advertisement, item.intro_round) == (0, 0.3, 0)
        assert item.consumption_count == 1
        assert len(state.agents) == 5 and len(state.items) == 1
        assert state.has_consumed(0, 0) and not state.has_consumed(1, 0)
        with pytest.raises(ValueError):
            state.agent(5)
        with pytest.raises(ValueError):
            state.item(1)

    @pytest.mark.parametrize("fn, args", [
        (social_pressure, (1.5, 0)),
        (opinion, (0, 0.5)),
        (utility, (1.9, 0)),
        (quality, (0.7,)),
        (market_share, (0.0,)),
        (MarketState.agent, (2.5,)),
        (MarketState.item, ("0",)),
        (MarketState.has_consumed, (1.5, 0)),
        (MarketState.apply_consumption, (np.float64(2.0), 0, 1)),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_ids_must_be_integers(self, fn, args):
        """An id that is not an int or a NumPy integer is rejected, not
        truncated to a neighbouring agent or item."""
        state = star_state(mode="fashion")
        with pytest.raises(ValueError, match="id"):
            fn(state, *args)
        fn(state, *(np.int64(int(x)) for x in args))

    def test_append_items_extends_the_market(self):
        state = star_state(mode="fashion")
        state.round = 6
        ids = state.append_items([0.9], np.zeros((5, 1)), intro_round=6)
        assert ids == (1,)
        assert state.m == 2 and state.m_initial == 1
        assert state.item(1).advertisement == 0.9
        assert state.item(1).intro_round == 6
        assert quality(state, 1) == 0.0
        # growth beyond the initial capacity keeps old columns intact
        for r in range(6):
            state.append_items([0.1], np.full((5, 1), 0.2), intro_round=7 + r)
        assert state.m == 8
        assert state.item(1).advertisement == 0.9
        assert state.liking[0, 0] == 0.6

    def test_append_items_validates_input(self):
        state = star_state(mode="fashion")
        with pytest.raises(ValueError):
            state.append_items([1.4], np.zeros((5, 1)), intro_round=1)
        with pytest.raises(ValueError):
            state.append_items([0.5], np.full((5, 1), 2.0), intro_round=1)
        with pytest.raises(ValueError):
            state.append_items([0.5], np.zeros((4, 1)), intro_round=1)

    def test_append_items_rejects_nan_likings(self):
        state = star_state(mode="fashion")
        likings = np.zeros((5, 1))
        likings[2, 0] = np.nan
        with pytest.raises(ValueError, match="likings"):
            state.append_items([0.5], likings, intro_round=1)
        assert state.m == 1

    def test_the_union_graph_is_built_in_place(self):
        """The batch's graph is the disjoint union of its runs' graphs, and
        building it holds less than one targets array beside the batch
        (tracemalloc, three runs of 5,000 agents: 0.24 MB against 0.48 MB
        of targets). Shifting a copy of every run's targets and then
        concatenating the copies took about 1.75 targets arrays; a lone
        n = 10^5 ring market's transient fell from 5.3 to 1.5 MiB, against
        3.1 MiB of targets."""
        n, runs, m = 5000, 3, 4
        graphs = [build_ring(n, 4), build_small_world(n, 6, 0.1, rng_from(1)), build_ring(n, 2)]
        rng = rng_from(2)
        liking, tolerance = rng.random((runs * n, m)), 1.0 - rng.random(runs * n)
        ads = rng.random(m)
        tracemalloc.start()
        try:
            batch = MarketBatch([MarketParams()] * runs, graphs, "fashion", liking, tolerance, ads)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        union = batch.graph
        assert peak - held < union.targets.nbytes
        for b, g in enumerate(graphs):
            for i in (0, 1, n // 2, n - 1):
                assert np.array_equal(union.neighbor_array(b * n + i), g.neighbor_array(i) + b * n)
        assert union.offsets[-1] == len(union.targets) == sum(len(g.targets) for g in graphs)

    def test_the_degree_column_is_built_in_one_temporary(self):
        """A lone n = 10^5 ring market's constructor peaks less than one
        float64 column above what it holds at the end (tracemalloc: 0 MiB,
        the degrees' one int64 temporary going before the cell arrays are
        allocated). Building max(deg, 1) as an int64 maximum and then a
        float64 copy, with the degrees still bound, left 1.53 MiB."""
        n = 100_000
        graph = build_ring(n, 4)
        liking, tolerance, ads = np.zeros((n, 1)), np.ones(n), np.zeros(1)
        tracemalloc.start()
        try:
            state = MarketState(MarketParams(), graph, "fashion", liking, tolerance, ads)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < 8 * n
        assert state._denom.dtype == np.float64 and np.all(state._denom == 4.0)
        assert state.nbr_counts.dtype == np.uint8


BOUNDED_FUNCS = (social_pressure, opinion, quality, market_share)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_bounded_quantities_stay_in_unit_interval(seed):
    state = random_state(rng_from(seed))
    for a in range(state.m):
        assert 0.0 <= quality(state, a) <= 1.0
        assert 0.0 <= market_share(state, a) <= 1.0
        for i in range(state.n_agents):
            assert 0.0 <= social_pressure(state, i, a) <= 1.0
            assert 0.0 <= opinion(state, i, a) <= 1.0
            t = float(state.tolerance[i])
            adv = float(state.advertisement[a])
            assert 0.0 <= marketing_effect(adv, t) <= 1.0
