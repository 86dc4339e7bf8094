"""Metrics tests: Gini against the pairwise definition, correlation against
plain-Python sums, and the share/rate series helpers on real traces."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fashsim.engine import SimulationConfig, run, run_ensemble
from fashsim.graph import TopologySpec
from fashsim.metrics import (
    PeakStats,
    ShareSeries,
    gini,
    peak_stats,
    quality_share_correlation,
    rate_series,
    share_series,
)
from fashsim.model import MarketParams

TOL = 1e-12


def rng_from(seed):
    return np.random.default_rng(np.random.PCG64(seed))


def fashion_config(**kw):
    base = dict(
        n_agents=10, m_initial=5, rounds=8,
        topology=TopologySpec(kind="ring", k=2),
        params=MarketParams(intro_period=3, intro_ads=(0.8,)),
        mode="fashion", seed=3,
    )
    base.update(kw)
    return SimulationConfig(**base)


class TestGini:
    def test_known_values(self):
        assert gini([1.0, 1.0, 1.0, 1.0]) == 0.0
        # one holder owns everything: (m-1)/m
        assert abs(gini([0.0, 0.0, 0.0, 5.0]) - 0.75) <= TOL
        # two equal holders among four: by the pairwise sum, 0.5
        assert abs(gini([0.0, 1.0, 0.0, 1.0]) - 0.5) <= TOL

    def test_matches_pairwise_definition(self):
        rng = rng_from(555)
        for _ in range(120):
            m = int(rng.integers(2, 12))
            x = rng.random(m) * float(rng.integers(1, 100))
            if x.sum() == 0.0:
                continue
            assert abs(gini(x) - oracles.pairwise_gini(x)) <= TOL

    def test_scale_invariance(self):
        x = [0.1, 0.5, 0.2, 0.9]
        assert abs(gini(x) - gini([3000 * v for v in x])) <= TOL

    def test_permutation_invariance(self):
        x = [0.4, 0.1, 0.8, 0.3, 0.3]
        assert abs(gini(x) - gini(list(reversed(x)))) <= TOL

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            gini([])
        with pytest.raises(ValueError):
            gini([0.2, -0.1])
        with pytest.raises(ValueError):
            gini([0.0, 0.0])
        with pytest.raises(ValueError):
            gini(np.zeros((2, 2)))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                gini([bad, 1.0])

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=30
        ).filter(lambda v: sum(v) > 0)
    )
    @example(values=[349525.8995982703] * 5)  # equal values: about -2.7e-17 unclamped
    def test_stays_in_unit_interval(self, values):
        g = gini(values)
        assert 0.0 <= g <= 1.0
        assert g <= (len(values) - 1) / len(values) + TOL


class TestQualityShareCorrelation:
    def test_matches_plain_python_pearson(self):
        rng = rng_from(777)
        for _ in range(120):
            m = int(rng.integers(2, 15))
            q = rng.random(m)
            c = rng.random(m)
            if np.var(q) == 0.0 or np.var(c) == 0.0:
                continue
            want = oracles.plain_pearson(q.tolist(), c.tolist())
            assert abs(quality_share_correlation(q, c) - want) <= TOL

    def test_perfect_agreement_and_disagreement(self):
        q = [0.1, 0.2, 0.3, 0.4]
        assert quality_share_correlation(q, [0.2, 0.4, 0.6, 0.8]) == pytest.approx(1.0)
        assert quality_share_correlation(q, [0.8, 0.6, 0.4, 0.2]) == pytest.approx(-1.0)

    def test_accepts_a_trace(self):
        # short horizon so shares cannot all saturate at 1.0
        trace = run(fashion_config(rounds=4))
        got = quality_share_correlation(trace)
        want = oracles.plain_pearson(
            trace.quality.tolist(), trace.final_shares.tolist()
        )
        assert abs(got - want) <= TOL

    def test_accepts_a_market_state(self):
        from fashsim.engine import init_market, step

        cfg = fashion_config(mode="cultural")
        state = init_market(cfg)
        for _ in range(3):
            step(state)
        got = quality_share_correlation(state)
        q = state.liking[:, : state.m].mean(axis=0)
        c = state.counts[: state.m] / state.n_agents
        assert abs(got - oracles.plain_pearson(q.tolist(), c.tolist())) <= TOL

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            quality_share_correlation([0.5], [0.5])
        with pytest.raises(ValueError):
            quality_share_correlation([0.5, 0.5], [0.1, 0.9])  # zero variance
        with pytest.raises(ValueError):
            quality_share_correlation([0.1, 0.9], [0.5, 0.5])
        with pytest.raises(ValueError):
            quality_share_correlation([0.1, 0.9], [0.5, 0.6, 0.7])
        with pytest.raises(ValueError):
            quality_share_correlation([0.1, 0.9])  # second sequence missing
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                quality_share_correlation([0.1, bad, 0.3], [0.2, 0.5, 0.1])
            with pytest.raises(ValueError):
                quality_share_correlation([0.2, 0.5, 0.1], [0.1, bad, 0.3])


class TestShareSeries:
    def test_catalog_item_spans_every_round(self):
        trace = run(fashion_config())
        s = share_series(trace, 0)
        assert s.rounds == tuple(range(1, 9))
        assert s.shares == tuple(float(v) for v in trace.shares[:, 0])
        assert s.advertisement == trace.advertisements[0]

    def test_introduced_item_skips_pre_entry_rounds(self):
        trace = run(fashion_config())  # first introduction once 3 rounds done
        intro_id = 5
        assert trace.intro_rounds[intro_id] == 3
        s = share_series(trace, intro_id)
        assert s.rounds == tuple(range(4, 9))
        assert len(s.shares) == 5

    def test_works_on_ensembles(self):
        ens = run_ensemble(fashion_config(), runs=4, jobs=1)
        s = share_series(ens, 0)
        assert s.rounds == tuple(range(1, 9))
        assert s.shares == tuple(float(v) for v in ens.mean_share[:, 0])

    def test_unknown_item_rejected(self):
        trace = run(fashion_config())
        with pytest.raises(ValueError):
            share_series(trace, 99)

    def test_item_beyond_the_window_rejected(self):
        cfg = fashion_config(rounds=4)  # item 5 enters after round 3
        trace = run(cfg)
        share_series(trace, 5)  # lives exactly one round
        with pytest.raises(ValueError):
            cfg2 = fashion_config(rounds=3)
            share_series(run(cfg2), 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShareSeries(0, 0.5, (1, 2), (0.1,))
        with pytest.raises(ValueError):
            ShareSeries(0, 0.5, (2, 2), (0.1, 0.2))
        with pytest.raises(ValueError):
            ShareSeries(0, 0.5, (1, 2), (0.3, 0.2))
        with pytest.raises(ValueError):
            ShareSeries(0, 0.5, (1, 2), (0.3, 1.2))
        with pytest.raises(ValueError):
            ShareSeries(0, 0.5, (), ())


class TestRateSeries:
    def test_rates_are_share_differences(self):
        trace = run(fashion_config())
        rounds, rates = rate_series(trace, 0)
        shares = trace.shares[:, 0]
        assert rounds == tuple(range(1, 9))
        assert rates[0] == shares[0]
        for t in range(1, len(shares)):
            assert abs(rates[t] - (shares[t] - shares[t - 1])) <= TOL

    def test_rates_sum_back_to_the_final_share(self):
        trace = run(fashion_config(seed=9))
        for item in (0, 5):
            _, rates = rate_series(trace, item)
            final = share_series(trace, item).shares[-1]
            assert abs(sum(rates) - final) <= TOL

    def test_introduced_item_first_rate_is_its_first_share(self):
        trace = run(fashion_config(seed=10))
        rounds, rates = rate_series(trace, 5)
        assert rounds[0] == 4
        assert rates[0] == trace.shares[3, 5]


class TestPeakStats:
    def test_plain_sequence(self):
        stats = peak_stats([0.0, 0.3, 0.8, 0.8, 0.5])
        assert stats == PeakStats(peak=0.8, peak_round=3, final=0.5)

    def test_first_occurrence_wins_ties(self):
        assert peak_stats([0.5, 0.9, 0.2, 0.9]).peak_round == 2

    def test_explicit_rounds(self):
        stats = peak_stats([0.1, 0.7, 0.4], rounds=[4, 5, 6])
        assert stats.peak_round == 5 and stats.final == 0.4

    def test_share_series_input(self):
        trace = run(fashion_config(seed=4))
        s = share_series(trace, 0)
        stats = peak_stats(s)
        assert stats.final == s.shares[-1]
        assert stats.peak == max(s.shares)
        # cumulative series peak at the last round
        assert stats.peak_round == s.rounds[-1] or stats.peak == s.shares[-1]

    def test_rate_series_finds_interior_peaks(self):
        rounds, rates = (1, 2, 3, 4, 5), (0.1, 0.4, 0.2, 0.1, 0.0)
        stats = peak_stats(rates, rounds=rounds)
        assert stats.peak_round == 2 and stats.peak == 0.4 and stats.final == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            peak_stats([])
        with pytest.raises(ValueError):
            peak_stats([0.1, 0.2], rounds=[1])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                peak_stats([0.1, bad, 0.3])
