"""Sweep and optimizer tests: seeding contract, purity of grid points,
the documented collapse cases, and argmax bookkeeping."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fashsim.engine import SimulationConfig, derive_seed, run_ensemble
from fashsim.graph import TopologySpec
from fashsim.model import MarketParams
from fashsim.sweep import (
    ObjectivePoint,
    SweepSpec,
    optimize_advertisement,
    sweep,
    tracked_item_id,
)


def sweep_config(**kw):
    base = dict(
        n_agents=12, m_initial=6, rounds=8,
        topology=TopologySpec(kind="ring", k=2),
        params=MarketParams(intro_period=3, intro_ads=(0.7,)),
        mode="fashion", seed=19,
    )
    base.update(kw)
    return SimulationConfig(**base)


class TestSweepSpec:
    def test_rejects_bad_fields(self):
        cfg = sweep_config()
        with pytest.raises(ValueError):
            SweepSpec(cfg, "temperature", (0.5,))
        with pytest.raises(ValueError):
            SweepSpec(cfg, "advertisement", ())
        with pytest.raises(ValueError):
            SweepSpec(cfg, "advertisement", (0.5,), runs=0)
        with pytest.raises(ValueError):
            SweepSpec(cfg, "advertisement", (1.2,))
        with pytest.raises(ValueError):
            SweepSpec(cfg, "beta", (0.0,))
        with pytest.raises(ValueError):
            SweepSpec(cfg, "beta", (float("inf"),))
        with pytest.raises(ValueError):
            SweepSpec(cfg, "gamma", (-0.1,))
        with pytest.raises(ValueError):
            SweepSpec(cfg, "n_agents", (2.5,))
        with pytest.raises(ValueError):
            SweepSpec(cfg, "n_agents", (1,))
        with pytest.raises(ValueError):
            SweepSpec(cfg, "n_agents", (float("inf"),))


class TestSweepSeeding:
    def test_points_are_seeded_by_grid_index(self):
        cfg = sweep_config()
        result = sweep(SweepSpec(cfg, "advertisement", (0.2, 0.5, 0.9), runs=2), jobs=1)
        for idx, pt in enumerate(result.points):
            assert pt.seed == derive_seed(cfg.seed, idx)
            assert pt.ensemble.config.seed == pt.seed
            assert pt.ensemble.config.params.tracked_intro_ad == pt.value

    def test_point_equals_a_standalone_ensemble(self):
        cfg = sweep_config()
        result = sweep(SweepSpec(cfg, "advertisement", (0.4,), runs=3), jobs=1)
        pt = result.points[0]
        standalone = run_ensemble(
            replace(
                cfg,
                params=replace(cfg.params, tracked_intro_ad=0.4),
                seed=derive_seed(cfg.seed, 0),
            ),
            runs=3, jobs=1,
        )
        assert np.array_equal(pt.ensemble.mean_share, standalone.mean_share)
        assert np.array_equal(pt.ensemble.std_share, standalone.std_share)

    def test_points_ignore_the_rest_of_the_grid(self):
        cfg = sweep_config()
        wide = sweep(SweepSpec(cfg, "advertisement", (0.1, 0.6, 0.9), runs=2), jobs=1)
        narrow = sweep(SweepSpec(cfg, "advertisement", (0.1, 0.6), runs=2), jobs=1)
        for idx in range(2):
            a = wide.points[idx].ensemble
            b = narrow.points[idx].ensemble
            assert np.array_equal(a.mean_share, b.mean_share)
            assert np.array_equal(a.per_run_final_share, b.per_run_final_share)

    def test_point_lookup_by_value(self):
        result = sweep(SweepSpec(sweep_config(), "beta", (1.0, 5.0), runs=2), jobs=1)
        assert result.point(5.0).ensemble.config.params.beta == 5.0
        with pytest.raises(ValueError):
            result.point(2.0)

    def test_parameter_application(self):
        cfg = sweep_config()
        gamma = sweep(SweepSpec(cfg, "gamma", (0.3,), runs=1), jobs=1)
        assert gamma.points[0].ensemble.config.params.gamma == 0.3
        agents = sweep(SweepSpec(cfg, "n_agents", (8,), runs=1), jobs=1)
        assert agents.points[0].ensemble.config.n_agents == 8
        # untouched fields carry over
        assert agents.points[0].ensemble.config.params.gamma == cfg.params.gamma


class TestTrackedItem:
    def test_id_is_the_first_introduction(self):
        assert tracked_item_id(sweep_config()) == 6

    def test_requires_fashion_and_enough_rounds(self):
        with pytest.raises(ValueError):
            tracked_item_id(sweep_config(mode="cultural"))
        with pytest.raises(ValueError):
            tracked_item_id(sweep_config(rounds=3))


class TestAdvertisementCollapse:
    def test_unadvertised_tracked_item_is_never_chosen(self):
        # With A=0 the tracked item scores gamma*S + 0 + 0 - 0 and S stays
        # 0 until someone consumes it; while agents still hold unconsumed
        # catalog items with positive likings, those always outrank it, so
        # its share is identically zero (rounds < m_initial guarantees
        # nobody runs out of better options).
        cfg = sweep_config(n_agents=10, m_initial=12, rounds=6)
        result = sweep(SweepSpec(cfg, "advertisement", (0.0,), runs=6), jobs=1)
        ens = result.points[0].ensemble
        tracked = tracked_item_id(cfg)
        assert np.all(ens.per_run_final_share[:, tracked] == 0.0)
        assert np.all(ens.mean_share[:, tracked] == 0.0)


class TestOptimizer:
    def test_singleton_grid(self):
        res = optimize_advertisement(sweep_config(), grid=(0.5,), runs=2, jobs=1)
        assert res.a_star == 0.5
        assert len(res.table) == 1
        assert res.tracked_item == 6

    def test_rejects_bad_objective_and_grid(self):
        with pytest.raises(ValueError):
            optimize_advertisement(sweep_config(), grid=(0.5,), objective="sharpe")
        with pytest.raises(ValueError):
            optimize_advertisement(sweep_config(), grid=(), runs=2)
        with pytest.raises(ValueError):
            optimize_advertisement(sweep_config(), grid=(-0.5,), runs=2)

    def test_penalty_disabled_prefers_maximum_advertising(self):
        # beta ~ 0 flattens the sigmoid to 0.5, so the tracked item's net
        # advertising pull on agent i is A*(T_i - 0.5): monotone in A agent
        # by agent. gamma=0 and zero-liking introductions silence the other
        # terms, leaving the objective nondecreasing in A.
        cfg = sweep_config(
            n_agents=30, m_initial=10, rounds=10,
            params=MarketParams(gamma=0.0, beta=1e-9, intro_period=6,
                                intro_ads=(0.7,)),
            seed=23,
        )
        res = optimize_advertisement(cfg, grid=(0.0, 0.5, 1.0), runs=40, jobs=1)
        means = [pt.mean for pt in res.table]
        assert res.a_star == 1.0
        assert means[0] == 0.0  # the A=0 collapse again
        assert means[0] <= means[1] <= means[2]
        assert means[2] > means[1] > 0.0

    def test_all_zero_objective_ties_break_to_smallest_a(self):
        # A floor above the maximum possible utility freezes the market,
        # so every grid value scores exactly 0 and the tie rule decides.
        cfg = sweep_config(
            params=MarketParams(intro_period=3, min_utility=2.5),
        )
        res = optimize_advertisement(cfg, grid=(0.7, 0.2, 1.0), runs=3, jobs=1)
        assert all(pt.mean == 0.0 for pt in res.table)
        assert res.a_star == 0.2

    def test_table_is_reproducible_from_the_sweep_output(self):
        cfg = sweep_config()
        res = optimize_advertisement(cfg, grid=(0.1, 0.9), runs=4, jobs=1)
        for pt, spt in zip(res.table, res.sweep_result.points):
            values = spt.ensemble.per_run_final_share[:, res.tracked_item]
            assert pt.mean == float(values.mean())
            assert pt.se == float(values.std(ddof=1) / math.sqrt(4))
        # and a_star is the pure argmax of the emitted table
        best = min(
            res.table, key=lambda p: (-p.mean, p.advertisement)
        )
        assert res.a_star == best.advertisement

    def test_integrated_objective(self):
        cfg = sweep_config()
        fin = optimize_advertisement(cfg, grid=(0.2, 0.8), runs=4, jobs=1,
                                     objective="final_share")
        integ = optimize_advertisement(cfg, grid=(0.2, 0.8), runs=4, jobs=1,
                                       objective="integrated_share")
        assert integ.objective == "integrated_share"
        for fpt, ipt in zip(fin.table, integ.table):
            # integrating a nonnegative series dominates its last term
            assert ipt.mean >= fpt.mean - 1e-12

    def test_single_run_reports_zero_se(self):
        res = optimize_advertisement(sweep_config(), grid=(0.5,), runs=1, jobs=1)
        assert res.table[0].se == 0.0

    def test_doubling_runs_moves_means_within_noise(self):
        cfg = sweep_config(seed=31)
        small = optimize_advertisement(cfg, grid=(0.3, 0.9), runs=30, jobs=1)
        large = optimize_advertisement(cfg, grid=(0.3, 0.9), runs=60, jobs=1)
        for s, l in zip(small.table, large.table):
            band = 3.0 * max(s.se, l.se, 1e-9)
            assert abs(s.mean - l.mean) <= band
