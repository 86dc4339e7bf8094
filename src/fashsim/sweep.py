"""Parameter sweeps and the advertisement optimizer.

A sweep evaluates an independent ensemble at every grid value. Grid point
i is seeded by derive_seed(master, i), and each point's runs reseed from
that, so results never depend on grid order or execution interleaving.
All points' runs go through one engine.run_ensembles call, so runs of
neighbouring points of one shape step together in one batch.

Advertisement sweeps vary one item: the first introduced fashion item
(the "tracked" item, id m_initial, entering after intro_period rounds).
Its advertisement takes the grid value; every other introduction keeps
the configured intro_ads schedule.
"""

import math
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from .engine import EnsembleResult, SimulationConfig, derive_seed, run_ensembles

__all__ = [
    "SWEEP_PARAMETERS",
    "OBJECTIVES",
    "SweepSpec",
    "SweepPoint",
    "SweepResult",
    "ObjectivePoint",
    "OptimizeResult",
    "sweep",
    "tracked_item_id",
    "optimize_advertisement",
]

SWEEP_PARAMETERS = ("advertisement", "beta", "gamma", "n_agents")
OBJECTIVES = ("final_share", "integrated_share")


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional grid sweep over a single parameter."""

    base: SimulationConfig
    parameter: str
    grid: Tuple[float, ...]
    runs: int = 100

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(
                "parameter: expected one of %s (got %r)"
                % (", ".join(SWEEP_PARAMETERS), self.parameter)
            )
        if len(self.grid) == 0:
            raise ValueError("grid: need at least one value")
        if self.runs < 1:
            raise ValueError("runs: need at least 1 (got %d)" % self.runs)
        for v in self.grid:
            _check_grid_value(self.parameter, v)


def _check_grid_value(parameter: str, v: float) -> None:
    if parameter == "advertisement" and not 0.0 <= v <= 1.0:
        raise ValueError("grid: advertisement values must be in [0, 1] (got %r)" % (v,))
    if parameter == "beta" and not 0.0 < v < math.inf:
        raise ValueError("grid: beta values must be > 0 and finite (got %r)" % (v,))
    if parameter == "gamma" and not 0.0 <= v <= 1.0:
        raise ValueError("grid: gamma values must be in [0, 1] (got %r)" % (v,))
    if parameter == "n_agents":
        if not math.isfinite(v) or v != int(v) or int(v) < 2:
            raise ValueError("grid: n_agents values must be integers >= 2 (got %r)" % (v,))


def _apply(base: SimulationConfig, parameter: str, value: float,
           seed: int) -> SimulationConfig:
    if parameter == "advertisement":
        params = replace(base.params, tracked_intro_ad=float(value))
        return replace(base, params=params, seed=seed)
    if parameter == "beta":
        params = replace(base.params, beta=float(value))
        return replace(base, params=params, seed=seed)
    if parameter == "gamma":
        params = replace(base.params, gamma=float(value))
        return replace(base, params=params, seed=seed)
    return replace(base, n_agents=int(value), seed=seed)


@dataclass(frozen=True)
class SweepPoint:
    value: float
    seed: int
    ensemble: EnsembleResult


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    points: Tuple[SweepPoint, ...]

    def point(self, value: float) -> SweepPoint:
        for pt in self.points:
            if pt.value == value:
                return pt
        raise ValueError("no sweep point for value %r" % (value,))


def sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Run the ensemble at every grid value, in grid order.

    jobs caps the worker threads, which map over batches of runs (default
    1, no thread pool).
    """
    seeds = [derive_seed(spec.base.seed, idx) for idx in range(len(spec.grid))]
    configs = [_apply(spec.base, spec.parameter, value, seed)
               for value, seed in zip(spec.grid, seeds)]
    ensembles = run_ensembles(configs, spec.runs, jobs=jobs)
    points = tuple(SweepPoint(value=float(value), seed=seed, ensemble=ens)
                   for value, seed, ens in zip(spec.grid, seeds, ensembles))
    return SweepResult(spec=spec, points=points)


def tracked_item_id(config: SimulationConfig) -> int:
    """Id of the first introduced fashion item (the sweep target).

    Items are numbered catalog first, so the first introduction gets id
    m_initial. It only exists if the run lasts past intro_period rounds.
    """
    if config.mode != "fashion":
        raise ValueError("mode: tracked item exists only in fashion mode")
    if config.rounds <= config.params.intro_period:
        raise ValueError(
            "rounds: must exceed intro_period=%d for the tracked item to enter "
            "(got %d)" % (config.params.intro_period, config.rounds)
        )
    return config.m_initial


@dataclass(frozen=True)
class ObjectivePoint:
    advertisement: float
    mean: float
    se: float  # standard error over runs (sample std / sqrt(runs))


@dataclass(frozen=True)
class OptimizeResult:
    objective: str
    a_star: float
    table: Tuple[ObjectivePoint, ...]
    tracked_item: int
    sweep_result: SweepResult


def optimize_advertisement(
    config: SimulationConfig,
    grid: Tuple[float, ...],
    objective: str = "final_share",
    runs: int = 100,
    jobs: int = 1,
) -> OptimizeResult:
    """Pick the tracked item's best advertisement level off a grid.

    objective "final_share" scores each grid value by the tracked item's
    mean final share; "integrated_share" by its share summed over all
    recorded rounds. A* is the pure argmax of the emitted table, ties
    resolved toward the smallest advertisement value. jobs caps the
    worker threads, as in sweep (default 1, no thread pool).
    """
    if objective not in OBJECTIVES:
        raise ValueError(
            "objective: expected one of %s (got %r)" % (", ".join(OBJECTIVES), objective)
        )
    tracked = tracked_item_id(config)
    spec = SweepSpec(base=config, parameter="advertisement",
                     grid=tuple(float(v) for v in grid), runs=runs)
    result = sweep(spec, jobs=jobs)

    table = []
    for pt in result.points:
        ens = pt.ensemble
        if objective == "final_share":
            values = ens.per_run_final_share[:, tracked]
        else:
            values = ens.per_run_integrated_share[:, tracked]
        mean = float(values.mean())
        se = float(values.std(ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0
        table.append(ObjectivePoint(advertisement=pt.value, mean=mean, se=se))

    order = sorted(range(len(table)), key=lambda i: table[i].advertisement)
    best = order[0]
    for i in order[1:]:
        if table[i].mean > table[best].mean:
            best = i
    return OptimizeResult(
        objective=objective,
        a_star=table[best].advertisement,
        table=tuple(table),
        tracked_item=tracked,
        sweep_result=result,
    )
