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

from .engine import EnsembleResult, SimulationConfig, derive_seed, run_ensembles
from .graph import check_choice, check_floats, check_int

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
    """One-dimensional grid sweep over a single parameter. An advertisement
    sweep needs a base config with a tracked item (see tracked_item_id)."""

    base: SimulationConfig
    parameter: str
    grid: Tuple[float, ...]
    runs: int = 100

    def __post_init__(self):
        if not isinstance(self.base, SimulationConfig):
            raise ValueError("base: expected a SimulationConfig (got %r)" % (self.base,))
        check_choice("parameter", self.parameter, SWEEP_PARAMETERS)
        object.__setattr__(self, "grid", check_floats("grid", self.grid))
        if len(self.grid) == 0:
            raise ValueError("grid: need at least one value")
        object.__setattr__(self, "runs", check_int("runs", self.runs))
        if self.runs < 1:
            raise ValueError("runs: need at least 1 (got %d)" % self.runs)
        for v in self.grid:
            # int(2.5) truncates, so _apply alone would accept it.
            if self.parameter == "n_agents" and not (math.isfinite(v) and v == int(v)):
                raise ValueError("grid: n_agents values must be integers (got %r)" % (v,))
            try:
                _apply(self.base, self.parameter, v, self.base.seed)
            except ValueError as exc:
                raise ValueError("grid: %s" % exc) from None
        if self.parameter == "advertisement":
            tracked_item_id(self.base)


def _apply(base: SimulationConfig, parameter: str, value: float,
           seed: int) -> SimulationConfig:
    if parameter == "n_agents":
        return replace(base, n_agents=int(value), seed=seed)
    field = "tracked_intro_ad" if parameter == "advertisement" else parameter
    return replace(base, params=replace(base.params, **{field: value}), seed=seed)


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
    points = tuple(SweepPoint(value=value, seed=seed, ensemble=ens)
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
    resolved toward the smallest advertisement value, then the earliest
    grid position (0.0 and -0.0 tie, and A* keeps the first one's sign).
    jobs caps the worker threads, as in sweep (default 1, no thread pool).
    """
    check_choice("objective", objective, OBJECTIVES)
    tracked = tracked_item_id(config)
    spec = SweepSpec(base=config, parameter="advertisement", grid=grid, runs=runs)
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

    best = max(range(len(table)),
               key=lambda i: (table[i].mean, -table[i].advertisement, -i))
    return OptimizeResult(
        objective=objective,
        a_star=table[best].advertisement,
        table=tuple(table),
        tracked_item=tracked,
        sweep_result=result,
    )
