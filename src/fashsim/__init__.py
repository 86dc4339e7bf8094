"""fashsim: agent-based cultural/fashion market simulator.

Agents on a fixed social graph consume items they rank by a blend of
social pressure, personal liking, advertising pull, and a saturation
penalty. The package provides single runs, deterministic ensembles,
parameter sweeps, and a grid optimizer for one item's advertisement
level, plus a command line frontend.
"""

from .engine import (
    DEFAULT_SEED,
    ConsumptionEvent,
    EnsembleResult,
    SimulationConfig,
    Trace,
    derive_seed,
    init_market,
    introduce_items,
    run,
    run_ensemble,
    step,
)
from .graph import SocialGraph, TopologySpec, build_random, build_ring, build_small_world, neighbors
from .kernel import BACKEND
from .metrics import (
    PeakStats,
    ShareSeries,
    gini,
    peak_stats,
    quality_share_correlation,
    rate_series,
    share_series,
)
from .model import (
    Agent,
    Item,
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
from .sweep import (
    OptimizeResult,
    SweepResult,
    SweepSpec,
    optimize_advertisement,
    sweep,
    tracked_item_id,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BACKEND",
    "DEFAULT_SEED",
    "Agent",
    "ConsumptionEvent",
    "EnsembleResult",
    "Item",
    "MarketParams",
    "MarketState",
    "OptimizeResult",
    "PeakStats",
    "ShareSeries",
    "SimulationConfig",
    "SocialGraph",
    "SweepResult",
    "SweepSpec",
    "TopologySpec",
    "Trace",
    "build_random",
    "build_ring",
    "build_small_world",
    "derive_seed",
    "gini",
    "init_market",
    "introduce_items",
    "market_share",
    "marketing_effect",
    "neighbors",
    "opinion",
    "optimize_advertisement",
    "peak_stats",
    "penalty",
    "quality",
    "quality_share_correlation",
    "rate_series",
    "run",
    "run_ensemble",
    "share_series",
    "sigmoid",
    "social_pressure",
    "step",
    "sweep",
    "tracked_item_id",
    "utility",
]
