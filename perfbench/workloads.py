"""The benchmark's workloads: what each one runs and why it was chosen.

One operation is one warm ``fashsim.cli.main([...])`` call on a config
file generated here from the workload seed. The shapes are fixed; only the
simulation seed in the config follows ``--seed``. ``tiny`` shrinks every
shape so the benchmark's own test finishes in seconds; measurements never
use it.
"""

from dataclasses import dataclass
from typing import Dict, Tuple

# Seed whose outputs have a stored reference digest (see REFERENCE_DIGESTS).
DEFAULT_SEED = 1

_GRID_ADV = "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # fashsim subcommand
    why: str              # one line, mirrored in BENCHMARK.json
    shape: Dict[str, str]  # config keys, seed excluded
    tiny: Dict[str, str]   # overrides applied to shape for the self-test

    def settings(self, tiny: bool = False) -> Dict[str, str]:
        values = dict(self.shape)
        if tiny:
            values.update(self.tiny)
        return values

    def config_text(self, seed: int, tiny: bool = False) -> str:
        """The config file the program sees for this workload seed."""
        values = self.settings(tiny)
        values["seed"] = str(seed)
        return "".join("%s = %s\n" % kv for kv in values.items())

    def agent_rounds(self, tiny: bool = False) -> int:
        """Agents x rounds x runs simulated by one operation."""
        s = self.settings(tiny)
        points = len(s["grid"].split(",")) if "grid" in s else 1
        return int(s["agents"]) * int(s["rounds"]) * int(s["runs"]) * points


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="optimize-paper",
        command="optimize",
        why=("The paper's experiment: thousands of small runs, so per-event "
             "commit and per-round fixed costs dominate; single-threaded baseline."),
        shape={
            "mode": "fashion", "topology": "ring", "k": "4",
            "agents": "100", "items": "50", "rounds": "30",
            "gamma": "0.95", "beta": "10",
            "intro_period": "6", "intro_batch": "1", "intro_ads": "0.7",
            "grid": _GRID_ADV, "objective": "final_share",
            "runs": "3", "jobs": "1",
        },
        tiny={"agents": "20", "items": "6", "rounds": "8",
              "intro_period": "3", "grid": "0,0.5,1", "runs": "2"},
    ),
    Workload(
        name="ensemble-large",
        command="ensemble",
        # jobs=1: at jobs=2 on two cores the pool's GIL and scheduler wait
        # made wall_s too noisy to bound, so the thread pool goes unmeasured.
        why=("Large populations: commit, the O(n^2) random-graph build and "
             "decide on big arrays; runs at jobs=1, so the ensemble thread pool goes unmeasured."),
        shape={
            "mode": "cultural", "topology": "random", "p": "0.002",
            "agents": "5000", "items": "50", "rounds": "30",
            "runs": "2", "jobs": "1",
        },
        tiny={"agents": "300", "p": "0.03", "items": "5", "rounds": "5"},
    ),
    Workload(
        name="catalog-wide",
        command="sweep-beta",
        why=("Few agents, many items: decide, the penalty loop, CLI rows and "
             "metrics peaks dominate; covers uniform likings, utility floor, literal blend."),
        shape={
            "mode": "fashion", "topology": "small-world", "k": "6", "p": "0.1",
            "agents": "200", "items": "2000", "rounds": "30",
            "intro_period": "3", "intro_batch": "5",
            "new_item_liking": "uniform",
            "intro_ads": "0.9,0.5,0.2", "catalog_ads": "0.3",
            "gamma": "0.6", "utility_social_blend": "literal_consumption",
            "min_utility": "0.45",
            "grid": "1,5,10", "runs": "1", "jobs": "1",
        },
        tiny={"agents": "20", "items": "40", "rounds": "7"},
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

# sha256 of trace.csv and summary.json for DEFAULT_SEED, recorded from the
# program as it stood when the benchmark was defined. manifest.json is not
# digested: its created_utc field changes on every call.
REFERENCE_DIGESTS: Dict[Tuple[str, bool], Tuple[str, str]] = {
    ("optimize-paper", False): (
        "148fd2e4371b6e26b8815d1d1f5a5d9c63089f7bb784cca335782536f87d3235",
        "578dc8fcf356d19e7a65eaeb81d9d2cdc39c705abe43a217fc5d0bce2a0bdc0c"),
    ("optimize-paper", True): (
        "3cfef5d535e8898efed967eedbad297208e2692398301d5d1089c51fbc1dfedb",
        "d2009fcf6cd2b81cf8e5177f9679bab4dd6c1a40b5e2455bba96e5c52048146e"),
    ("ensemble-large", False): (
        "aac8664adf35f9e9a5b0e224c31ac865e8d1b5f189f9b5b1ba7566169b979610",
        "d092860a49742417cfe91b5fb58b25adfb7bd569c8ac4e75d277e3cbbcd378e0"),
    ("ensemble-large", True): (
        "ad9aee8a6c53815d024c24bf5fc037e62f3ce539e8f81ec738f5936750346b33",
        "3ba65e4a389f4343c1091fe7a82af656f2e0d2854832cfabeb0fa538800c6aee"),
    ("catalog-wide", False): (
        "40a3a81bd298f1bbe69ab32d4563744325217dcb879009e3309fc9f5dfbbdb9f",
        "1f013a8eafbdcac576e0911c2a356b822b02aa411bd5128243efca2a3ad637b9"),
    ("catalog-wide", True): (
        "0369db24601ac3c6f68c173c2b2ae6180297b983e57ccd033d5ee00dd84f9c40",
        "13873ef2de0dd9b77d05550ab3289f759507fa7fc5768454d21cda8f1856ae37"),
}
