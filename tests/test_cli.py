"""CLI tests: config resolution, output files, byte-level reproducibility,
manifest round-trips, and exit codes. Everything runs main() in-process."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fashsim
import fashsim.cli as cli
from fashsim.cli import (
    _KEYS,
    TRACE_HEADER,
    ConfigError,
    RunSettings,
    _build_parser,
    _Columns,
    _json_dumps,
    _trace_text,
    main,
    parse_config,
)
from fashsim.engine import SimulationConfig, run, run_ensemble
from fashsim.graph import TopologySpec, build_ring
from fashsim.metrics import peak_stats, peak_table, rate_series, share_series
from fashsim.model import BLENDS, MODES, NEW_ITEM_LIKINGS, MarketBatch, MarketParams
from fashsim.sweep import OBJECTIVES, SWEEP_PARAMETERS, SweepSpec, optimize_advertisement

CFG_TEXT = """\
# small market for fast tests
agents = 8
items = 5
rounds = 6
mode = fashion
topology = ring
k = 2
intro_period = 2   # introductions every other round
intro_ads = 0.7,0.3
runs = 3
seed = 11
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "market.cfg"
    path.write_text(CFG_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("FASHSIM_OUT", raising=False)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestParseConfig:
    def test_defaults(self):
        st = parse_config(None)
        cfg = st.config
        assert (cfg.n_agents, cfg.m_initial, cfg.rounds) == (100, 50, 30)
        assert cfg.mode == "fashion" and cfg.seed == 42
        assert cfg.topology.kind == "ring" and cfg.topology.k == 4
        assert cfg.params.gamma == 0.95 and cfg.params.beta == 1.0
        assert cfg.params.intro_ads == (0.7,)
        assert (st.runs, st.jobs, st.out) == (100, 1, "out")
        assert st.grid is None and st.objective == "final_share"

    def test_file_values_and_comments(self, cfg_file):
        st = parse_config(cfg_file)
        cfg = st.config
        assert (cfg.n_agents, cfg.m_initial, cfg.rounds) == (8, 5, 6)
        assert cfg.params.intro_period == 2
        assert cfg.params.intro_ads == (0.7, 0.3)
        assert cfg.topology.k == 2
        assert st.runs == 3 and cfg.seed == 11

    def test_flags_outrank_the_file(self, cfg_file):
        st = parse_config(cfg_file, {"agents": 20, "seed": "99", "gamma": 0.5})
        assert st.config.n_agents == 20
        assert st.config.seed == 99
        assert st.config.params.gamma == 0.5
        assert st.config.m_initial == 5  # untouched file value survives

    def test_none_overrides_are_ignored(self, cfg_file):
        st = parse_config(cfg_file, {"agents": None})
        assert st.config.n_agents == 8

    def test_unknown_keys_are_rejected(self, tmp_path, cfg_file):
        bad = tmp_path / "bad.cfg"
        bad.write_text("agents = 5\nfancyness = 3\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            parse_config(str(bad))
        assert "bad.cfg:2" in str(err.value)
        with pytest.raises(ConfigError):
            parse_config(cfg_file, {"fancyness": 3})

    def test_malformed_lines_and_values(self, tmp_path):
        nokv = tmp_path / "nokv.cfg"
        nokv.write_text("agents\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_config(str(nokv))
        with pytest.raises(ConfigError):
            parse_config(None, {"agents": "many"})
        with pytest.raises(ConfigError):
            parse_config(None, {"gamma": "2.0"})
        with pytest.raises(ConfigError):
            parse_config(None, {"mode": "baroque"})
        with pytest.raises(ConfigError):
            parse_config(None, {"topology": "star"})
        with pytest.raises(ConfigError):
            parse_config(None, {"intro_ads": ""})
        with pytest.raises(ConfigError):
            parse_config(None, {"runs": 0})
        with pytest.raises(ConfigError):
            parse_config(None, {"jobs": "0"})
        with pytest.raises(ConfigError):
            parse_config(None, {"seed": "-3"})
        with pytest.raises(ConfigError, match="agents: expected an integer"):
            parse_config(None, {"agents": float("inf")})
        with pytest.raises(ConfigError, match="gamma: expected a number"):
            parse_config(None, {"gamma": 10 ** 400})

    def test_optional_and_list_values(self):
        st = parse_config(None, {"min_utility": "none"})
        assert st.config.params.min_utility is None
        st = parse_config(None, {"min_utility": "-0.25"})
        assert st.config.params.min_utility == -0.25
        st = parse_config(None, {"grid": "0.0, 0.5 ,1.0"})
        assert st.grid == (0.0, 0.5, 1.0)
        st = parse_config(None, {"topology": "small-world", "p": "0.3"})
        assert st.config.topology.kind == "small_world"
        assert st.config.topology.p == 0.3

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/no/such/file.cfg")


# The eight enumerated fields: (owner, field, how to build it, choices).
ENUMERATED_FIELDS = [
    pytest.param(field, make, choices, id="%s-%s" % (owner, field))
    for owner, field, make, choices in [
        ("SimulationConfig", "mode", lambda v: SimulationConfig(mode=v), MODES),
        ("MarketBatch", "mode",
         lambda v: MarketBatch([MarketParams()], [build_ring(4, 2)], v,
                               np.zeros((4, 1)), np.ones(4), np.zeros(1)), MODES),
        ("MarketParams", "new_item_liking",
         lambda v: MarketParams(new_item_liking=v), NEW_ITEM_LIKINGS),
        ("MarketParams", "utility_social_blend",
         lambda v: MarketParams(utility_social_blend=v), BLENDS),
        ("TopologySpec", "topology", lambda v: TopologySpec(kind=v),
         ("ring", "random", "small_world")),
        ("SweepSpec", "parameter", lambda v: SweepSpec(SimulationConfig(), v, (1.0,)),
         SWEEP_PARAMETERS),
        ("optimize_advertisement", "objective",
         lambda v: optimize_advertisement(SimulationConfig(), (0.5,), objective=v),
         OBJECTIVES),
        ("RunSettings", "objective",
         lambda v: RunSettings(SimulationConfig(), objective=v), OBJECTIVES),
    ]
]


class TestOneOwnerPerRule:
    """Each rule is checked by the dataclass or function that owns the
    field, so a library call, a flag and a config file share its message."""

    @pytest.mark.parametrize("field, make, choices", ENUMERATED_FIELDS)
    def test_unknown_values_name_the_field_and_its_choices(self, field, make, choices):
        with pytest.raises(ValueError) as err:
            make("bogus")
        assert str(err.value) == "%s: expected one of %s (got 'bogus')" % (
            field, ", ".join(choices))

    @pytest.mark.parametrize("field, value", [
        ("runs", 0), ("jobs", 0), ("runs", True), ("objective", "best")])
    def test_run_settings_check_their_own_fields(self, field, value):
        """A RunSettings built in library code is checked as the CLI's is."""
        with pytest.raises(ValueError, match="^%s: " % field):
            RunSettings(SimulationConfig(), **{field: value})

    @pytest.mark.parametrize("out", ["", "  "])
    def test_run_settings_reject_a_blank_out(self, out):
        with pytest.raises(ValueError, match="^out: expected a directory path"):
            RunSettings(SimulationConfig(), out=out)

    def test_the_cli_reports_the_owners_message(self, capsys):
        assert main(["run", "--topology", "star"]) == 1
        assert capsys.readouterr().err == (
            "fashsim: error: topology: expected one of ring, random, small_world "
            "(got 'star')\n")


class TestRunCommand:
    def test_writes_the_three_files(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "results"
        assert main(["run", "--config", cfg_file, "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "manifest.json").exists()
        assert str(out) in capsys.readouterr().out

    def test_trace_header_and_row_count(self, tmp_path, cfg_file):
        out = tmp_path / "o"
        main(["run", "--config", cfg_file, "--out", str(out)])
        lines = read(out / "trace.csv").decode().splitlines()
        assert lines[0] == ",".join(TRACE_HEADER)
        assert lines[0] == (
            "round,item_id,advertisement,intro_round,"
            "share_mean,share_std,consumption_rate_mean"
        )
        # 6 rounds x 5 catalog items, plus introduced items 5 and 6 living
        # 4 and 2 rounds: 30 + 4 + 2 = 36 data rows.
        assert len(lines) == 1 + 36

    def test_csv_floats_recover_the_exact_shares(self, tmp_path, cfg_file):
        out = tmp_path / "o"
        main(["run", "--config", cfg_file, "--out", str(out)])
        st = parse_config(cfg_file)
        trace = run(st.config)
        lines = read(out / "trace.csv").decode().splitlines()[1:]
        seen = 0
        for line in lines:
            fields = line.split(",")
            r, a = int(fields[0]), int(fields[1])
            assert float(fields[4]) == trace.shares[r - 1, a]
            assert float(fields[5]) == 0.0  # single run: no spread column
            seen += 1
        assert seen == 36

    def test_summary_matches_the_metrics(self, tmp_path, cfg_file):
        from fashsim.metrics import gini, quality_share_correlation

        out = tmp_path / "o"
        main(["run", "--config", cfg_file, "--out", str(out)])
        doc = json.loads(read(out / "summary.json"))
        st = parse_config(cfg_file)
        trace = run(st.config)
        assert doc["command"] == "run" and doc["runs"] == 1
        finals = {str(int(a)): float(v)
                  for a, v in zip(trace.item_ids, trace.final_shares)}
        assert doc["final_shares"] == finals
        assert doc["gini"] == gini(trace.final_shares)
        try:
            want_corr = quality_share_correlation(trace)
        except ValueError:
            want_corr = None
        assert doc["quality_share_correlation"] == want_corr
        assert set(doc["peak_stats"]) == set(finals)

    def test_a_market_where_every_agent_abstains(self, tmp_path, cfg_file):
        """min_utility has no flag: a floor of 5 sits above every score, so
        no one ever consumes and no share inequality is defined."""
        cfg = tmp_path / "floor.cfg"
        cfg.write_text(Path(cfg_file).read_text(encoding="utf-8") + "min_utility = 5\n",
                       encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads(read(out / "summary.json"))
        assert set(doc["final_shares"].values()) == {0.0}
        assert doc["gini"] is None and doc["quality_share_correlation"] is None

    def test_manifest_records_the_resolved_config(self, tmp_path, cfg_file):
        out = tmp_path / "o"
        main(["run", "--config", cfg_file, "--out", str(out), "--seed", "77"])
        doc = json.loads(read(out / "manifest.json"))
        assert doc["tool"] == "fashsim" and doc["command"] == "run"
        assert doc["seed"] == 77
        assert doc["config"]["agents"] == 8
        assert doc["config"]["intro_ads"] == [0.7, 0.3]
        assert doc["backend"] == "python"
        assert "splitmix64" in doc["seed_derivation"]

    def test_rerun_is_byte_identical(self, tmp_path, cfg_file):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg_file, "--out", str(a)])
        main(["run", "--config", cfg_file, "--out", str(b)])
        assert read(a / "trace.csv") == read(b / "trace.csv")
        assert read(a / "summary.json") == read(b / "summary.json")

    def test_manifest_reproduces_the_run(self, tmp_path, cfg_file):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg_file, "--out", str(a)])
        main(["run", "--config", str(a / "manifest.json"), "--out", str(b)])
        assert read(a / "trace.csv") == read(b / "trace.csv")
        assert read(a / "summary.json") == read(b / "summary.json")
        ma = json.loads(read(a / "manifest.json"))
        mb = json.loads(read(b / "manifest.json"))
        ma["config"]["out"] = mb["config"]["out"] = None  # differs by design
        del ma["created_utc"], mb["created_utc"]
        assert ma == mb


class TestEnsembleCommand:
    def test_jobs_do_not_change_the_bytes(self, tmp_path, cfg_file):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["ensemble", "--config", cfg_file, "--out", str(a), "--jobs", "1"])
        main(["ensemble", "--config", cfg_file, "--out", str(b), "--jobs", "8"])
        assert read(a / "trace.csv") == read(b / "trace.csv")
        assert read(a / "summary.json") == read(b / "summary.json")

    def test_jobs_one_and_three_write_the_same_bytes(self, tmp_path):
        path = tmp_path / "wide.cfg"
        path.write_text(CFG_TEXT.replace("agents = 8", "agents = 300")
                        .replace("items = 5", "items = 30")
                        .replace("rounds = 6", "rounds = 20")
                        .replace("runs = 3", "runs = 6")
                        .replace("topology = ring", "topology = random\np = 0.05")
                        + "new_item_liking = uniform\nmin_utility = 0.1\n",
                        encoding="utf-8")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["ensemble", "--config", str(path), "--out", str(a), "--jobs", "1"]) == 0
        assert main(["ensemble", "--config", str(path), "--out", str(b), "--jobs", "3"]) == 0
        assert read(a / "trace.csv") == read(b / "trace.csv")
        assert read(a / "summary.json") == read(b / "summary.json")

    def test_summary_reports_spread_and_run_count(self, tmp_path, cfg_file):
        out = tmp_path / "o"
        main(["ensemble", "--config", cfg_file, "--out", str(out)])
        doc = json.loads(read(out / "summary.json"))
        assert doc["command"] == "ensemble" and doc["runs"] == 3
        assert "quality_share_correlation_std" in doc
        lines = read(out / "trace.csv").decode().splitlines()
        assert lines[0] == ",".join(TRACE_HEADER)
        stds = [float(l.split(",")[5]) for l in lines[1:]]
        assert any(s > 0.0 for s in stds)


class TestSweepAndOptimize:
    def test_sweep_adv_prepends_the_grid_column(self, tmp_path, cfg_file):
        out = tmp_path / "o"
        rc = main([
            "sweep-adv", "--config", cfg_file, "--out", str(out),
            "--grid", "0.0,1.0", "--runs", "2",
        ])
        assert rc == 0
        lines = read(out / "trace.csv").decode().splitlines()
        assert lines[0] == "grid_value," + ",".join(TRACE_HEADER)
        grid_vals = {l.split(",")[0] for l in lines[1:]}
        assert grid_vals == {"0", "1"}
        doc = json.loads(read(out / "summary.json"))
        assert doc["parameter"] == "advertisement"
        assert [p["value"] for p in doc["points"]] == [0.0, 1.0]

    def test_sweep_adv_needs_the_tracked_item(self, tmp_path, cfg_file):
        rc = main([
            "sweep-adv", "--config", cfg_file, "--out", str(tmp_path / "x"),
            "--rounds", "2", "--grid", "0.5", "--runs", "1",
        ])
        assert rc == 1

    def test_sweep_beta_default_grid(self, tmp_path, cfg_file):
        out = tmp_path / "o"
        main(["sweep-beta", "--config", cfg_file, "--out", str(out), "--runs", "1"])
        doc = json.loads(read(out / "manifest.json"))
        assert doc["config"]["grid"] == [1.0, 5.0, 10.0]

    def test_optimize_reports_a_star_from_its_own_table(self, tmp_path, cfg_file):
        out = tmp_path / "o"
        rc = main([
            "optimize", "--config", cfg_file, "--out", str(out),
            "--grid", "0.0,0.5,1.0", "--runs", "2",
        ])
        assert rc == 0
        doc = json.loads(read(out / "summary.json"))
        assert doc["command"] == "optimize"
        table = doc["objective_table"]
        assert [row["advertisement"] for row in table] == [0.0, 0.5, 1.0]
        best = max(table, key=lambda r: (r["mean"], -r["advertisement"]))
        assert doc["a_star"] == best["advertisement"]
        assert doc["tracked_item"] == 5

    def test_optimize_default_grid_is_eleven_points(self, tmp_path, cfg_file):
        out = tmp_path / "o"
        main(["optimize", "--config", cfg_file, "--out", str(out), "--runs", "1"])
        doc = json.loads(read(out / "manifest.json"))
        assert doc["config"]["grid"] == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                                         0.6, 0.7, 0.8, 0.9, 1.0]

    def test_sweep_adv_default_grid_is_eleven_points(self, tmp_path, cfg_file):
        out = tmp_path / "o"
        assert main(["sweep-adv", "--config", cfg_file, "--out", str(out),
                     "--runs", "1"]) == 0
        grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        assert json.loads(read(out / "manifest.json"))["config"]["grid"] == grid
        points = json.loads(read(out / "summary.json"))["points"]
        assert [p["value"] for p in points] == grid

    @pytest.mark.parametrize("command", ["run", "ensemble"])
    def test_run_and_ensemble_ignore_a_configured_grid(self, tmp_path, command):
        """A grid in the config file does not reach run or ensemble: no
        grid_value column, and the manifest records no grid."""
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(CFG_TEXT + "grid = 0.5\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        header = read(out / "trace.csv").decode().split("\n", 1)[0]
        assert header == ",".join(TRACE_HEADER)
        assert json.loads(read(out / "manifest.json"))["config"]["grid"] is None


GOLDEN_BASE = """\
mode = fashion
topology = ring
k = 2
agents = 12
items = 6
rounds = 8
intro_period = 2
intro_batch = 2
intro_ads = 0.7,0.3
catalog_ads = 0.2
seed = 5
"""

# sha256 of (trace.csv, summary.json) per command. Any change to these bytes
# is an output change and must be versioned, not absorbed.
GOLDENS = {
    "run": (
        GOLDEN_BASE + "new_item_liking = uniform\nmin_utility = 0.3\n",
        "617e15350289fcee185477132c86931fe0489f12fca2952e682134574de743fc",
        "e9f1156f6193840b6509aa1ee9ef6346bb6d055da1a8893beb65ae285fad9f74",
    ),
    "ensemble": (
        GOLDEN_BASE + "utility_social_blend = literal_consumption\nruns = 3\n",
        "4d2b85fc022a74e03ee732221cb58093f2c234b0edbadf6c38a55c1069021433",
        "8031dabac0df7c46175685cd856f44ffe6f7105851e5cb7737fb9e8bf5d20e91",
    ),
    "sweep-beta": (
        GOLDEN_BASE + "new_item_liking = uniform\n"
        "utility_social_blend = literal_consumption\n"
        "min_utility = 0.2\nruns = 2\ngrid = 1,10\n",
        "a042cfa920e4c1bb22850af15f7d44ac62521741482d61dfc65b3e6c685cae1a",
        "151b34f3aa5619e27da574b0ab4fe6c8b5c8c38de3b4c2aa5238668ba9d002c0",
    ),
    "optimize": (
        GOLDEN_BASE.replace("ring", "small-world") + "runs = 2\ngrid = 0,0.5,1\n",
        "0c74a441f85841bd2adf6bbcdb08840dc5d39e4a3254778db459838d9d1e7473",
        "46d25c515fc1c0cecbf21a7e7fcb31242dcecbfa24e301297da025daf08225f0",
    ),
}


class TestGoldenBytes:
    @pytest.mark.parametrize("command", sorted(GOLDENS))
    def test_outputs_match_the_recorded_digests(self, tmp_path, command):
        text, trace_digest, summary_digest = GOLDENS[command]
        cfg = tmp_path / "golden.cfg"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert hashlib.sha256(read(out / "trace.csv")).hexdigest() == trace_digest
        assert hashlib.sha256(read(out / "summary.json")).hexdigest() == summary_digest


def peak_block_reference(obj):
    """Item-by-item peaks through the public metrics helpers."""
    block = {}
    for a in obj.item_ids:
        a = int(a)
        try:
            ss = share_series(obj, a)
            rr, rates = rate_series(obj, a)
        except ValueError:
            continue  # no live round, or not a valid share series
        ps = peak_stats(ss)
        pr = peak_stats(rates, rounds=rr)
        block[str(a)] = {
            "peak_share": ps.peak,
            "peak_share_round": ps.peak_round,
            "final_share": ps.final,
            "peak_rate": pr.peak,
            "peak_rate_round": pr.peak_round,
        }
    return block


def float_cell(x) -> str:
    """A trace.csv float cell: 17 significant digits round-trip float64."""
    return format(float(x), ".17g")


def trace_rows_reference(rounds, item_ids, ads, intros, mean, std, grid_value=None):
    """trace.csv lines formatted one cell at a time with float_cell."""
    rates = np.diff(mean, axis=0, prepend=0.0)
    lead = () if grid_value is None else (float_cell(grid_value),)
    rows = []
    for ri, r in enumerate(rounds):
        for ci, a in enumerate(item_ids):
            if int(intros[ci]) >= int(r):
                continue
            rows.append(",".join(lead + (
                str(int(r)), str(int(a)), float_cell(ads[ci]), str(int(intros[ci])),
                float_cell(mean[ri, ci]), float_cell(std[ri, ci]), float_cell(rates[ri, ci]),
            )))
    return rows


def trace_rows_text(*args):
    """trace_rows_reference as one text block, each line newline-terminated."""
    return "".join(line + "\n" for line in trace_rows_reference(*args))


# One column per case; rows are rounds 1..5.
EDGE_INTROS = np.array([0, 2, 2, 5, 0, 0, 3, 1, 0])
EDGE_SHARES = np.array([
    # flat  tie   rise  never >1    down  junk  nan   thirds
    [0.0,   0.0,  0.0,  0.0,  0.1,  0.4,  0.9,  0.0,  0.1 + 0.2],
    [0.0,   0.0,  0.0,  0.0,  0.2,  0.3,  0.1,  0.5,  1 / 3],
    [0.0,   0.25, 0.2,  0.0,  1.5,  0.3,  0.5,  np.nan, 1 / 3],
    [0.0,   0.5,  0.2,  0.0,  1.0,  0.5,  0.3,  0.6,  0.5],
    [0.0,   0.75, 0.5,  0.0,  1.0,  0.5,  0.3,  0.7,  1.0],
])


def edge_case_results():
    """A Trace and an EnsembleResult carrying EDGE_SHARES: flat and tied
    series (peaks go to the first live round), an item live from row 0, one
    that never enters, out-of-range, decreasing and NaN series (skipped),
    and nonzero values before entry (ignored)."""
    cfg = SimulationConfig(n_agents=6, m_initial=9, rounds=5, mode="cultural", seed=3)
    fields = dict(
        rounds=np.arange(1, 6), item_ids=np.arange(9),
        advertisements=np.linspace(0.0, 1.0, 9), intro_rounds=EDGE_INTROS,
    )
    trace = replace(run(cfg), shares=EDGE_SHARES, **fields)
    ens = replace(run_ensemble(cfg, 2), mean_share=EDGE_SHARES, **fields)
    return trace, ens


class TestColumnwiseWriters:
    def test_peak_block_matches_the_metrics_helpers(self):
        cfg = SimulationConfig(n_agents=12, m_initial=6, rounds=8, seed=4)
        # catalog-wide's shape, tiny: most of its 50 items never trade
        wide = SimulationConfig(
            n_agents=20, m_initial=40, rounds=7, seed=1,
            topology=TopologySpec(kind="small_world", k=6, p=0.1),
            params=MarketParams(gamma=0.6, beta=5.0, intro_period=3, intro_batch=5,
                                intro_ads=(0.9, 0.5, 0.2), catalog_ads=0.3,
                                new_item_liking="uniform", min_utility=0.45,
                                utility_social_blend="literal_consumption"))
        results = [run(cfg), run_ensemble(cfg, 3), *edge_case_results(), run(wide)]
        for obj in results:
            block = _Columns(*peak_table(obj))
            assert block.plain  # written through the per-item template
            assert _json_dumps(block) == reference_dumps(peak_block_reference(obj))
        assert len(results[0].item_ids) > 6  # introductions happened
        assert len(results[-1].item_ids) == 50
        assert (results[-1].final_shares == 0.0).sum() > 40
        trace = edge_case_results()[0]
        block = json.loads(_json_dumps(_Columns(*peak_table(trace))))
        assert sorted(block) == ["0", "1", "2", "6", "8"]
        assert block["0"]["peak_share_round"] == 1 and block["0"]["peak_rate_round"] == 1
        assert block["1"]["peak_rate_round"] == 3
        assert block["6"] == {"peak_share": 0.3, "peak_share_round": 4, "final_share": 0.3,
                              "peak_rate": 0.3, "peak_rate_round": 4}


def trace_point(mean, std=None, *, grid_value=None, intros=None, ads=None, item_ids=None):
    """One of _trace_text's points, over rounds 1..R of an (R, M) mean."""
    mean = np.asarray(mean, dtype=np.float64)
    R, M = mean.shape
    return (grid_value, np.arange(1, R + 1),
            np.arange(M) if item_ids is None else np.asarray(item_ids),
            np.linspace(0.0, 1.0, M) if ads is None else np.asarray(ads, dtype=np.float64),
            np.zeros(M, dtype=np.int64) if intros is None else np.asarray(intros),
            mean, mean[::-1] * 0.5 if std is None else np.asarray(std, dtype=np.float64))


def reference_lines(points):
    """trace.csv data lines of points, formatted one cell at a time, each
    with its newline. (Lists, not one text: pytest compares long lists at
    once, where it would diff long texts for minutes.)"""
    return [line for grid_value, rounds, ids, ads, intros, mean, std in points
            for line in trace_rows_text(rounds, ids, ads, intros, mean, std,
                                        grid_value).splitlines(True)]


def written_lines(points):
    """_trace_text's chunks, checked to be whole lines, as lines."""
    chunks = list(_trace_text(points))
    assert all(chunk.endswith("\n") for chunk in chunks)
    return "".join(chunks).splitlines(True)


def sparse_point(shape, traded_std=(), *, mean=(), grid_value=1.0, intros=None):
    """A point of shape (rounds, items) whose floats are all +0.0 but the
    std cells in traded_std, each (round index, item, value), and the mean
    cells in mean, likewise (a mean cell also moves the rate cells of its
    round and the next)."""
    tables = np.zeros((2,) + tuple(shape))
    for table, cells in zip(tables, (mean, traded_std)):
        for r, a, value in cells:
            table[r, a] = value
    return trace_point(tables[0], tables[1], grid_value=grid_value, intros=intros)


@pytest.fixture
def round_by_round(monkeypatch):
    """The points _trace_text writes round by round, as a list that fills
    as it writes them (each point's first round cell)."""
    taken = []

    def spy(ri, ci, traded, round_cells, *args):
        taken.append(round_cells[0])
        return untraded_point(ri, ci, traded, round_cells, *args)
    untraded_point = cli._untraded_point
    monkeypatch.setattr(cli, "_untraded_point", spy)
    return taken


class TestTraceText:
    """_trace_text against the per-cell reference, trace_rows_text."""

    @pytest.mark.parametrize("grid_value", [None, 0.1 + 0.2, -0.0, 10.0])
    def test_matches_per_cell_formatting(self, grid_value):
        values = [-0.0, 5e-324, 1 / 3, 0.1 + 0.2, 1.0, 1e16]
        mean = np.array([values, values[::-1], values[2:] + values[:2]])
        point = trace_point(mean, grid_value=grid_value, ads=values,
                            intros=[0, 0, 1, 2, 3, 0], item_ids=[0, 1, 2, 3, 4, 7])
        lines = written_lines([point])
        assert lines == reference_lines([point])
        assert len(lines) == 3 * 3 + 2 + 1  # item 4 (intro 3) never appears
        assert lines[0].endswith("1,0,-0,0,-0,0.16666666666666666,-0\n")
        assert "4.9406564584124654e-324" in lines[1]

    def test_grid_points_that_share_values(self):
        """Later points reuse the texts of earlier ones, also where a value
        moves between columns, and each point keeps its own grid value."""
        shares = np.array([[0.0, 0.25, 0.5], [0.25, 0.5, 0.75], [0.5, 0.75, 1.0]])
        points = [trace_point(shares, grid_value=g) for g in (1.0, 5.0)]
        points.append(trace_point(shares[::-1], shares, grid_value=0.25))
        points.append(trace_point(shares.T, grid_value=10.0, intros=[0, 1, 0]))
        lines = written_lines(points)
        assert lines == reference_lines(points)
        assert [line.split(",")[0] for line in lines[::9]] == ["1", "5", "0.25", "10"]

    def test_signed_zeros_nan_payloads_and_infinities(self):
        """Cells are told apart by bit pattern: -0.0 keeps its sign, and
        NaNs of either sign and any payload all read nan. The std column
        is not computed on, so it carries signalling NaNs too."""
        quiet = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FFC000000000001,
                          0x7FF8000000000123, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        signalling = np.array([0x7FF0000000000001, 0xFFF4000000000000], dtype=np.uint64)
        n, s = quiet.view(np.float64), signalling.view(np.float64)
        few = np.array([[0.0, -0.0, n[0], np.inf, n[3]],
                        [-np.inf, 0.0, -0.0, n[1], np.inf],
                        [n[2], np.inf, 0.0, -0.0, n[4]],
                        [-0.0, -np.inf, np.inf, 0.0, -0.0]])
        std = few[::-1].copy()
        std[1:3, 1:3] = s
        points = [trace_point(few, std, grid_value=-0.0,
                              ads=[0.5, -0.0, n[2], np.inf, -np.inf]),
                  trace_point(few[:, ::-1], few, grid_value=np.inf)]
        lines = written_lines(points)
        assert lines == reference_lines(points)
        assert len(lines) == 40
        for cell in (",nan,", ",-inf,", ",-0,", ",inf\n", ",nan\n"):
            assert cell in "".join(lines)
        assert lines[0] == "-0,1,0,0.5,0,0,-0,0\n"
        assert lines[-1] == "inf,4,4,1,0,-0,-0,nan\n"

    def test_empty_points_first_in_the_middle_and_last(self):
        """A point where no item trades before the last round writes no
        line, wherever it falls; the points around it are unchanged."""
        shares = np.array([[0.1, 0.2, 0.3], [0.2, 0.4, 0.6], [0.3, 0.6, 0.9]])
        empty = trace_point(shares, grid_value=7.0, intros=[3, 3, 5])
        full = [trace_point(shares, grid_value=1.0), trace_point(shares * 0.5, grid_value=2.0)]
        assert written_lines([empty]) == reference_lines([empty]) == []
        for points in ([empty] + full, full[:1] + [empty] + full[1:], full + [empty],
                       [empty, empty]):
            lines = written_lines(points)
            assert lines == reference_lines(points)
            assert {line.split(",")[0] for line in lines} <= {"1", "2"}
        assert list(_trace_text([])) == []

    def test_an_all_distinct_column(self):
        rng = np.random.default_rng(5)
        mean = rng.random((40, 30))
        points = [trace_point(mean, rng.random((40, 30)) * 1e-300, grid_value=0.5),
                  trace_point(-mean.cumsum(axis=0), grid_value=0.7)]
        assert written_lines(points) == reference_lines(points)

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_a_point_split_over_several_chunks(self, monkeypatch, rows):
        """With a budget of a few rows, the file's lines come in chunks of
        exactly that many, the last one shorter, whatever the points'
        sizes: a chunk takes lines from consecutive points."""
        monkeypatch.setattr(cli, "_CHUNK_ROWS", rows)
        rng = np.random.default_rng(rows)
        shares = np.round(rng.random((6, 5)), 1)
        points = [trace_point(shares, grid_value=1.0, intros=[0, 2, 0, 4, 1]),
                  trace_point(rng.random((6, 5)), grid_value=2.0)]
        chunks = list(_trace_text(points))
        assert "".join(chunks).splitlines(True) == reference_lines(points)
        assert all(chunk.count("\n") == rows for chunk in chunks[:-1])
        assert 0 < chunks[-1].count("\n") <= rows
        assert len(chunks) == -(-53 // rows)  # 23 and 30 lines

    def test_a_chunk_boundary_inside_a_point_and_an_empty_point_within_a_chunk(
            self, monkeypatch):
        """At 5 rows a chunk, the first chunk ends inside the first point
        (8 lines) and the second joins its last 3 lines to the first 2 of
        the third point (9 lines), past an empty point between them; the
        two points share every share value."""
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 5)
        shares = np.array([[0.1, 0.2, 0.3], [0.2, 0.4, 0.6], [0.3, 0.6, 0.9]])
        points = [trace_point(shares, grid_value=1.0, intros=[0, 0, 1]),
                  trace_point(shares, grid_value=7.0, intros=[3, 3, 5]),
                  trace_point(shares, shares[::-1], grid_value=2.0)]
        chunks = list(_trace_text(points))
        assert "".join(chunks).splitlines(True) == reference_lines(points)
        assert [chunk.count("\n") for chunk in chunks] == [5, 5, 5, 2]
        assert [line.split(",")[0] for line in chunks[1].splitlines()] == ["1"] * 3 + ["2"] * 2

    def test_writing_equal_points_holds_one_chunk_at_a_time(self, tmp_path):
        """tracemalloc: K equal grid points of 20 rounds x 3,000 items
        (60,000 lines, 5.2 MB of text each) peak at about the same height
        for K = 1 and K = 6, below one point's text (4.7 and 5.0 MB: a
        point's row indices and one chunk's text and its encoded copy);
        the writer drops a chunk's pieces before the chunk is written and
        its text before the next chunk is built. With the pieces held
        through the write it peaked at 5.2 and 5.4 MB, and holding every
        point's text until the end, at 12.8 MB for one point and 38.7 MB
        for six."""
        rng = np.random.default_rng(9)
        mean = np.round(rng.random((20, 3000)), 2)
        point = trace_point(mean, mean * 0.1, grid_value=3.0)
        header = ("grid_value",) + TRACE_HEADER
        peaks = []
        for k in (1, 6):
            tracemalloc.start()
            try:
                cli._write_csv(str(tmp_path / "trace.csv"), header, _trace_text([point] * k))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        point_bytes = ((tmp_path / "trace.csv").stat().st_size - len(",".join(header)) - 1) / 6
        assert point_bytes > 5_000_000
        assert peaks[1] < 1.1 * peaks[0]
        assert peaks[0] < point_bytes

    # Points where more than half of the lines are untraded (mean, std
    # and rate all +0.0) are written round by round from per-item tails.
    @pytest.mark.parametrize("grid_value", [None, 2.5])
    def test_traded_lines_among_untraded_ones(self, round_by_round, grid_value):
        """Traded lines in the first and the last round, a line whose only
        nonzero cell is -0.0 and one whose only nonzero cell is NaN (both
        traded), and items introduced mid-run, one never live."""
        point = sparse_point((6, 9), [(2, 0, -0.0), (3, 5, np.nan)],
                             mean=[(0, 1, 0.25), (5, 3, 0.5)], grid_value=grid_value,
                             intros=[0, 0, 2, 0, 4, 0, 1, 6, 0])
        lines = written_lines([point])
        assert lines == reference_lines([point])
        assert len(round_by_round) == 1 and len(lines) == 5 + 6 + 7 + 7 + 8 + 8
        lead = "" if grid_value is None else "2.5,"
        ads = ["%.17g" % a for a in point[3]]
        assert lines[0] == lead + "1,0,0,0,0,0,0\n"
        assert lines[1] == lead + "1,1,%s,0,0.25,0,0.25\n" % ads[1]
        assert lead + "2,1,%s,0,0,0,-0.25\n" % ads[1] in lines
        assert lead + "3,0,0,0,0,-0,0\n" in lines
        assert lead + "4,5,%s,0,0,nan,0\n" % ads[5] in lines
        assert lines[-1] == lead + "6,8,1,0,0,0,0\n"
        assert lead + "6,3,%s,0,0.5,0,0.5\n" % ads[3] in lines[-8:]
        assert not any(line.startswith(lead + "%d,4," % r) for line in lines for r in range(1, 5))
        assert not any(",7,%s,6," % ads[7] in line for line in lines)

    def test_the_path_turns_at_more_than_half_untraded(self, round_by_round):
        """Of 10 lines, 6 untraded take the round-by-round path; 5 or 4
        (half, or under) keep the cell-by-cell one. Each point is written
        alone and among the others."""
        def point(traded, grid_value):
            return sparse_point((2, 5), [(k // 5, k % 5, 0.5) for k in range(traded)],
                                grid_value=grid_value)
        points = [point(4, 1.0), point(5, 2.0), point(6, 3.0)]
        for one in points:
            assert written_lines([one]) == reference_lines([one])
        assert round_by_round == ["1,1,"]
        assert written_lines(points) == reference_lines(points)
        assert round_by_round == ["1,1,", "1,1,"]

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_sparse_dense_and_empty_points_share_chunks(self, monkeypatch, round_by_round,
                                                        rows):
        """Chunks run across points of either path, past empty ones and
        through a point with no traded line: every chunk but the last
        holds exactly _CHUNK_ROWS lines."""
        monkeypatch.setattr(cli, "_CHUNK_ROWS", rows)
        rng = np.random.default_rng(rows)
        intros = [0, 2, 0, 4, 1]
        sparse = sparse_point((6, 5), [(0, 1, 0.5), (5, 4, 0.25)], mean=[(2, 0, 0.5)],
                              grid_value=1.0, intros=intros)
        dense = trace_point(np.round(rng.random((6, 5)), 1), grid_value=2.0, intros=intros)
        empty = sparse_point((3, 3), grid_value=7.0, intros=[3, 3, 5])
        points = [sparse, dense, empty, sparse_point((4, 5), [(3, 2, np.nan)], grid_value=3.0),
                  empty, sparse_point((2, 4), grid_value=4.0), dense, sparse]
        chunks = list(_trace_text(points))
        lines = reference_lines(points)
        assert "".join(chunks).splitlines(True) == lines
        assert round_by_round == ["1,1,", "3,1,", "4,1,", "1,1,"]
        assert all(chunk.count("\n") == rows for chunk in chunks[:-1])
        assert 0 < chunks[-1].count("\n") <= rows
        assert len(chunks) == -(-len(lines) // rows)

    def test_writing_sparse_points_holds_one_chunk_at_a_time(self, tmp_path, round_by_round):
        """tracemalloc, as test_writing_equal_points_holds_one_chunk_at_a_time:
        K equal points of 20 rounds x 3,000 items with 1% of their lines
        traded (60,000 lines, 2.2 MB of text each) peak at 3.2 MB for K = 1
        (a point's line indices, diff table and tails while its tails are
        built) and 3.8 MB for K = 6, where the next point's arrays are
        built while up to one chunk's text (0.6 MB here) waits to be
        written. Written cell by cell, the same point peaked at 4.8 MB."""
        rng = np.random.default_rng(9)
        cells = rng.choice(60_000, 600, replace=False)
        point = sparse_point((20, 3000), [(c // 3000, c % 3000, 0.01 * (c % 7)) for c in cells],
                             grid_value=3.0)
        header = ("grid_value",) + TRACE_HEADER
        peaks = []
        for k in (1, 6):
            tracemalloc.start()
            try:
                cli._write_csv(str(tmp_path / "trace.csv"), header, _trace_text([point] * k))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(round_by_round) == 7
        point_bytes = ((tmp_path / "trace.csv").stat().st_size - len(",".join(header)) - 1) / 6
        assert point_bytes > 2_000_000
        assert peaks[1] < 1.25 * peaks[0]
        assert peaks[0] < 1.75 * point_bytes


JSON_KEYS = st.one_of(
    st.text(st.characters(exclude_categories=())),  # surrogates and controls too
    st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "\u00e9\u2028", "\U0001f600", "a b"]))
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(2**64, 2**200), st.integers(-(2**200), -(2**64)),
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16]),
    JSON_KEYS)
# Values json rejects, or accepts only through its own key conversion.
JSON_MISFITS = st.one_of(
    st.integers(-5, 5).map(np.int64), st.frozensets(st.integers(), max_size=2).map(set),
    st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans(), st.none()),
                    JSON_SCALARS, min_size=1, max_size=3),
    st.builds(lambda k: {k: 0, 1: 0}, JSON_KEYS))


def json_values(depth, leaves=JSON_SCALARS):
    """JSON payloads nested up to depth containers, empty ones included."""
    if depth == 0:
        return leaves
    inner = json_values(depth - 1, leaves)
    return st.one_of(leaves, st.lists(inner, max_size=4),
                     st.lists(inner, max_size=4).map(tuple),
                     st.dictionaries(JSON_KEYS, inner, max_size=4))


FINITE_CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([-0.0, 5e-324, 1e16]))
ANY_CELLS = st.one_of(FINITE_CELLS, st.sampled_from([float("nan"), float("inf"),
                                                     float("-inf")]))


@st.composite
def column_blocks(draw):
    """A _Columns block and the dict it stands for, built from the same
    drawn values: named fields (unsorted) or bare values, possibly empty,
    with ids from 0..30 (so "10" sorts before "2"), float columns or int
    round columns, and in about a quarter of the blocks NaN and infinities,
    which take the per-value path."""
    ids = draw(st.lists(st.integers(0, 30), unique=True, max_size=8))
    fields = draw(st.none() | st.lists(st.text("abcdef_", min_size=1, max_size=5),
                                       unique=True, min_size=1, max_size=4))
    floats = ANY_CELLS if draw(st.integers(0, 3)) == 0 else FINITE_CELLS
    columns, arrays = [], []
    for _ in fields or [None]:
        rounds = draw(st.booleans())
        column = draw(st.lists(st.integers(1, 2**31) if rounds else floats,
                               min_size=len(ids), max_size=len(ids)))
        columns.append(column)
        arrays.append(np.array(column, dtype=np.int64 if rounds else np.float64))
    rows = list(zip(*columns))
    if fields is None:
        return (_Columns(np.array(ids, dtype=np.int64), arrays[0]),
                {str(a): row[0] for a, row in zip(ids, rows)})
    return (_Columns(np.array(ids, dtype=np.int64), dict(zip(fields, arrays))),
            {str(a): dict(zip(fields, row)) for a, row in zip(ids, rows)})


@st.composite
def column_payloads(draw):
    """A summary-like payload holding column blocks at two depths, and the
    same payload with each block as its dict; sometimes with a value only
    json.dumps takes ({1: 0}) or rejects (a set)."""
    top, points = draw(column_blocks()), draw(st.lists(column_blocks(), max_size=3))
    misfit = draw(st.sampled_from([None, {1: 0}, {2, 3}]))

    def payload(side):
        return {"final_shares": top[side], "misfit": misfit,
                "points": [{"peak_stats": point[side], "value": 0.5} for point in points]}
    return payload(0), payload(1)


def json_outcome(dumps, payload):
    try:
        return dumps(payload)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def reference_dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(payload=json_values(4))
    def test_matches_json_dumps(self, payload):
        assert _json_dumps(payload) == reference_dumps(payload)

    @settings(max_examples=150, deadline=None)
    @given(payload=json_values(3, st.one_of(JSON_SCALARS, JSON_MISFITS)))
    def test_falls_back_to_json_dumps(self, payload):
        assert json_outcome(_json_dumps, payload) == json_outcome(reference_dumps, payload)

    @settings(max_examples=300, deadline=None)
    @given(payloads=column_payloads())
    def test_column_blocks_are_spelled_as_their_dicts(self, payloads):
        columns, dicts = payloads
        assert json_outcome(_json_dumps, columns) == json_outcome(reference_dumps, dicts)

    @settings(max_examples=100, deadline=None)
    @given(drawn=column_blocks())
    def test_a_block_is_plain_when_every_value_is_finite(self, drawn):
        block, as_dict = drawn
        values = [v for row in as_dict.values()
                  for v in (row.values() if isinstance(row, dict) else [row])]
        assert block.plain == all(math.isfinite(v) for v in values)

    def test_rejections_are_jsons(self):
        loop = []
        loop.append(loop)
        for payload in ({"a": np.int64(3)}, [{1, 2}], {"a": {2.5: 1}}, {1: 0, "a": 1},
                        {(1, 2): 0}, loop):
            assert json_outcome(_json_dumps, payload) == json_outcome(reference_dumps, payload)
        assert json_outcome(_json_dumps, {"a": np.int64(3)})[0] is TypeError
        assert json_outcome(_json_dumps, loop)[0] is ValueError  # circular reference

    @pytest.mark.parametrize("forged", ["\x00", "\x000", "\x001", "\x00\x00", "a\x00",
                                        "\\u0000", '"\x00'])
    @pytest.mark.parametrize("as_key", [False, True])
    def test_a_payload_string_does_not_stand_in_for_a_block(self, forged, as_key):
        """Payload strings or keys that spell what a stand-in for a block
        might, before, between and after plain blocks at two depths."""
        ids = np.array([2, 10, 0])
        finals = ({"2": 0.25, "10": 0.5, "0": 1e-300}, np.array([0.25, 0.5, 1e-300]))
        peaks = ({"2": {"peak_share": 0.5, "peak_share_round": 3},
                  "10": {"peak_share": 0.75, "peak_share_round": 1},
                  "0": {"peak_share": 1.0, "peak_share_round": 2}},
                 {"peak_share_round": np.array([3, 1, 2]),
                  "peak_share": np.array([0.5, 0.75, 1.0])})

        def payload(side):
            top = finals[0] if side == "dicts" else _Columns(ids, finals[1])
            point = peaks[0] if side == "dicts" else _Columns(ids, peaks[1])
            forgery = {forged: 1} if as_key else forged
            return {"a": forgery, "final_shares": top, "m": [forgery],
                    "points": [{"peak_stats": point, "value": forgery}, forgery], "z": forgery}
        assert _Columns(ids, finals[1]).plain and _Columns(ids, peaks[1]).plain
        assert _json_dumps(payload("columns")) == reference_dumps(payload("dicts"))


# Every config key set to a value other than its default.
ALL_KEYS_TEXT = """\
agents = 12
items = 6
rounds = 9
mode = cultural
topology = small-world
k = 2
p = 0.2
gamma = 0.8
beta = 3.5
sigmoid_center = 0.4
intro_period = 2
intro_batch = 2
intro_ads = 0.6, 0.2
catalog_ads = 0.1
new_item_liking = uniform
utility_social_blend = literal_consumption
min_utility = -0.3
runs = 3
seed = 1234
grid = 0.25, 0.5
objective = integrated_share
jobs = 2
out = elsewhere
"""

ALL_KEYS_SETTINGS = RunSettings(
    config=SimulationConfig(
        n_agents=12, m_initial=6, rounds=9, mode="cultural", seed=1234,
        topology=TopologySpec(kind="small_world", k=2, p=0.2),
        params=MarketParams(
            gamma=0.8, beta=3.5, sigmoid_center=0.4, intro_period=2,
            intro_batch=2, intro_ads=(0.6, 0.2), catalog_ads=0.1,
            new_item_liking="uniform",
            utility_social_blend="literal_consumption", min_utility=-0.3,
        ),
    ),
    runs=3, grid=(0.25, 0.5), objective="integrated_share", jobs=2,
    out="elsewhere",
)

FLAGS = {"--config", "--agents", "--items", "--rounds", "--mode", "--topology",
         "--k", "--p", "--gamma", "--beta", "--runs", "--seed", "--grid",
         "--objective", "--jobs", "--out"}


class TestKeyTable:
    def test_every_key_round_trips_through_the_manifest(self, tmp_path):
        want = ALL_KEYS_SETTINGS
        default = parse_config(None)
        leaves = [(want, default), (want.config, default.config),
                  (want.config.topology, default.config.topology),
                  (want.config.params, default.config.params)]
        unchanged = [f.name for got, base in leaves for f in fields(got)
                     if getattr(got, f.name) == getattr(base, f.name)]
        assert unchanged == ["tracked_intro_ad"]  # not a config key

        cfg = tmp_path / "all.cfg"
        cfg.write_text(ALL_KEYS_TEXT, encoding="utf-8")
        assert parse_config(str(cfg)) == want
        out = tmp_path / "o"
        assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 0
        back = parse_config(str(out / "manifest.json"))
        # out and the grid are resolved per command; ensemble uses no grid.
        assert back == replace(want, out=str(out), grid=None)

    def test_one_parser_takes_the_flags_before_or_after_the_command(self, tmp_path):
        parser = _build_parser()
        got = {opt for a in parser._actions for opt in a.option_strings}
        assert got == FLAGS | {"-h", "--help", "--version"}
        command = next(a for a in parser._actions if a.dest == "command")
        assert list(command.choices) == ["run", "ensemble", "sweep-adv",
                                         "sweep-beta", "optimize"]
        after = parser.parse_args(["sweep-beta", "--agents", "8", "--grid", "2,3"])
        before = parser.parse_args(["--agents", "8", "sweep-beta", "--grid", "2,3"])
        assert vars(before) == vars(after)
        assert after.command == "sweep-beta" and after.agents == "8"
        outs = [tmp_path / "after", tmp_path / "before"]
        assert main(["run", "--agents", "8", "--items", "3", "--rounds", "4",
                     "--out", str(outs[0])]) == 0
        assert main(["--agents", "8", "--items", "3", "--rounds", "4",
                     "--out", str(outs[1]), "run"]) == 0
        assert read(outs[0] / "trace.csv") == read(outs[1] / "trace.csv")

    def test_readme_lists_every_key(self):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        block = text.split("Accepted keys", 1)[1].split("```")[1]
        assert block.split() == list(_KEYS)
        sentence = text.split("These keys also have a flag", 1)[1].split(". ", 1)[0]
        flagged = [key for key, (_, _, flag_help) in _KEYS.items() if flag_help is not None]
        assert sentence.split(":", 1)[1].replace("`", "").replace(",", " ").split() == flagged


class TestOutputResolution:
    def test_env_fallback(self, tmp_path, cfg_file, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("FASHSIM_OUT", str(target))
        assert main(["run", "--config", cfg_file]) == 0
        assert (target / "trace.csv").exists()

    def test_flag_beats_env(self, tmp_path, cfg_file, monkeypatch):
        monkeypatch.setenv("FASHSIM_OUT", str(tmp_path / "ignored"))
        chosen = tmp_path / "chosen"
        main(["run", "--config", cfg_file, "--out", str(chosen)])
        assert (chosen / "trace.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_config_out_is_the_last_resort(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            CFG_TEXT + "out = nested/dir\n", encoding="utf-8"
        )
        main(["run", "--config", str(cfg)])
        assert (tmp_path / "nested" / "dir" / "trace.csv").exists()


class TestExitCodes:
    def test_bad_configuration_is_exit_1(self, tmp_path, cfg_file):
        out = str(tmp_path / "o")
        assert main(["run", "--gamma", "2.0", "--out", out]) == 1
        assert main(["run", "--config", "/missing.cfg", "--out", out]) == 1
        assert main(["run", "--seed", "-1", "--out", out]) == 1
        assert main([]) == 1
        assert main(["transmogrify"]) == 1
        assert main(["run", "--frobnicate"]) == 1
        assert main(["run", "--agents", "4", "--k", "4", "--out", out]) == 1

    def test_runtime_failure_is_exit_2(self, tmp_path, cfg_file, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        rc = main([
            "run", "--config", cfg_file, "--out", str(blocker / "sub"),
        ])
        assert rc == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_error_messages_name_the_offender(self, cfg_file, capsys):
        main(["run", "--config", cfg_file, "--gamma", "7"])
        err = capsys.readouterr().err
        assert "gamma" in err

    def test_a_config_that_is_not_utf8_is_exit_1(self, tmp_path, capsys):
        # A bad byte in the first 64 characters, past them in a key=value
        # file, and inside a manifest.
        for raw in (b"\xff agents = 5\n", b"agents = 5\n" + b"#" * 80 + b"\xff\n",
                    b'{"config": {"agents": 5, "mode": "\xff"}}'):
            path = tmp_path / "bad.cfg"
            path.write_bytes(raw)
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("fashsim: error: config: ") and "not UTF-8" in err

    def test_flag_and_file_values_share_one_message(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("agents = x\n", encoding="utf-8")
        assert main(["run", "--agents", "x"]) == 1
        from_flag = capsys.readouterr().err
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == from_flag
        assert from_flag == "fashsim: error: agents: expected an integer (got 'x')\n"

    def test_overflowing_manifest_values_are_exit_1(self, tmp_path, capsys):
        for text, key in (('{"config": {"agents": Infinity}}', "agents"),
                          ('{"config": {"agents": 1e999}}', "agents"),
                          ('{"config": {"gamma": 1%s}}' % ("0" * 400), "gamma")):
            path = tmp_path / "manifest.json"
            path.write_text(text, encoding="utf-8")
            assert main(["run", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 1
            assert capsys.readouterr().err.startswith("fashsim: error: %s:" % key)

    def test_manifest_integers_may_be_whole_floats(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text('{"config": {"agents": 100.0}}', encoding="utf-8")
        agents = parse_config(str(path)).config.n_agents
        assert agents == 100 and type(agents) is int
        for value, got in (("100.5", "100.5"), ("true", "True")):
            path.write_text('{"config": {"agents": %s}}' % value, encoding="utf-8")
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
            assert capsys.readouterr().err == (
                "fashsim: error: agents: expected an integer (got %s)\n" % got)

    def test_malformed_manifests_are_exit_1(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        for text, message in (
                ('{"config": {"agents": 5}', "config: %s is not valid JSON (" % path),
                ('{"tool": "fashsim"}', "config: %s has no 'config' object\n" % path),
                ('{"config": [5]}', "config: %s has no 'config' object\n" % path),
                ('{"config": {"agents": 5, "fancyness": 3}}',
                 "config: unknown key 'fancyness' in %s\n" % path)):
            path.write_text(text, encoding="utf-8")
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
            assert capsys.readouterr().err.startswith("fashsim: error: " + message)
        assert not (tmp_path / "o").exists()

    def test_boolean_numbers_are_exit_1(self, tmp_path, capsys):
        for text, key in (('{"config": {"gamma": true}}', "gamma"),
                          ('{"config": {"p": false}}', "p"),
                          ('{"config": {"min_utility": true}}', "min_utility"),
                          ('{"config": {"intro_ads": [0.5, true]}}', "intro_ads")):
            path = tmp_path / "manifest.json"
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ConfigError, match="%s: expected a number" % key):
                parse_config(str(path))
            assert main(["run", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 1
            assert capsys.readouterr().err.startswith("fashsim: error: %s:" % key)

    def test_an_empty_out_is_exit_1(self, tmp_path, cfg_file, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("FASHSIM_OUT", str(tmp_path / "env"))
        cfg = tmp_path / "empty_out.cfg"
        cfg.write_text(Path(cfg_file).read_text(encoding="utf-8") + "out =\n", encoding="utf-8")
        for argv in (["run", "--config", str(cfg)],
                     ["run", "--config", cfg_file, "--out", ""],
                     ["run", "--config", cfg_file, "--out", "  "]):
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith("fashsim: error: out:")
        assert not (tmp_path / "env").exists()

    def test_a_blank_env_out_is_exit_1(self, tmp_path, cfg_file, capsys, monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        for blank in ("", "  "):
            monkeypatch.setenv("FASHSIM_OUT", blank)
            assert main(["run", "--config", cfg_file]) == 1
            assert capsys.readouterr().err.startswith("fashsim: error: FASHSIM_OUT:")
        assert list(work.iterdir()) == []  # no directory named by the blanks
        assert main(["run", "--config", cfg_file, "--out", str(tmp_path / "o")]) == 0

    def test_rounds_beyond_the_int32_record_are_exit_1(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert main(["run", "--rounds", "2147483648", "--out", out]) == 1
        assert capsys.readouterr().err.startswith("fashsim: error: rounds:")
        assert not (tmp_path / "o").exists()


class TestEntryPoint:
    def test_module_invocation_reports_the_version(self):
        """The subprocess imports the fashsim under test, installed or not:
        its PYTHONPATH starts with the directory that holds the package."""
        src = str(Path(fashsim.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "fashsim", "--version"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("fashsim ")
