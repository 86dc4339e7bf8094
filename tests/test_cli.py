"""CLI tests: config resolution, output files, byte-level reproducibility,
manifest round-trips, and exit codes. Everything runs main() in-process."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fashsim.cli import (
    _KEYS,
    TRACE_HEADER,
    ConfigError,
    RunSettings,
    _build_parser,
    _float_cells,
    _fmt,
    _json_dumps,
    _peak_block,
    _trace_rows,
    main,
    parse_config,
)
from fashsim.engine import SimulationConfig, run, run_ensemble
from fashsim.graph import TopologySpec
from fashsim.metrics import peak_stats, rate_series, share_series
from fashsim.model import MarketParams

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


def trace_rows_reference(rounds, item_ids, ads, intros, mean, std, grid_value=None):
    """trace.csv lines formatted one cell at a time with _fmt."""
    rates = np.diff(mean, axis=0, prepend=0.0)
    lead = () if grid_value is None else (_fmt(grid_value),)
    rows = []
    for ri, r in enumerate(rounds):
        for ci, a in enumerate(item_ids):
            if int(intros[ci]) >= int(r):
                continue
            rows.append(",".join(lead + (
                str(int(r)), str(int(a)), _fmt(ads[ci]), str(int(intros[ci])),
                _fmt(mean[ri, ci]), _fmt(std[ri, ci]), _fmt(rates[ri, ci]),
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
        results = [run(cfg), run_ensemble(cfg, 3), *edge_case_results()]
        for obj in results:
            got, want = _peak_block(obj), peak_block_reference(obj)
            assert list(got) == list(want)
            assert json.dumps(got) == json.dumps(want)
        assert len(results[0].item_ids) > 6  # introductions happened
        trace = edge_case_results()[0]
        block = _peak_block(trace)
        assert sorted(block) == ["0", "1", "2", "6", "8"]
        assert block["0"]["peak_share_round"] == 1 and block["0"]["peak_rate_round"] == 1
        assert block["1"]["peak_rate_round"] == 3
        assert block["6"] == {"peak_share": 0.3, "peak_share_round": 4, "final_share": 0.3,
                              "peak_rate": 0.3, "peak_rate_round": 4}

    @pytest.mark.parametrize("grid_value", [None, 0.1 + 0.2, -0.0, 10.0])
    def test_trace_rows_match_per_cell_formatting(self, grid_value):
        values = [-0.0, 5e-324, 1 / 3, 0.1 + 0.2, 1.0, 1e16]
        mean = np.array([values, values[::-1], values[2:] + values[:2]])
        std = mean[::-1] * 0.5
        ads = np.array(values)
        intros = np.array([0, 0, 1, 2, 3, 0])
        item_ids = np.array([0, 1, 2, 3, 4, 7])
        rounds = np.array([1, 2, 3])
        got = _trace_rows(rounds, item_ids, ads, intros, mean, std, grid_value)
        want = trace_rows_text(rounds, item_ids, ads, intros, mean, std, grid_value)
        assert got == want
        lines = got.splitlines()
        assert len(lines) == 3 * 3 + 2 + 1  # item 4 (intro 3) never appears
        assert lines[0].endswith("1,0,-0,0,-0,0.16666666666666666,-0")
        assert "4.9406564584124654e-324" in lines[1]

        # Few distinct values (zeros of both signs, NaNs, infinities) take
        # the format-once branch; all-distinct values the per-cell one.
        few = np.array([[0.0, -0.0, np.nan, np.inf],
                        [-np.inf, 0.0, -0.0, -np.nan],
                        [np.nan, np.inf, 0.0, -0.0],
                        [-0.0, -np.inf, np.inf, 0.0]])
        many = np.arange(16.0).reshape(4, 4) / 3 - 2.0
        assert _float_cells(few.ravel())[1] == "%s"
        assert _float_cells(many.ravel())[1] == "%.17g"
        args = (np.arange(1, 5), np.array([3, 0, 1, 2]), np.array([0.5, -0.0, np.nan, 1e16]),
                np.zeros(4, dtype=np.int64))
        for mean, std in ((few, many), (many, few), (few, few)):
            got = _trace_rows(*args, mean, std, grid_value)
            assert got == trace_rows_text(*args, mean, std, grid_value)
            assert len(got.splitlines()) == 16
        assert "nan" in got and "-inf" in got and ",-0," in got

        # No item trades before the last round: an empty block.
        late = (np.arange(1, 4), np.arange(3), np.full(3, 0.5), np.array([3, 3, 5]))
        assert _trace_rows(*late, mean[:3, :3], std[:3, :3], grid_value) == ""
        assert trace_rows_reference(*late, mean[:3, :3], std[:3, :3], grid_value) == []


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

    def test_rejections_are_jsons(self):
        loop = []
        loop.append(loop)
        for payload in ({"a": np.int64(3)}, [{1, 2}], {"a": {2.5: 1}}, {1: 0, "a": 1},
                        {(1, 2): 0}, loop):
            assert json_outcome(_json_dumps, payload) == json_outcome(reference_dumps, payload)
        assert json_outcome(_json_dumps, {"a": np.int64(3)})[0] is TypeError
        assert json_outcome(_json_dumps, loop)[0] is ValueError  # circular reference


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

    def test_each_command_has_the_same_flags(self):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == {"run", "ensemble", "sweep-adv",
                                    "sweep-beta", "optimize"}
        for cmd in sub.choices.values():
            got = {opt for a in cmd._actions for opt in a.option_strings}
            assert got == FLAGS | {"-h", "--help"}

    def test_readme_lists_every_key(self):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        block = text.split("Accepted keys", 1)[1].split("```")[1]
        assert block.split() == list(_KEYS)


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
        cfg.write_text(open(cfg_file, encoding="utf-8").read() + "out =\n", encoding="utf-8")
        for argv in (["run", "--config", str(cfg)],
                     ["run", "--config", cfg_file, "--out", ""],
                     ["run", "--config", cfg_file, "--out", "  "]):
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith("fashsim: error: out:")
        assert not (tmp_path / "env").exists()


class TestEntryPoint:
    def test_module_invocation_reports_the_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fashsim", "--version"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("fashsim ")
