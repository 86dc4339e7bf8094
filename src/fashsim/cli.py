"""Command line frontend.

Subcommands: run, ensemble, sweep-adv, sweep-beta, optimize. Settings come
from (lowest to highest precedence) built-in defaults, a flat key=value
config file (--config; '#' starts a comment), and command line flags.
--config also accepts a previously written manifest.json, which makes any
past invocation reproducible from its manifest alone. One table, _KEYS,
lists every key with its RunSettings field, parser and flag help; a key
not given keeps the default of the dataclass that owns its field.

Every command writes three files into the output directory (--out, else
the FASHSIM_OUT environment variable, else "out"):
  trace.csv     per-round, per-item trajectories
  summary.json  final shares, inequality, quality/share correlation, peaks
  manifest.json the fully resolved configuration, seed, version, timestamp

trace.csv for run/ensemble carries the columns
  round,item_id,advertisement,intro_round,share_mean,share_std,consumption_rate_mean
and sweep/optimize prepend a grid_value column. Floats are serialized with
17 significant digits ('.17g', which round-trips every float64), so
identical invocations produce identical bytes. summary.json and
manifest.json are json.dumps(payload, indent=2, sort_keys=True) and a
newline.

Exit codes: 0 success, 1 invalid configuration or arguments, 2 runtime
failure (e.g. unwritable output directory).
"""

import argparse
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import partial, reduce
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, kernel
from .engine import (
    EnsembleResult,
    SimulationConfig,
    Trace,
    run,
    run_ensemble,
)
from .graph import TopologySpec
from .metrics import gini, quality_share_correlation
from .model import BLENDS, MODES, NEW_ITEM_LIKINGS, MarketParams
from .sweep import (
    OBJECTIVES,
    SweepSpec,
    optimize_advertisement,
    sweep,
    tracked_item_id,
)

__all__ = ["main", "parse_config", "ConfigError", "RunSettings"]

TRACE_HEADER = ("round", "item_id", "advertisement", "intro_round",
                "share_mean", "share_std", "consumption_rate_mean")

_TOPOLOGY_ALIASES = {
    "ring": "ring",
    "random": "random",
    "small-world": "small_world",
    "small_world": "small_world",
}


class ConfigError(ValueError):
    """Bad key, bad value, or malformed config input."""


@dataclass(frozen=True)
class RunSettings:
    """Fully resolved invocation: simulation config plus CLI-level knobs."""

    config: SimulationConfig
    runs: int = 100
    grid: Optional[Tuple[float, ...]] = None
    objective: str = "final_share"
    jobs: int = 1
    out: str = "out"


_DEFAULT_GRID_ADV = tuple(round(v * 0.1, 10) for v in range(11))
_DEFAULT_GRID_BETA = (1.0, 5.0, 10.0)


def _parse_int(key: str, raw) -> int:
    try:
        if isinstance(raw, bool):
            raise ValueError
        if isinstance(raw, int):
            return raw
        if isinstance(raw, float):
            if raw != int(raw):
                raise ValueError
            return int(raw)
        return int(str(raw).strip(), 10)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("%s: expected an integer (got %r)" % (key, raw)) from None


def _parse_float(key: str, raw) -> float:
    try:
        if isinstance(raw, bool):  # a JSON true/false is not a number
            raise ValueError
        v = float(raw if not isinstance(raw, str) else raw.strip())
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("%s: expected a number (got %r)" % (key, raw)) from None
    if not math.isfinite(v):
        raise ConfigError("%s: must be finite (got %r)" % (key, raw))
    return v


def _parse_float_list(key: str, raw) -> Tuple[float, ...]:
    if isinstance(raw, (list, tuple)):
        return tuple(_parse_float(key, v) for v in raw)
    parts = [p.strip() for p in str(raw).split(",") if p.strip() != ""]
    if not parts:
        raise ConfigError("%s: expected a comma separated list of numbers" % key)
    return tuple(_parse_float(key, p) for p in parts)


def _parse_choice(key: str, raw, choices: Sequence[str]) -> str:
    v = str(raw).strip()
    if v not in choices:
        raise ConfigError(
            "%s: expected one of %s (got %r)" % (key, ", ".join(choices), raw)
        )
    return v


def _parse_optional_float(key: str, raw) -> Optional[float]:
    if isinstance(raw, str) and raw.strip().lower() in ("none", ""):
        return None
    return _parse_float(key, raw)


def _parse_topology(key: str, raw) -> str:
    v = str(raw).strip()
    if v not in _TOPOLOGY_ALIASES:
        raise ConfigError(
            "%s: expected ring, random, or small-world (got %r)" % (key, v)
        )
    return _TOPOLOGY_ALIASES[v]


def _parse_path(key: str, raw) -> str:
    v = str(raw)
    if not v.strip():
        raise ConfigError("%s: expected a directory path (got %r)" % (key, raw))
    return v


# Every config key, in the order values are parsed: its field in RunSettings
# as a dotted path, its parser, and its flag help (None: no flag, so the key
# is set only by a config file or manifest). A key not given keeps the
# default of the dataclass that owns its field.
_KEYS = {
    "agents": ("config.n_agents", _parse_int, "number of agents"),
    "items": ("config.m_initial", _parse_int, "initial catalog size"),
    "rounds": ("config.rounds", _parse_int, "rounds per run"),
    "mode": ("config.mode", partial(_parse_choice, choices=MODES),
             "cultural or fashion"),
    "topology": ("config.topology.kind", _parse_topology,
                 "ring, random, or small-world"),
    "k": ("config.topology.k", _parse_int, "ring/small-world degree (even)"),
    "p": ("config.topology.p", _parse_float, "edge or rewiring probability"),
    "gamma": ("config.params.gamma", _parse_float, "social pressure weight"),
    "beta": ("config.params.beta", _parse_float, "penalty sigmoid steepness"),
    "sigmoid_center": ("config.params.sigmoid_center", _parse_float, None),
    "intro_period": ("config.params.intro_period", _parse_int, None),
    "intro_batch": ("config.params.intro_batch", _parse_int, None),
    "intro_ads": ("config.params.intro_ads", _parse_float_list, None),
    "catalog_ads": ("config.params.catalog_ads", _parse_float, None),
    "new_item_liking": ("config.params.new_item_liking",
                        partial(_parse_choice, choices=NEW_ITEM_LIKINGS), None),
    "utility_social_blend": ("config.params.utility_social_blend",
                             partial(_parse_choice, choices=BLENDS), None),
    "min_utility": ("config.params.min_utility", _parse_optional_float, None),
    "runs": ("runs", _parse_int, "runs per ensemble"),
    "seed": ("config.seed", _parse_int, "master seed (64-bit)"),
    "grid": ("grid", _parse_float_list, "comma separated grid values"),
    "objective": ("objective", partial(_parse_choice, choices=OBJECTIVES),
                  "optimize target: final_share or integrated_share"),
    "jobs": ("jobs", _parse_int, "worker thread cap"),
    "out": ("out", _parse_path, "output directory (env FASHSIM_OUT as fallback)"),
}


def _read_kv_file(path: str) -> Dict[str, object]:
    """Parse a flat key=value file; '#' comments and blank lines ignored."""
    values: Dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(
                    "%s:%d: expected key=value (got %r)" % (path, lineno, line.rstrip())
                )
            key, _, value = stripped.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _KEYS:
                raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
            values[key] = value
    return values


def _read_config_file(path: str) -> Dict[str, object]:
    """Read either a flat key=value file or a manifest.json."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            head = fh.read(64)
        if not head.lstrip().startswith("{"):
            return _read_kv_file(path)
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("config: cannot read %s (%s)" % (path, exc)) from None
    except UnicodeDecodeError as exc:
        raise ConfigError("config: %s is not UTF-8 text (%s)" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config: %s is not valid JSON (%s)" % (path, exc)) from None
    cfg = doc.get("config")
    if not isinstance(cfg, dict):
        raise ConfigError("config: %s has no 'config' object" % path)
    unknown = sorted(set(cfg).difference(_KEYS))
    if unknown:
        raise ConfigError("config: unknown key %r in %s" % (unknown[0], path))
    return dict(cfg)


def parse_config(path: Optional[str],
                 overrides: Optional[Dict[str, object]] = None) -> RunSettings:
    """Resolve defaults, config file, and flag overrides into RunSettings.

    overrides maps config keys to already-typed or raw string values;
    None entries are ignored. Raises ConfigError (a ValueError) on any
    unknown key or out-of-domain value.
    """
    values: Dict[str, object] = {}
    if path is not None:
        values.update(_read_config_file(path))
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in _KEYS:
            raise ConfigError("config: unknown key %r" % (key,))
        values[key] = val

    # Each given value is parsed once into the keyword arguments of the
    # object that owns its field, keyed by that object's dotted path ("" is
    # RunSettings itself).
    kwargs: Dict[str, Dict[str, object]] = {
        "": {}, "config": {}, "config.topology": {}, "config.params": {},
    }
    for key, (target, parse, _) in _KEYS.items():
        if values.get(key) is not None:
            owner, _, name = target.rpartition(".")
            kwargs[owner][name] = parse(key, values[key])
    for key in ("runs", "jobs"):
        if kwargs[""].get(key, 1) < 1:
            raise ConfigError("%s: need at least 1 (got %d)" % (key, kwargs[""][key]))

    try:
        config = SimulationConfig(
            params=MarketParams(**kwargs["config.params"]),
            topology=TopologySpec(**kwargs["config.topology"]),
            **kwargs["config"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunSettings(config=config, **kwargs[""])


def _settings_as_dict(settings: RunSettings, grid: Optional[Tuple[float, ...]]) -> Dict:
    doc = {key: reduce(getattr, target.split("."), settings)
           for key, (target, _, _) in _KEYS.items()}
    doc["grid"] = grid
    return doc


def _fmt(x: float) -> str:
    """CSV float format: 17 significant digits round-trips float64 exactly."""
    return format(float(x), ".17g")


def _float_cells(col):
    """One trace.csv float column as '%' arguments, and its row field.

    A column with at most half its cells distinct (by float64 bit pattern,
    so -0.0 and each NaN keep their spelling) formats each distinct value
    once and passes the texts to '%s'; otherwise the floats go straight to
    '%.17g', which for a Python float gives the same text as _fmt.
    """
    bits, inverse = np.unique(col.view(np.uint64), return_inverse=True)
    if 2 * len(bits) > len(col):
        return col.tolist(), "%.17g"
    texts = ("%.17g\n" * len(bits) % tuple(bits.view(np.float64).tolist())).split("\n")
    return np.array(texts[:-1], dtype=object)[inverse].tolist(), "%s"


def _trace_rows(rounds, item_ids, ads, intros, mean, std,
                grid_value: Optional[float] = None) -> str:
    """trace.csv data lines, round-major, as one text block ('' if none).

    An item introduced at round r first trades in round r + 1, so it has no
    line before that. The per-round and per-item cells are formatted once
    each; the block is one '%' over the live cells, five per line, laid out
    by slice assignment. grid_value, if given, becomes a leading grid_value
    cell.
    """
    rounds = np.asarray(rounds)
    intros = np.asarray(intros)
    ri, ci = np.nonzero(intros[None, :] < rounds[:, None])
    lead = "" if grid_value is None else _fmt(grid_value) + ","
    round_cells = np.array([lead + str(r) for r in rounds.tolist()], dtype=object)
    item_cells = np.array(
        ["%d,%s,%d" % (a, _fmt(ad), i) for a, ad, i in
         zip(np.asarray(item_ids).tolist(), np.asarray(ads).tolist(), intros.tolist())],
        dtype=object)
    mean = np.asarray(mean, dtype=np.float64)
    rates = np.diff(mean, axis=0, prepend=0.0)
    cells = [None] * (5 * len(ri))
    cells[0::5] = round_cells[ri].tolist()
    cells[1::5] = item_cells[ci].tolist()
    fields = ["%s", "%s"]
    for k, table in enumerate((mean, np.asarray(std, dtype=np.float64), rates), 2):
        cells[k::5], field = _float_cells(table[ri, ci])
        fields.append(field)
    return (",".join(fields) + "\n") * len(ri) % tuple(cells)


def _write_csv(path: str, header: Sequence[str], blocks: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            fh.write(block)


def _json_text(obj, indent: str) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) spells it, at the
    nesting whose line break and indentation is indent. Raises TypeError on
    anything but str-keyed dicts, lists, tuples and JSON scalars (a non-str
    key fails in encode_basestring_ascii)."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                 for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(type(obj).__name__)


def _json_dumps(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True), the same text.

    With indent set, json runs its pure-Python encoder; this writes each
    container in one join instead. Any payload it does not cover (non-str
    keys, other types, cycles) goes to json.dumps itself, so that output
    and errors stay json's.
    """
    try:
        return _json_text(payload, "\n")
    except (TypeError, RecursionError):
        return json.dumps(payload, indent=2, sort_keys=True)


def _write_json(path: str, payload: Dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json_dumps(payload) + "\n")


def _peak_block(obj) -> Dict[str, Dict[str, object]]:
    """Per-item share and rate peaks, computed over the whole (R, M) table.

    Gives what share_series, rate_series and peak_stats give item by item
    (the scalar reference): an item's series covers its live rounds (those
    after its intro round), the first live rate is its first live share,
    and a peak is the first live round attaining the maximum. Items with no
    live round, or whose live shares leave [0, 1] or decrease, are left out,
    as ShareSeries rejects them. Rounds are strictly increasing (1..R), so
    each item's live rounds are a suffix of them.
    """
    values = obj.mean_share if isinstance(obj, EnsembleResult) else obj.shares
    rounds = np.asarray(obj.rounds)
    live = rounds[:, None] > np.asarray(obj.intro_rounds)[None, :]
    in_range = (values >= 0.0) & (values <= 1.0)
    decreasing = live[:-1] & (values[1:] < values[:-1])
    keep = (live.any(axis=0) & (in_range | ~live).all(axis=0)
            & ~decreasing.any(axis=0))
    cols = np.flatnonzero(keep)
    values = values[:, cols]
    live = live[:, cols]
    shares = np.where(live, values, 0.0)
    rates = np.diff(shares, axis=0, prepend=0.0)
    share_idx = np.where(live, shares, -np.inf).argmax(axis=0)
    rate_idx = np.where(live, rates, -np.inf).argmax(axis=0)
    at = np.arange(len(cols))
    return {
        str(a): {
            "peak_share": ps,
            "peak_share_round": psr,
            "final_share": fs,
            "peak_rate": pr,
            "peak_rate_round": prr,
        }
        for a, ps, psr, fs, pr, prr in zip(
            np.asarray(obj.item_ids)[cols].tolist(),
            shares[share_idx, at].tolist(), rounds[share_idx].tolist(),
            values[-1].tolist(),
            rates[rate_idx, at].tolist(), rounds[rate_idx].tolist())
    }


def _final_share_map(item_ids, finals) -> Dict[str, float]:
    return dict(zip(map(str, np.asarray(item_ids).tolist()),
                    np.asarray(finals, dtype=np.float64).tolist()))


def _safe_gini(finals) -> Optional[float]:
    try:
        return gini(np.asarray(finals, dtype=np.float64))
    except ValueError:
        return None


def _trace_summary(trace: Trace) -> Dict:
    try:
        corr = quality_share_correlation(trace)
    except ValueError:
        corr = None
    return {
        "runs": 1,
        "final_shares": _final_share_map(trace.item_ids, trace.final_shares),
        "gini": _safe_gini(trace.final_shares),
        "quality_share_correlation": corr,
        "peak_stats": _peak_block(trace),
    }


def _ensemble_summary(ens: EnsembleResult) -> Dict:
    corrs = []
    for quality, finals in zip(ens.per_run_quality, ens.per_run_final_share):
        try:
            corrs.append(quality_share_correlation(quality, finals))
        except ValueError:
            continue
    corr_mean = float(np.mean(corrs)) if corrs else None
    corr_std = float(np.std(corrs)) if corrs else None
    return {
        "runs": ens.runs,
        "final_shares": _final_share_map(ens.item_ids, ens.mean_final_share),
        "gini": _safe_gini(ens.mean_final_share),
        "quality_share_correlation": corr_mean,
        "quality_share_correlation_std": corr_std,
        "quality_share_correlation_runs": len(corrs),
        "peak_stats": _peak_block(ens),
    }


def _write_outputs(out_dir: str, trace_header, trace_blocks, summary: Dict,
                   manifest: Dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "trace.csv"), trace_header, trace_blocks)
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _manifest(command: str, settings: RunSettings,
              grid: Optional[Tuple[float, ...]]) -> Dict:
    return {
        "tool": "fashsim",
        "version": __version__,
        "command": command,
        "backend": kernel.BACKEND,
        "seed": settings.config.seed,
        "seed_derivation": (
            "splitmix64: child(i) = finalize(master + (i+1)*0x9E3779B97F4A7C15); "
            "ensembles seed run i by child(i); sweeps seed grid point j by "
            "child(j), then that point's runs by its own children"
        ),
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": _settings_as_dict(settings, grid),
    }


def cmd_run(settings: RunSettings) -> None:
    trace = run(settings.config)
    block = _trace_rows(trace.rounds, trace.item_ids, trace.advertisements,
                        trace.intro_rounds, trace.shares,
                        np.zeros_like(trace.shares))
    summary = {"command": "run", **_trace_summary(trace)}
    _write_outputs(settings.out, TRACE_HEADER, [block], summary,
                   _manifest("run", settings, None))


def cmd_ensemble(settings: RunSettings) -> None:
    ens = run_ensemble(settings.config, settings.runs, jobs=settings.jobs)
    block = _trace_rows(ens.rounds, ens.item_ids, ens.advertisements,
                        ens.intro_rounds, ens.mean_share, ens.std_share)
    summary = {"command": "ensemble", **_ensemble_summary(ens)}
    _write_outputs(settings.out, TRACE_HEADER, [block], summary,
                   _manifest("ensemble", settings, None))


def _grid_outputs(points) -> Tuple[List[str], List[Dict]]:
    """trace.csv blocks and summary points of a sweep, grid point by point."""
    blocks: List[str] = []
    summaries = []
    for pt in points:
        ens = pt.ensemble
        blocks.append(_trace_rows(ens.rounds, ens.item_ids, ens.advertisements,
                                  ens.intro_rounds, ens.mean_share, ens.std_share,
                                  grid_value=pt.value))
        summaries.append({"value": pt.value, "seed": pt.seed, **_ensemble_summary(ens)})
    return blocks, summaries


def _sweep_outputs(command: str, parameter: str, settings: RunSettings,
                   grid: Tuple[float, ...]) -> None:
    spec = SweepSpec(base=settings.config, parameter=parameter, grid=grid,
                     runs=settings.runs)
    result = sweep(spec, jobs=settings.jobs)
    blocks, points = _grid_outputs(result.points)
    summary = {"command": command, "parameter": parameter, "points": points}
    _write_outputs(settings.out, ("grid_value",) + TRACE_HEADER, blocks, summary,
                   _manifest(command, settings, grid))


def cmd_sweep_adv(settings: RunSettings) -> None:
    grid = settings.grid if settings.grid is not None else _DEFAULT_GRID_ADV
    tracked_item_id(settings.config)  # validates the tracked item will exist
    _sweep_outputs("sweep-adv", "advertisement", settings, grid)


def cmd_sweep_beta(settings: RunSettings) -> None:
    grid = settings.grid if settings.grid is not None else _DEFAULT_GRID_BETA
    _sweep_outputs("sweep-beta", "beta", settings, grid)


def cmd_optimize(settings: RunSettings) -> None:
    grid = settings.grid if settings.grid is not None else _DEFAULT_GRID_ADV
    result = optimize_advertisement(settings.config, grid,
                                    objective=settings.objective,
                                    runs=settings.runs, jobs=settings.jobs)
    blocks, points = _grid_outputs(result.sweep_result.points)
    summary = {
        "command": "optimize",
        "objective": result.objective,
        "a_star": result.a_star,
        "tracked_item": result.tracked_item,
        "objective_table": [
            {"advertisement": row.advertisement, "mean": row.mean, "se": row.se}
            for row in result.table
        ],
        "points": points,
    }
    _write_outputs(settings.out, ("grid_value",) + TRACE_HEADER, blocks, summary,
                   _manifest("optimize", settings, grid))


_COMMANDS = {
    "run": cmd_run,
    "ensemble": cmd_ensemble,
    "sweep-adv": cmd_sweep_adv,
    "sweep-beta": cmd_sweep_beta,
    "optimize": cmd_optimize,
}


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so config errors exit 1."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fashsim",
                     description="agent-based fashion market simulator")
    parser.add_argument("--version", action="version",
                        version="fashsim %s" % __version__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, help_text in (
        ("run", "single simulation"),
        ("ensemble", "many independent runs, aggregated"),
        ("sweep-adv", "sweep the tracked item's advertisement level"),
        ("sweep-beta", "sweep the penalty sigmoid steepness"),
        ("optimize", "grid-search the tracked item's advertisement"),
    ):
        cmd = sub.add_parser(name, help=help_text, add_help=True)
        cmd.add_argument("--config", help="key=value config file or manifest.json")
        for key, (_, _, flag_help) in _KEYS.items():
            if flag_help is not None:
                cmd.add_argument("--" + key, help=flag_help)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("missing command (try: fashsim run --help)")
        overrides = {k: v for k, v in vars(args).items() if k in _KEYS}
        settings = parse_config(args.config, overrides)
        out = args.out or os.environ.get("FASHSIM_OUT") or settings.out
        settings = replace(settings, out=out)
    except ConfigError as exc:
        print("fashsim: error: %s" % exc, file=sys.stderr)
        return 1
    try:
        _COMMANDS[args.command](settings)
    except (ConfigError, ValueError) as exc:
        print("fashsim: error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surface as runtime failure
        print("fashsim: runtime failure: %s" % exc, file=sys.stderr)
        return 2
    print("fashsim: wrote %s" % os.path.abspath(settings.out))
    return 0
