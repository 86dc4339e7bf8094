"""Command line frontend.

Commands: run, ensemble, sweep-adv, sweep-beta, optimize, all from one
parser whose flags may come before or after the command. Settings come
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

trace.csv carries the columns
  round,item_id,advertisement,intro_round,share_mean,share_std,consumption_rate_mean
and a grid_value column in front when the manifest records a grid: the
given one, else 0, 0.1, ..., 1.0 for sweep-adv and optimize and 1, 5, 10
for sweep-beta. run and ensemble record none. Floats are serialized with
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
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, kernel
from .engine import (
    EnsembleResult,
    SimulationConfig,
    Trace,
    run,
    run_ensemble,
)
from .graph import TopologySpec, check_choice, check_int
from .metrics import gini, quality_share_correlation
from .model import MarketParams
from .sweep import (
    OBJECTIVES,
    SweepSpec,
    optimize_advertisement,
    sweep,
)

__all__ = ["main", "parse_config", "ConfigError", "RunSettings"]

TRACE_HEADER = ("round", "item_id", "advertisement", "intro_round",
                "share_mean", "share_std", "consumption_rate_mean")

_TOPOLOGY_ALIASES = {"small-world": "small_world"}


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

    def __post_init__(self):
        for name in ("runs", "jobs"):
            value = check_int(name, getattr(self, name))
            if value < 1:
                raise ValueError("%s: need at least 1 (got %d)" % (name, value))
            object.__setattr__(self, name, value)
        check_choice("objective", self.objective, OBJECTIVES)


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


def _parse_optional_float(key: str, raw) -> Optional[float]:
    if isinstance(raw, str) and raw.strip().lower() in ("none", ""):
        return None
    return _parse_float(key, raw)


def _parse_text(key: str, raw):
    """Text without its surrounding blanks; the field's owner checks it."""
    return raw.strip() if isinstance(raw, str) else raw


def _parse_topology(key: str, raw) -> str:
    v = str(raw).strip()
    return _TOPOLOGY_ALIASES.get(v, v)


def _parse_path(key: str, raw) -> str:
    v = str(raw)
    if not v.strip():
        raise ConfigError("%s: expected a directory path (got %r)" % (key, raw))
    return v


# Every config key, in the order values are parsed: its field in RunSettings
# as a dotted path, its parser, and its flag help (None: no flag, so the key
# is set only by a config file or manifest). A parser only converts text;
# the dataclass that owns the field checks the value, and a key not given
# keeps that dataclass's default.
_KEYS = {
    "agents": ("config.n_agents", _parse_int, "number of agents"),
    "items": ("config.m_initial", _parse_int, "initial catalog size"),
    "rounds": ("config.rounds", _parse_int, "rounds per run"),
    "mode": ("config.mode", _parse_text, "cultural or fashion"),
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
    "new_item_liking": ("config.params.new_item_liking", _parse_text, None),
    "utility_social_blend": ("config.params.utility_social_blend", _parse_text, None),
    "min_utility": ("config.params.min_utility", _parse_optional_float, None),
    "runs": ("runs", _parse_int, "runs per ensemble"),
    "seed": ("config.seed", _parse_int, "master seed (64-bit)"),
    "grid": ("grid", _parse_float_list, "comma separated grid values"),
    "objective": ("objective", _parse_text,
                  "optimize target: final_share or integrated_share"),
    "jobs": ("jobs", _parse_int, "worker thread cap"),
    "out": ("out", _parse_path, "output directory (env FASHSIM_OUT as fallback)"),
}


def _read_kv_file(path: str, text: str) -> Dict[str, object]:
    """Parse a flat key=value file's text; '#' comments and blank lines ignored."""
    values: Dict[str, object] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("%s:%d: expected key=value (got %r)"
                              % (path, lineno, line.rstrip()))
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
        values[key] = value
    return values


def _read_config_file(path: str) -> Dict[str, object]:
    """Read either a flat key=value file or a manifest.json."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if not text.lstrip().startswith("{"):
            return _read_kv_file(path, text)
        doc = json.loads(text)
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
    try:
        config = SimulationConfig(
            params=MarketParams(**kwargs["config.params"]),
            topology=TopologySpec(**kwargs["config.topology"]),
            **kwargs["config"],
        )
        return RunSettings(config=config, **kwargs[""])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# Lines of trace.csv built at a time: the file's lines go out in chunks
# of this many (the last shorter), so the writer holds one chunk's cells and
# text (about 1.4 MB at catalog-wide's widths), never a point's or the
# file's. Picked by timing the writer, sizes interleaved, on catalog-wide's
# three 60,675-line points at seed 11 (2 vCPUs, median of 21): 2^12 /
# 2^13 / 2^14 / 2^15 / 2^16 lines took 67 / 64 / 61 / 73 / 78 ms, and a
# fresh process running the whole sweep-beta peaked at 49.9 MiB RSS at
# 2^14 against 58.2 MiB at 2^16, where writing one point's text set the
# peak.
_CHUNK_ROWS = 1 << 14


def _trace_text(points) -> Iterator[str]:
    """trace.csv's data lines as text chunks of _CHUNK_ROWS lines, the
    last one shorter.

    points yields one (grid_value, rounds, item_ids, ads, intros, mean,
    std) per grid point; grid_value None means no grid_value column.
    Lines are round-major, and an item introduced at round r first trades
    in round r + 1, so it has no line before that. consumption_rate_mean
    is the round-on-round difference of mean, the first round's from 0.
    Chunks run across grid points: a chunk gathers pieces of consecutive
    points (their round cells, item cells and float cells) until it is
    full. Each cell carries its own ',' or newline, so a chunk is one join.
    """
    pieces, held = [], 0
    for grid_value, rounds, item_ids, ads, intros, mean, std in points:
        rounds, intros = np.asarray(rounds), np.asarray(intros)
        ri, ci = np.nonzero(intros[None, :] < rounds[:, None])
        lead = "" if grid_value is None else "%.17g," % grid_value
        round_cells = np.array([lead + "%d," % r for r in rounds.tolist()], dtype=object)
        ad_at, ad_commas, _ = _float_texts(np.asarray(ads, dtype=np.float64))
        item_cells = np.array(
            ["%d,%s%d," % cells for cells in
             zip(np.asarray(item_ids).tolist(), ad_commas[ad_at].tolist(), intros.tolist())],
            dtype=object)
        mean = np.asarray(mean, dtype=np.float64)
        columns = [np.ascontiguousarray(table, dtype=np.float64).ravel() for table in
                   (mean, std, np.diff(mean, axis=0, prepend=0.0))]
        lo = 0
        while lo < len(ri):
            hi = min(len(ri), lo + _CHUNK_ROWS - held)
            r, c = ri[lo:hi], ci[lo:hi]
            at = r * len(intros) + c
            pieces.append((round_cells[r], item_cells[c], [col.take(at) for col in columns]))
            held, lo = held + hi - lo, hi
            if held == _CHUNK_ROWS:
                yield _chunk_text(pieces)
                pieces, held = [], 0
    if pieces:
        yield _chunk_text(pieces)


def _float_texts(floats):
    """Each value's index among floats' distinct values, and the '%.17g'
    spellings of those values followed by ',' and by a newline.

    Values are told apart by bit pattern, so -0.0 keeps its sign (every
    NaN spells nan), and one '%' spells them all.
    """
    # A stable sort: trace columns are long runs of a few values, which a
    # stable (run-merging) sort orders fastest.
    bits = floats.view(np.uint64)
    order = bits.argsort(kind="stable")
    ordered = bits[order]
    first = np.empty(len(bits), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    at = np.empty(len(bits), dtype=np.int32)  # a chunk has under 2^31 cells
    at[order] = np.cumsum(first, dtype=np.int32) - 1
    distinct = ordered[first].view(np.float64).tolist()
    text = "%.17g\n" * len(distinct) % tuple(distinct)  # a spelling has no line break
    return (at, np.array(text.replace("\n", ",\n").split("\n")[:-1], dtype=object),
            np.array(text.splitlines(True), dtype=object))


def _chunk_text(pieces) -> str:
    """One chunk's lines from its pieces of consecutive lines, each a
    (round cells, item cells, [mean, std, rate] float cells). A function
    of its own, so that the cell list is freed before the chunk is written."""
    round_cells, item_cells, floats = zip(*pieces)
    rows = sum(map(len, round_cells))
    # Each float column, piece after piece.
    at, commas, newlines = _float_texts(
        np.concatenate([cells for column in zip(*floats) for cells in column]))
    cells = [None] * (5 * rows)
    cells[0::5] = np.concatenate(round_cells).tolist()
    cells[1::5] = np.concatenate(item_cells).tolist()
    cells[2::5] = commas[at[:rows]].tolist()
    cells[3::5] = commas[at[rows:2 * rows]].tolist()
    cells[4::5] = newlines[at[2 * rows:]].tolist()
    return "".join(cells)


def _write_csv(path: str, header: Sequence[str], chunks: Iterable[str]) -> None:
    """Write header and text chunks; writelines lets go of each chunk
    before it asks for the next."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(chunks)


class _Columns:
    """A per-item summary block by columns: it stands for {id: {field:
    value}} given values {field: array} (no '%' in a field), or {id: value}
    given one array. ids are the item ids as str in sorted() order ("10"
    before "2", as sort_keys has them), columns one value list per sorted
    field; plain: all are finite ints or floats, which '%r' spells as json."""

    def __init__(self, item_ids, values):
        keys = [str(a) for a in np.asarray(item_ids).tolist()]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self.ids = [keys[i] for i in order]
        self.fields = sorted(values) if isinstance(values, dict) else None
        arrays = [values[f] for f in self.fields] if self.fields else [values]
        self.plain = all(a.dtype.kind in "iuf" and np.isfinite(a).all() for a in arrays)
        self.columns = [a[order].tolist() for a in arrays]

    def as_dict(self) -> Dict:
        return {k: row[0] if self.fields is None else dict(zip(self.fields, row))
                for k, row in zip(self.ids, zip(*self.columns))}


def _json_text(obj, indent: str) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) spells it, at the
    nesting whose line break and indentation is indent. Raises TypeError on
    anything but str-keyed dicts, lists, tuples, _Columns and JSON scalars
    (a non-str key fails in encode_basestring_ascii)."""
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
    if isinstance(obj, _Columns):
        if not (obj.plain and obj.ids):
            return _json_text(obj.as_dict(), indent)
        item = "%s: %r" if obj.fields is None else "%%s: {%s%s}" % (",".join(
            inner + "  " + encode_basestring_ascii(f) + ": %r" for f in obj.fields), inner)
        items = [item % r for r in zip(map(encode_basestring_ascii, obj.ids), *obj.columns)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(type(obj).__name__)


def _json_dumps(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True), the same text.

    With indent set, json runs its pure-Python encoder; this writes each
    container in one join, and a plain _Columns block (the dict it stands
    for) through one '%' template per item. Any payload it does not cover
    (non-str keys, other types, cycles) goes to json.dumps itself, so that
    output and errors stay json's.
    """
    try:
        return _json_text(payload, "\n")
    except (TypeError, RecursionError):
        return json.dumps(payload, indent=2, sort_keys=True, default=lambda o: (
            o.as_dict() if isinstance(o, _Columns) else json.JSONEncoder().default(o)))


def _write_json(path: str, payload: Dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json_dumps(payload) + "\n")


def _peak_block(obj) -> _Columns:
    """Per-item share and rate peaks over the whole (R, M) table, as columns.

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
    return _Columns(np.asarray(obj.item_ids)[cols], {
        "peak_share": shares[share_idx, at], "peak_share_round": rounds[share_idx],
        "final_share": values[-1],
        "peak_rate": rates[rate_idx, at], "peak_rate_round": rounds[rate_idx]})


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
        "final_shares": _Columns(trace.item_ids, trace.final_shares),
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
        "final_shares": _Columns(ens.item_ids, ens.mean_final_share),
        "gini": _safe_gini(ens.mean_final_share),
        "quality_share_correlation": corr_mean,
        "quality_share_correlation_std": corr_std,
        "quality_share_correlation_runs": len(corrs),
        "peak_stats": _peak_block(ens),
    }


def _write_outputs(out_dir: str, trace_points, summary: Dict, manifest: Dict) -> None:
    """Write the three output files; trace_points are _trace_text's points.
    trace.csv has the grid_value column when the manifest records a grid."""
    lead = () if manifest["config"]["grid"] is None else ("grid_value",)
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "trace.csv"), lead + TRACE_HEADER,
               _trace_text(trace_points))
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _manifest(command: str, settings: RunSettings) -> Dict:
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
        "config": {key: reduce(getattr, target.split("."), settings)
                   for key, (target, _, _) in _KEYS.items()},
    }


def _cmd_run(settings: RunSettings) -> Tuple[List[tuple], Dict]:
    trace = run(settings.config)
    return [(None, trace.rounds, trace.item_ids, trace.advertisements, trace.intro_rounds,
             trace.shares, np.zeros_like(trace.shares))], _trace_summary(trace)


def _cmd_ensemble(settings: RunSettings) -> Tuple[List[tuple], Dict]:
    ens = run_ensemble(settings.config, settings.runs, jobs=settings.jobs)
    return [_ensemble_point(ens)], _ensemble_summary(ens)


def _ensemble_point(ens: EnsembleResult, grid_value: Optional[float] = None) -> tuple:
    """An ensemble's trace.csv lines as one of _trace_text's points."""
    return (grid_value, ens.rounds, ens.item_ids, ens.advertisements,
            ens.intro_rounds, ens.mean_share, ens.std_share)


def _grid_outputs(points) -> Tuple[List[tuple], List[Dict]]:
    """_trace_text's points and the summary points of a sweep."""
    return ([_ensemble_point(pt.ensemble, pt.value) for pt in points],
            [{"value": pt.value, "seed": pt.seed, **_ensemble_summary(pt.ensemble)}
             for pt in points])


def _cmd_sweep(parameter: str, settings: RunSettings) -> Tuple[List[tuple], Dict]:
    spec = SweepSpec(base=settings.config, parameter=parameter, grid=settings.grid,
                     runs=settings.runs)
    trace_points, points = _grid_outputs(sweep(spec, jobs=settings.jobs).points)
    return trace_points, {"parameter": parameter, "points": points}


def _cmd_optimize(settings: RunSettings) -> Tuple[List[tuple], Dict]:
    result = optimize_advertisement(settings.config, settings.grid,
                                    objective=settings.objective,
                                    runs=settings.runs, jobs=settings.jobs)
    trace_points, points = _grid_outputs(result.sweep_result.points)
    return trace_points, {
        "objective": result.objective,
        "a_star": result.a_star,
        "tracked_item": result.tracked_item,
        "objective_table": [
            {"advertisement": row.advertisement, "mean": row.mean, "se": row.se}
            for row in result.table
        ],
        "points": points,
    }


# Each command's handler, its default grid (None: the command takes no
# grid, and its manifest records none) and its help line. A handler takes
# the settings with the grid resolved and returns trace.csv's points (see
# _trace_text) and the summary's fields besides "command".
_COMMANDS = {
    "run": (_cmd_run, None, "single simulation"),
    "ensemble": (_cmd_ensemble, None, "many independent runs, aggregated"),
    "sweep-adv": (partial(_cmd_sweep, "advertisement"), _DEFAULT_GRID_ADV,
                  "sweep the tracked item's advertisement level"),
    "sweep-beta": (partial(_cmd_sweep, "beta"), _DEFAULT_GRID_BETA,
                   "sweep the penalty sigmoid steepness"),
    "optimize": (_cmd_optimize, _DEFAULT_GRID_ADV,
                 "grid-search the tracked item's advertisement"),
}


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so config errors exit 1."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    """One parser for every command: flags may come before or after it."""
    parser = _Parser(prog="fashsim",
                     description="agent-based fashion market simulator")
    parser.add_argument("--version", action="version",
                        version="fashsim %s" % __version__)
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="; ".join("%s: %s" % (name, help_text)
                                       for name, (_, _, help_text) in _COMMANDS.items()))
    parser.add_argument("--config", help="key=value config file or manifest.json")
    for key, (_, _, flag_help) in _KEYS.items():
        if flag_help is not None:
            parser.add_argument("--" + key, help=flag_help)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        overrides = {k: v for k, v in vars(args).items() if k in _KEYS}
        settings = parse_config(args.config, overrides)
        env_out = os.environ.get("FASHSIM_OUT")
        if args.out is None and env_out is not None:
            settings = replace(settings, out=_parse_path("FASHSIM_OUT", env_out))
    except ConfigError as exc:
        print("fashsim: error: %s" % exc, file=sys.stderr)
        return 1
    handler, default_grid, _ = _COMMANDS[args.command]
    if default_grid is None or settings.grid is None:
        settings = replace(settings, grid=default_grid)
    try:
        trace_points, summary = handler(settings)
        _write_outputs(settings.out, trace_points, {"command": args.command, **summary},
                       _manifest(args.command, settings))
    except (ConfigError, ValueError) as exc:
        print("fashsim: error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surface as runtime failure
        print("fashsim: runtime failure: %s" % exc, file=sys.stderr)
        return 2
    print("fashsim: wrote %s" % os.path.abspath(settings.out))
    return 0
