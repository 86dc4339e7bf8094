"""Checks on one operation's outputs.

An operation's outputs are identified by the sha256 of ``trace.csv`` and
``summary.json``. For the default seed the digests must equal the stored
reference. For any other seed the outputs must satisfy invariants that hold
for every correct run:

- ``share_mean`` lies in [0, 1] and never decreases per item (per grid
  point for sweeps and optimize);
- the summary's ``final_shares`` equal the last-round trace rows (per grid
  point under ``points``);
- for optimize, ``a_star`` is the argmax of its own objective table, ties
  going to the smaller advertisement level.
"""

import csv
import hashlib
import json
import os
from typing import Dict, Optional, Tuple

Digest = Tuple[str, str]

DIGESTED = ("trace.csv", "summary.json")


def digest(out_dir: str) -> Digest:
    """sha256 of trace.csv and summary.json; missing files give ''."""
    result = []
    for name in DIGESTED:
        h = hashlib.sha256()
        try:
            with open(os.path.join(out_dir, name), "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
        except OSError:
            result.append("")
            continue
        result.append(h.hexdigest())
    return tuple(result)


def invariant_errors(out_dir: str) -> Optional[str]:
    """First violated invariant, or None when the outputs are consistent."""
    try:
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(os.path.join(out_dir, "trace.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, ValueError) as exc:
        return "unreadable output: %s" % exc
    if not rows:
        return "trace.csv is empty"
    header, body = rows[0], rows[1:]
    try:
        return _check(summary, header, body)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return "malformed output: %r" % (exc,)


def _check(summary: Dict, header, body) -> Optional[str]:
    gridded = header[0] == "grid_value"
    col = {name: i for i, name in enumerate(header)}
    last_round: Dict[Tuple[float, str], Tuple[int, float]] = {}
    for row in body:
        if len(row) != len(header):
            return "trace row has %d fields, header %d" % (len(row), len(header))
        point = float(row[0]) if gridded else 0.0
        item = row[col["item_id"]]
        rnd = int(row[col["round"]])
        share = float(row[col["share_mean"]])
        if not 0.0 <= share <= 1.0:
            return "share_mean %r out of [0, 1]" % share
        prev = last_round.get((point, item))
        if prev is not None:
            if rnd <= prev[0]:
                return "rounds not increasing for item %s" % item
            if share < prev[1]:
                return "share_mean decreased for item %s at round %d" % (item, rnd)
        last_round[(point, item)] = (rnd, share)

    final_round = max(r for r, _ in last_round.values())
    points = summary["points"] if gridded else [dict(summary, value=0.0)]
    traced_points = {p for p, _ in last_round}
    if len(points) != len(traced_points):
        return "summary has %d points, trace %d" % (len(points), len(traced_points))
    for pt in points:
        finals = pt["final_shares"]
        for item, value in finals.items():
            rnd, share = last_round[(float(pt["value"]), item)]
            if rnd != final_round or share != value:
                return "final share of item %s differs from its last trace row" % item
        if len(finals) != sum(1 for p, _ in last_round if p == float(pt["value"])):
            return "final_shares and trace disagree on the item set"

    if summary.get("command") == "optimize":
        table = sorted(summary["objective_table"], key=lambda r: r["advertisement"])
        best = table[0]
        for row in table[1:]:
            if row["mean"] > best["mean"]:
                best = row
        if summary["a_star"] != best["advertisement"]:
            return "a_star %r is not the argmax of its table" % summary["a_star"]
    return None
