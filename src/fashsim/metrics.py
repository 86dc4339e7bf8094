"""Outcome metrics: share inequality, quality/share agreement, peaks.

A note on "losing attraction": cumulative market shares never decrease, so
peaks in shares cannot show an item falling out of favor. The per-round
consumption rate (first difference of the share series) can, and the peak
helpers here are meant to be pointed at rate series for that question.

peak_table computes every item's peaks at once over the whole (rounds,
items) table; summary.json's peak_stats is its output. share_series and
rate_series read one column through the same rule (_table).
"""

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .engine import EnsembleResult, Trace
from .model import MarketState, market_share, quality

__all__ = [
    "gini",
    "quality_share_correlation",
    "ShareSeries",
    "share_series",
    "rate_series",
    "PeakStats",
    "peak_stats",
    "peak_table",
]


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of nonnegative values.

    Defined as sum_ij |x_i - x_j| / (2 * m * sum(x)). Computed via the
    sorted-rank identity sum_i (2i - m - 1) * x_(i) / (m * sum(x)), which
    is algebraically the same thing in O(m log m). 0 means perfectly even,
    (m-1)/m means one holder owns everything. Rounding can carry the sum a
    few ulps past either bound (equal values give about -1e-17), so the
    result is clamped into [0, (m-1)/m]. All-zero input is rejected:
    inequality of nothing is undefined. So is NaN or infinite input.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("values: expected a nonempty 1-d sequence")
    if not np.isfinite(x).all():
        raise ValueError("values: shares must be finite")
    if np.any(x < 0.0):
        raise ValueError("values: shares must be nonnegative")
    total = float(x.sum())
    if total <= 0.0:
        raise ValueError("values: all-zero input has no defined inequality")
    m = len(x)
    ranks = np.arange(1, m + 1, dtype=np.float64)
    ordered = np.sort(x)
    g = float(((2.0 * ranks - m - 1.0) * ordered).sum() / (m * total))
    return min(max(g, 0.0), (m - 1) / m)


def quality_share_correlation(
    arg: Union[MarketState, Trace, Sequence[float]],
    shares: Sequence[float] = None,
) -> float:
    """Pearson correlation between item quality and final market share.

    Accepts a MarketState (qualities and shares read off the state), a
    Trace (this run's qualities vs final shares), or two explicit
    sequences. Needs at least two items and nonzero variance on both
    sides, all finite; degenerate inputs are rejected rather than
    silently mapped to 0 or NaN.
    """
    if isinstance(arg, MarketState):
        q = np.array([quality(arg, a) for a in range(arg.n_items)])
        c = np.array([market_share(arg, a) for a in range(arg.n_items)])
    elif isinstance(arg, Trace):
        q = np.asarray(arg.quality, dtype=np.float64)
        c = np.asarray(arg.final_shares, dtype=np.float64)
    else:
        if shares is None:
            raise ValueError("shares: required when qualities are given directly")
        q = np.asarray(arg, dtype=np.float64)
        c = np.asarray(shares, dtype=np.float64)
    if q.shape != c.shape or q.ndim != 1:
        raise ValueError("qualities and shares must be 1-d and equally long")
    if len(q) < 2:
        raise ValueError("need at least two items for a correlation")
    if not (np.isfinite(q).all() and np.isfinite(c).all()):
        raise ValueError("correlation undefined: NaN or infinite input")
    if float(np.var(q)) == 0.0 or float(np.var(c)) == 0.0:
        raise ValueError("correlation undefined: zero variance input")
    return float(np.corrcoef(q, c)[0, 1])


@dataclass(frozen=True)
class ShareSeries:
    """One item's cumulative share trajectory.

    rounds must be strictly increasing; shares must stay in [0, 1] and
    never decrease (consumption is permanent).
    """

    item_id: int
    advertisement: float
    rounds: Tuple[int, ...]
    shares: Tuple[float, ...]

    def __post_init__(self):
        if len(self.rounds) != len(self.shares) or len(self.rounds) == 0:
            raise ValueError("series: rounds and shares must align and be nonempty")
        if any(b <= a for a, b in zip(self.rounds, self.rounds[1:])):
            raise ValueError("rounds: must be strictly increasing")
        for s in self.shares:
            if not 0.0 <= s <= 1.0:
                raise ValueError("shares: values must be in [0, 1]")
        if any(b < a for a, b in zip(self.shares, self.shares[1:])):
            raise ValueError("shares: cumulative series cannot decrease")


def _table(obj: Union[Trace, EnsembleResult], cols):
    """Rounds, shares (an ensemble's mean) and live mask of obj's columns
    cols; an item entering at round r is live from round r + 1."""
    values = obj.mean_share if isinstance(obj, EnsembleResult) else obj.shares
    rounds = np.asarray(obj.rounds)
    return rounds, values[:, cols], np.greater.outer(rounds, np.asarray(obj.intro_rounds)[cols])


def _series_source(obj: Union[Trace, EnsembleResult], item_id: int):
    matches = np.flatnonzero(np.asarray(obj.item_ids) == item_id)
    if len(matches) == 0:
        raise ValueError("item id %r not present in this result" % (item_id,))
    col = int(matches[0])
    rounds, values, live = _table(obj, col)
    if not live.any():
        raise ValueError("item %r never entered the recorded window" % (item_id,))
    return rounds[live], values[live], float(obj.advertisements[col])


def share_series(obj: Union[Trace, EnsembleResult], item_id: int) -> ShareSeries:
    """Extract one item's share trajectory (ensemble: mean trajectory).

    Rounds before the item entered the market are omitted.
    """
    rounds, values, ad = _series_source(obj, item_id)
    return ShareSeries(
        item_id=int(item_id),
        advertisement=ad,
        rounds=tuple(int(r) for r in rounds),
        shares=tuple(float(v) for v in values),
    )


def rate_series(obj: Union[Trace, EnsembleResult], item_id: int):
    """Per-round consumption rate: first difference of the share series.

    Returns (rounds, rates) tuples. The first live round's rate is its
    share (the item started from zero). For ensembles the difference of
    mean shares equals the mean of per-run differences, so this is the
    mean rate trajectory.
    """
    rounds, values, _ = _series_source(obj, item_id)
    rates = np.diff(values, prepend=0.0)
    return tuple(int(r) for r in rounds), tuple(float(v) for v in rates)


@dataclass(frozen=True)
class PeakStats:
    peak: float
    peak_round: int
    final: float


def peak_stats(series, rounds: Sequence[int] = None) -> PeakStats:
    """Peak value, first round attaining it, and final value of a series.

    Accepts a ShareSeries, a plain value sequence (rounds default to
    1..len), or a value sequence plus explicit round labels. Works equally
    on share series and on rate series; only rates can reveal an item that
    stopped attracting new consumers, since shares are cumulative.
    NaN or infinite values are rejected. It keeps its own argmax, as it
    takes any value sequence and round labels, not only a result's table.
    """
    if isinstance(series, ShareSeries):
        values = np.asarray(series.shares, dtype=np.float64)
        rounds = np.asarray(series.rounds, dtype=np.int64)
    else:
        values = np.asarray(series, dtype=np.float64)
        if rounds is None:
            rounds = np.arange(1, len(values) + 1, dtype=np.int64)
        else:
            rounds = np.asarray(rounds, dtype=np.int64)
    if values.ndim != 1 or len(values) == 0:
        raise ValueError("series: expected a nonempty 1-d sequence")
    if rounds.shape != values.shape:
        raise ValueError("rounds: must align with the value sequence")
    if not np.isfinite(values).all():
        raise ValueError("series: values must be finite")
    idx = int(np.argmax(values))  # first occurrence of the maximum
    return PeakStats(
        peak=float(values[idx]),
        peak_round=int(rounds[idx]),
        final=float(values[-1]),
    )


def peak_table(obj: Union[Trace, EnsembleResult]):
    """Every item's peaks at once: (item_ids, {field: column}), column i
    being what peak_stats gives on item_ids[i]'s share_series and
    rate_series. Items with no live round, or whose live shares leave
    [0, 1] or decrease, are left out, as ShareSeries rejects them; a live
    window is a suffix of the rounds, so its first rate is its first share.
    """
    rounds, values, live = _table(obj, slice(None))
    in_range = (values >= 0.0) & (values <= 1.0)
    decreasing = live[:-1] & (values[1:] < values[:-1])
    cols = np.flatnonzero(live.any(axis=0) & (in_range | ~live).all(axis=0)
                          & ~decreasing.any(axis=0))
    values, live = values[:, cols], live[:, cols]
    shares = np.where(live, values, 0.0)
    rates = np.diff(shares, axis=0, prepend=0.0)
    share_idx = np.where(live, shares, -np.inf).argmax(axis=0)
    rate_idx = np.where(live, rates, -np.inf).argmax(axis=0)
    at = np.arange(len(cols))
    return np.asarray(obj.item_ids)[cols], {
        "peak_share": shares[share_idx, at], "peak_share_round": rounds[share_idx],
        "final_share": values[-1],
        "peak_rate": rates[rate_idx, at], "peak_rate_round": rounds[rate_idx]}
