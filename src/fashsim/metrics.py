"""Outcome metrics: share inequality, quality/share agreement, peaks.

A note on "losing attraction": cumulative market shares never decrease, so
peaks in shares cannot show an item falling out of favor. The per-round
consumption rate (first difference of the share series) can, and the peak
helpers here are meant to be pointed at rate series for that question.

The CLI's summary computes every item's peaks at once over the whole
(rounds, items) table (cli._peak_block); share_series, rate_series and
peak_stats are the scalar reference it is tested against.
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
]


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of nonnegative values.

    Defined as sum_ij |x_i - x_j| / (2 * m * sum(x)). Computed via the
    sorted-rank identity sum_i (2i - m - 1) * x_(i) / (m * sum(x)), which
    is algebraically the same thing in O(m log m). 0 means perfectly even,
    (m-1)/m means one holder owns everything. Rounding can carry the sum a
    few ulps past either bound (equal values give about -1e-17), so the
    result is clamped into [0, (m-1)/m]. All-zero input is rejected:
    inequality of nothing is undefined.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("values: expected a nonempty 1-d sequence")
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
    sides; degenerate inputs are rejected rather than silently mapped
    to 0 or NaN.
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


def _series_source(obj: Union[Trace, EnsembleResult], item_id: int):
    ids = np.asarray(obj.item_ids)
    matches = np.flatnonzero(ids == item_id)
    if len(matches) == 0:
        raise ValueError("item id %r not present in this result" % (item_id,))
    col = int(matches[0])
    if isinstance(obj, EnsembleResult):
        values = obj.mean_share[:, col]
    else:
        values = obj.shares[:, col]
    intro = int(obj.intro_rounds[col])
    rounds = np.asarray(obj.rounds)
    live = rounds > intro  # an item entering at round r first trades in round r+1
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
    idx = int(np.argmax(values))  # first occurrence of the maximum
    return PeakStats(
        peak=float(values[idx]),
        peak_round=int(rounds[idx]),
        final=float(values[-1]),
    )
