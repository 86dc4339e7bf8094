"""The per-round decision: which item each agent consumes.

The engine decides through the market's own score cache
(model.MarketBatch.choose and commit_round). ``decide_round`` is the full
recompute for one market, every cell from scratch with the IEEE-754
operations of that cache in the same order. The engine does not call it;
it is the reference the tests hold the cache to, bit for bit.
"""

import numpy as np

# Name of the decision implementation, recorded in manifest.json.
BACKEND: str = "python"


def decide_round(
    liking: np.ndarray,        # float64 (n, cap)
    tolerance: np.ndarray,     # float64 (n,)
    advertisement: np.ndarray, # float64 (cap,)
    pen: np.ndarray,           # float64 (m,) per-item penalty this round
    nbr_counts: np.ndarray,    # int32 (n, cap)
    degrees: np.ndarray,       # int64 (n,)
    consumed: np.ndarray,      # int32 (n, cap), 0 = not consumed
    gamma: float,
    blend_liking: bool,
    n_items: int,
    min_utility: float,
    has_min: bool,
    out: np.ndarray,           # int64 (n,)
) -> None:
    """Fill out[i] with agent i's chosen item id, or -1 for abstention.

    Scores only the first n_items columns, from scratch. Ties go to the
    lowest item id.
    """
    n = tolerance.shape[0]
    m = n_items
    deg = degrees[:, None]

    pressure = np.zeros((n, m), dtype=np.float64)
    np.divide(nbr_counts[:, :m], deg, out=pressure, where=deg > 0)

    score = gamma * pressure
    if blend_liking:
        score += (1.0 - gamma) * liking[:, :m]
    score += tolerance[:, None] * advertisement[None, :m]
    score -= pen[None, :m]

    taken = consumed[:, :m] != 0
    score[taken] = -np.inf
    choice = np.argmax(score, axis=1).astype(np.int64)  # first max = lowest id
    open_slots = m - taken.sum(axis=1)
    if has_min:
        best = score[np.arange(n), choice]
        choice[best < min_utility] = -1
    choice[open_slots == 0] = -1
    out[:] = choice
