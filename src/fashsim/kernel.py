"""The per-round decision: which item each agent consumes.

The engine decides through the market's own score cache
(model.MarketBatch.choose and commit_round). ``decide_round`` is the full
recompute of ``choose``: every cell from scratch, with the IEEE-754
operations of that cache in the same order and none of its state. The
engine does not call it; it is the reference the tests hold the cache to,
bit for bit.
"""

import numpy as np

# Name of the decision implementation, recorded in manifest.json.
BACKEND: str = "python"


def decide_round(market):
    """What ``market.choose()`` returns, for a MarketState or a MarketBatch
    of any run count: the agent rows that consume this round, ascending,
    and each one's item. Ties go to the lowest item id; an agent abstains
    when nothing is left for it or its best score is below min_utility.
    """
    runs, n, m = market.runs, market.run_size, market.m
    fashion = market.mode == "fashion"
    gamma = np.repeat([q.gamma for q in market.run_params], n)[:, None]
    deg = market.graph.degrees[:, None]
    score = np.zeros((market.n_agents, m))
    np.divide(market.nbr_counts[:, :m], deg, out=score, where=deg > 0)
    score *= gamma
    if not fashion or market.params.utility_social_blend == "liking":
        score += (1.0 - gamma) * market.liking[:, :m]
    if fashion:  # through a (runs, rows, items) view: each run's ads and penalties
        by_run = score.reshape(runs, n, m)
        by_run += (market.tolerance.reshape(runs, n, 1)
                   * market.advertisement.reshape(runs, 1, -1)[..., :m])
        by_run -= market.penalties().reshape(runs, 1, m)
    score[market.consumed[:, :m] != 0] = -np.inf
    choice = score.argmax(axis=1)  # first max = lowest id
    best = score[np.arange(market.n_agents), choice]
    floor = market.params.min_utility
    agents = np.flatnonzero(best != -np.inf if floor is None else best >= floor)
    return agents, choice[agents]
