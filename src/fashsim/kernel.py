"""The per-round decision: which item each agent consumes.

``ScoreTable`` is what the engine runs. For one market, or one batch of
markets stepped together (model.MarketBatch), it keeps every agent row's
round-independent score for every live item,

    C[i, a] = (gamma * s[i, a] + (1 - gamma) * liking[i, a])
              + tolerance[i] * advertisement[a]

where s[i, a] is the fraction of i's neighbours who consumed a, gamma and
advertisement are those of i's run, and -inf where i already consumed a.
A round subtracts the per-item penalty of each run, takes the row argmax,
and after the commit recomputes only the cells whose neighbour counts
changed. Every cell goes through the same IEEE-754 operations in the same
order as ``decide_round``, so the choices are those of a full recompute,
bit for bit, whichever runs share the batch.

``decide_round`` is that full recompute for one market. The engine no
longer calls it; it is the reference the tests hold the table to.
"""

import numpy as np

# Name of the decision implementation, recorded in manifest.json.
BACKEND: str = "python"


class ScoreTable:
    """One market's or batch's cached scores (see the module docstring).

    Cultural mode ranks by opinion alone: no marketing term and no
    penalty. Under the literal_consumption blend the liking term is left
    out, as in ``decide_round``. The table owns its arrays, scratch buffer
    included, so batches on different threads never share memory.

    The table follows its state through ``sync`` (items introduced since
    the last call, or capacity grown) and ``refresh`` (after each commit);
    any other change to the state leaves it stale.
    """

    __slots__ = ("state", "m", "scores", "_scratch", "_rows", "_denom", "_runs",
                 "_run_size", "_gamma", "_blend_liking", "_fashion", "_min_utility")

    def __init__(self, state):
        p = state.params
        self.state = state
        self._rows = np.arange(state.n_agents)
        self._runs, self._run_size = state.runs, state.run_size
        # max(deg, 1): an isolated agent has counts of 0, and 0 / 1 gives
        # the +0.0 that decide_round leaves where deg == 0.
        self._denom = np.maximum(state.graph.degrees, 1).astype(np.float64)
        # One gamma when the runs agree, else a column of each row's gamma.
        gammas = [q.gamma for q in state.run_params]
        self._gamma = p.gamma if len(set(gammas)) == 1 else (
            np.repeat(np.array(gammas, dtype=np.float64), state.run_size)[:, None])
        self._fashion = state.mode == "fashion"
        self._blend_liking = not self._fashion or p.utility_social_blend == "liking"
        self._min_utility = None if p.min_utility is None else float(p.min_utility)
        self.scores, self._scratch = np.empty((state.n_agents, 0)), np.empty(0)
        self.m = 0
        self.sync()

    def sync(self) -> None:
        """Score the items the state gained since the last call; start
        over if the state's capacity grew (its arrays were replaced)."""
        st = self.state
        rows, cap = st.liking.shape
        if self.scores.shape[1] != cap:
            self.scores = np.empty((rows, cap))
            self._scratch = np.empty(rows * cap)
            self.m = 0
        lo, hi = self.m, st.m
        if hi == lo:
            return
        # Built in place in the new columns, the scratch buffer (free until
        # choose) holding each added term, so the first sync of a full
        # batch allocates no float64 temporary (x * g is g * x in IEEE
        # arithmetic, so the operations are those of refresh).
        g = self._gamma
        c = self.scores[:, lo:hi]
        term = self._scratch[:rows * (hi - lo)].reshape(rows, hi - lo)
        np.divide(st.nbr_counts[:, lo:hi], self._denom[:, None], out=c)
        np.multiply(c, g, out=c)
        if self._blend_liking:
            np.multiply(st.liking[:, lo:hi], 1.0 - g, out=term)
            c += term
        if self._fashion:
            runs, n = self._runs, self._run_size
            np.multiply(st.tolerance.reshape(runs, n, 1),
                        st.advertisement.reshape(-1, 1, cap)[:, :, lo:hi],
                        out=term.reshape(runs, n, hi - lo))
            c += term
        np.copyto(c, -np.inf, where=st.consumed[:, lo:hi] != 0)
        self.m = hi

    def choose(self, pen: np.ndarray):
        """This round's consumers and their items, agent rows ascending.

        pen is the per-item penalty of the live items, one row per run
        (a vector for a single market); cultural mode has none and ignores
        it. An agent abstains when nothing is left for it (best score
        -inf) or its best score is below min_utility. Ties go to the
        lowest item id.
        """
        rows, m = len(self._rows), self.m
        scores = self.scores[:, :m]
        if self._fashion:
            out = self._scratch[:rows * m].reshape(self._runs, self._run_size, m)
            np.subtract(scores.reshape(out.shape), pen.reshape(-1, 1, m), out=out)
            scores = out.reshape(rows, m)
        choice = scores.argmax(axis=1)  # first max = lowest id
        best = scores[self._rows, choice]
        if self._min_utility is None:
            keep = best != -np.inf
        else:
            keep = best >= self._min_utility
        agents = np.flatnonzero(keep)
        return agents, choice[agents]

    def refresh(self, rows: np.ndarray, cols: np.ndarray,
                agents: np.ndarray, items: np.ndarray) -> None:
        """Re-score after a commit.

        (rows, cols) are the cells whose neighbour counts the commit
        raised, repeats allowed; (agents, items) are the pairs it
        consumed.
        """
        st = self.state
        cap = self.scores.shape[1]
        flat = rows * cap
        flat += cols
        g = self._gamma
        if np.ndim(g):
            g = g.take(rows)
        # The same operations as sync, gathered per cell and done in place
        # (x * g is g * x in IEEE arithmetic).
        c = st.nbr_counts.reshape(-1).take(flat) / self._denom.take(rows)
        c *= g
        if self._blend_liking:
            liked = st.liking.reshape(-1).take(flat)
            liked *= 1.0 - g
            c += liked
        if self._fashion:
            pull = st.tolerance.take(rows)
            # Each row's run picks its row of the (runs, cap) advertisement.
            ad_at = cols if self._runs == 1 else rows // self._run_size * cap + cols
            pull *= st.advertisement.reshape(-1).take(ad_at)
            c += pull
        np.copyto(c, -np.inf, where=st.consumed.reshape(-1).take(flat) != 0)
        scores = self.scores.reshape(-1)
        scores.put(flat, c)
        scores.put(agents * cap + items, -np.inf)


def decide_round(
    liking: np.ndarray,        # float64 (n, cap)
    tolerance: np.ndarray,     # float64 (n,)
    advertisement: np.ndarray, # float64 (cap,)
    pen: np.ndarray,           # float64 (m,) per-item penalty this round
    nbr_counts: np.ndarray,    # int64 (n, cap)
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
