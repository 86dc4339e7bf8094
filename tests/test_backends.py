"""Tests of kernel.decide_round, the full-recompute decision reference.

The market's score cache (model.MarketBatch.scores) is held to
decide_round (see tests/test_engine.py::TestScoreTable); here decide_round itself is held to
a scalar per-element recomputation of the same contract.
"""

import copy

import numpy as np

from fashsim.graph import build_random
from fashsim.kernel import decide_round
from fashsim.model import CONSUMED_DTYPE, MarketParams, MarketState, penalty


def rng_from(seed):
    return np.random.default_rng(np.random.PCG64(seed))


def random_kernel_inputs(rng, n=None, m=None, **params):
    """A fashion-mode MarketState in a mid-run state, on a real graph:
    round labels in consumed, nbr_counts that agree with them, and random
    counts behind the penalties. params go to MarketParams."""
    if n is None:
        n = int(rng.integers(2, 12))
    if m is None:
        m = int(rng.integers(1, 9))
    graph = build_random(n, float(rng.random()), rng)
    state = MarketState(MarketParams(beta=float(rng.uniform(0.5, 20.0)), **params),
                        graph, "fashion", liking=rng.random((n, m)),
                        tolerance=1.0 - rng.random(n), advertisement=rng.random(m))
    taken = rng.random((n, m)) < 0.35
    # Labels up to 2^31 - 1 need the record's widest type, which
    # commit_round switches to past 32,767; the int16 one would wrap them.
    state.consumed = np.where(taken, rng.integers(1, 2**31, (n, m)), 0).astype(CONSUMED_DTYPE)
    assert np.array_equal(state.consumed != 0, taken)
    for i in range(n):
        state.nbr_counts[i] = taken[graph.neighbor_array(i)].sum(axis=0)
    state.counts[:] = rng.integers(0, n + 1, m)
    return state


def choices(state):
    """decide_round's pairs as one item per agent, -1 = abstain."""
    out = np.full(state.n_agents, -1)
    agents, items = decide_round(state)
    out[agents] = items
    return out


def scalar_score(state, i, a):
    """Agent i's score for item a, one scalar operation at a time."""
    p, deg = state.params, int(state.graph.degrees[i])
    s = int(state.nbr_counts[i, a]) / deg if deg > 0 else 0.0
    score = p.gamma * s
    if p.utility_social_blend == "liking":
        score += (1.0 - p.gamma) * float(state.liking[i, a])
    ad = float(state.advertisement[a])
    score += float(state.tolerance[i]) * ad
    return score - penalty(int(state.counts[a]) / state.n_agents, ad, p.beta, p.sigmoid_center)


def scalar_reference(state):
    """Slow per-element recomputation of the kernel contract."""
    floor = state.params.min_utility
    out = np.empty(state.n_agents, dtype=np.int64)
    for i in range(state.n_agents):
        best, best_score = -1, None
        for a in range(state.m):
            if state.consumed[i, a]:
                continue
            score = scalar_score(state, i, a)
            if best_score is None or score > best_score:
                best, best_score = a, score
        if best >= 0 and floor is not None and best_score < floor:
            best = -1
        out[i] = best
    return out


def relabeled(state, perm):
    """A copy of state with item perm[j] moved to column j."""
    out = copy.deepcopy(state)
    for name in ("liking", "nbr_counts", "consumed"):
        getattr(out, name)[:] = getattr(state, name)[:, perm]
    for name in ("advertisement", "counts"):
        getattr(out, name)[:] = getattr(state, name)[perm]
    return out


class TestDecideRound:
    def test_matches_the_scalar_reference(self):
        rng = rng_from(71)
        for _ in range(60):
            gamma = float(rng.random())
            blend = "liking" if rng.random() < 0.5 else "literal_consumption"
            floor = float(rng.uniform(-0.5, 0.8)) if rng.random() < 0.3 else None
            state = random_kernel_inputs(rng, gamma=gamma, utility_social_blend=blend,
                                         min_utility=floor)
            assert np.array_equal(choices(state), scalar_reference(state))

    def test_never_chooses_a_consumed_item(self):
        rng = rng_from(72)
        for _ in range(40):
            state = random_kernel_inputs(rng, gamma=float(rng.random()))
            for i, a in enumerate(choices(state).tolist()):
                if a >= 0:
                    assert state.consumed[i, a] == 0
                else:
                    assert np.all(state.consumed[i] != 0)

    def test_structural_ties_break_to_the_lowest_id(self):
        rng = rng_from(73)
        for _ in range(30):
            state = random_kernel_inputs(rng, n=6, m=5, gamma=0.4)
            for key in ("liking", "consumed", "nbr_counts"):
                getattr(state, key)[:, 3] = getattr(state, key)[:, 1]
            for key in ("advertisement", "counts"):
                getattr(state, key)[3] = getattr(state, key)[1]
            # column 3 is a clone of column 1, so it can never win the argmax
            assert 3 not in choices(state).tolist()

    def test_relabeling_items_relabels_choices(self):
        rng = rng_from(74)
        for _ in range(40):
            state = random_kernel_inputs(rng, gamma=float(rng.random()))
            base = choices(state)
            perm = rng.permutation(state.m)
            inv = np.argsort(perm)
            got = choices(relabeled(state, perm))
            want = np.where(base >= 0, inv[base], -1)
            assert np.array_equal(got, want)

    def test_full_abstention_cases(self):
        rng = rng_from(75)
        state = random_kernel_inputs(rng, n=4, m=3, gamma=0.5)
        state.consumed[:] = 1
        assert np.all(choices(state) == -1)
        state = random_kernel_inputs(rng, n=4, m=3, gamma=0.5, min_utility=99.0)
        state.consumed[:] = 0
        assert np.all(choices(state) == -1)

    def test_a_best_score_on_the_floor_is_kept(self):
        """An agent whose best score equals min_utility consumes; one ulp
        higher, it abstains. The cache's choose agrees at both floors."""
        for seed in range(76, 96):
            state = random_kernel_inputs(rng_from(seed), gamma=0.5)
            want = scalar_reference(state)
            assert (want >= 0).any()
            i = int(np.argmax(want >= 0))
            floor = scalar_score(state, i, want[i])
            for at, keep in ((floor, True), (np.nextafter(floor, np.inf), False)):
                state = random_kernel_inputs(rng_from(seed), gamma=0.5, min_utility=at)
                agents, items = decide_round(state)
                assert (i in agents.tolist()) == keep
                got = state.choose()
                assert got[0].tolist() == agents.tolist()
                assert got[1].tolist() == items.tolist()
