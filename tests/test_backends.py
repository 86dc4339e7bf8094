"""Tests of kernel.decide_round, the full-recompute decision reference.

The market's score cache (model.MarketBatch.scores) is held to
decide_round (see tests/test_engine.py::TestScoreTable); here decide_round itself is held to
a scalar per-element recomputation of the same contract.
"""

import numpy as np

from fashsim.graph import build_random
from fashsim.kernel import decide_round as py_decide


def rng_from(seed):
    return np.random.default_rng(np.random.PCG64(seed))


def random_kernel_inputs(rng, n=None, m=None):
    """A consistent bundle of raw kernel arrays with a real graph behind it."""
    if n is None:
        n = int(rng.integers(2, 12))
    if m is None:
        m = int(rng.integers(1, 9))
    graph = build_random(n, float(rng.random()), rng)
    liking = rng.random((n, m))
    tolerance = 1.0 - rng.random(n)
    ads = rng.random(m)
    pen = rng.random(m) * 0.8
    # The market's record: each consumption's 1-based round, 0 = not consumed.
    taken = rng.random((n, m)) < 0.35
    consumed = np.where(taken, rng.integers(1, 2**31, (n, m)), 0).astype(np.int32)
    nbr_counts = np.zeros((n, m), dtype=np.int64)
    for i in range(n):
        nbrs = graph.neighbor_array(i)
        if len(nbrs):
            nbr_counts[i] = taken[nbrs, :].sum(axis=0)
    return dict(
        liking=liking, tolerance=tolerance, advertisement=ads, pen=pen,
        nbr_counts=nbr_counts, degrees=graph.degrees.copy(), consumed=consumed,
        n=n, m=m,
    )


def call(decide, arrs, gamma, blend_liking, min_utility=0.0, has_min=False):
    out = np.empty(arrs["n"], dtype=np.int64)
    decide(
        arrs["liking"], arrs["tolerance"], arrs["advertisement"], arrs["pen"],
        arrs["nbr_counts"], arrs["degrees"], arrs["consumed"],
        gamma, blend_liking, arrs["m"], min_utility, has_min, out,
    )
    return out


def scalar_reference(arrs, gamma, blend_liking, min_utility, has_min):
    """Slow per-element recomputation of the kernel contract."""
    n, m = arrs["n"], arrs["m"]
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        best, best_score = -1, None
        for a in range(m):
            if arrs["consumed"][i, a]:
                continue
            deg = int(arrs["degrees"][i])
            s = (arrs["nbr_counts"][i, a] / deg) if deg > 0 else 0.0
            score = gamma * s
            if blend_liking:
                score += (1.0 - gamma) * arrs["liking"][i, a]
            score += arrs["tolerance"][i] * arrs["advertisement"][a]
            score -= arrs["pen"][a]
            if best_score is None or score > best_score:
                best, best_score = a, score
        if best >= 0 and has_min and best_score < min_utility:
            best = -1
        out[i] = best
    return out


class TestFallbackKernel:
    def test_matches_the_scalar_reference(self):
        rng = rng_from(71)
        for _ in range(60):
            arrs = random_kernel_inputs(rng)
            gamma = float(rng.random())
            blend = bool(rng.random() < 0.5)
            has_min = bool(rng.random() < 0.3)
            floor = float(rng.uniform(-0.5, 0.8))
            got = call(py_decide, arrs, gamma, blend, floor, has_min)
            want = scalar_reference(arrs, gamma, blend, floor, has_min)
            assert np.array_equal(got, want)

    def test_never_chooses_a_consumed_item(self):
        rng = rng_from(72)
        for _ in range(40):
            arrs = random_kernel_inputs(rng)
            out = call(py_decide, arrs, float(rng.random()), True)
            for i, a in enumerate(out.tolist()):
                if a >= 0:
                    assert arrs["consumed"][i, a] == 0
                else:
                    assert np.all(arrs["consumed"][i] != 0)

    def test_structural_ties_break_to_the_lowest_id(self):
        rng = rng_from(73)
        for _ in range(30):
            arrs = random_kernel_inputs(rng, n=6, m=5)
            for key in ("liking", "consumed", "nbr_counts"):
                arrs[key][:, 3] = arrs[key][:, 1]
            arrs["advertisement"][3] = arrs["advertisement"][1]
            arrs["pen"][3] = arrs["pen"][1]
            out = call(py_decide, arrs, 0.4, True)
            # column 3 is a clone of column 1, so it can never win the argmax
            assert 3 not in out.tolist()

    def test_relabeling_items_relabels_choices(self):
        rng = rng_from(74)
        for _ in range(40):
            arrs = random_kernel_inputs(rng)
            gamma = float(rng.random())
            base = call(py_decide, arrs, gamma, True)
            perm = rng.permutation(arrs["m"])
            inv = np.argsort(perm)
            shuffled = dict(
                arrs,
                liking=np.ascontiguousarray(arrs["liking"][:, perm]),
                advertisement=np.ascontiguousarray(arrs["advertisement"][perm]),
                pen=np.ascontiguousarray(arrs["pen"][perm]),
                nbr_counts=np.ascontiguousarray(arrs["nbr_counts"][:, perm]),
                consumed=np.ascontiguousarray(arrs["consumed"][:, perm]),
            )
            got = call(py_decide, shuffled, gamma, True)
            want = np.where(base >= 0, inv[base], -1)
            assert np.array_equal(got, want)

    def test_full_abstention_cases(self):
        rng = rng_from(75)
        arrs = random_kernel_inputs(rng, n=4, m=3)
        arrs["consumed"][:] = 1
        out = call(py_decide, arrs, 0.5, True)
        assert np.all(out == -1)
        arrs["consumed"][:] = 0
        out = call(py_decide, arrs, 0.5, True, min_utility=99.0, has_min=True)
        assert np.all(out == -1)
