"""Graph builders: exact small lattices, randomized invariants, Monte Carlo."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fashsim import graph as graph_module
from fashsim.graph import (
    SocialGraph,
    TopologySpec,
    build_random,
    build_ring,
    build_small_world,
    neighbors,
)


def rng_from(seed):
    return np.random.default_rng(np.random.PCG64(seed))


def assert_well_formed(g):
    """CSR sanity: sorted unique rows, no self loops, symmetric, frozen."""
    assert g.offsets[0] == 0
    assert g.offsets[-1] == len(g.targets)
    assert np.all(np.diff(g.offsets) >= 0)
    for i in range(g.n):
        row = g.neighbor_array(i)
        if len(row) > 1:
            assert np.all(np.diff(row) > 0)
        assert i not in row
        for j in row.tolist():
            assert g.has_edge(j, i)
    assert not g.offsets.flags.writeable
    assert not g.targets.flags.writeable
    assert 2 * g.edge_count == len(g.targets)
    assert int(g.degrees.sum()) == len(g.targets)


class TestRing:
    def test_small_neighborhoods(self):
        assert build_ring(6, 2).neighbors(0) == {1, 5}
        assert build_ring(4, 2).neighbors(2) == {1, 3}
        assert build_ring(10, 4).neighbors(0) == {1, 2, 8, 9}
        assert build_ring(10, 4).neighbors(9) == {0, 1, 7, 8}

    def test_k4_wraps_into_complete_graph(self):
        g = build_ring(5, 4)
        for i in range(5):
            assert g.neighbors(i) == set(range(5)) - {i}
        assert g.edge_count == 10

    def test_degrees_and_edge_count(self):
        for n, k in [(3, 2), (8, 2), (9, 4), (50, 6)]:
            g = build_ring(n, k)
            assert_well_formed(g)
            assert np.all(g.degrees == k)
            assert g.edge_count == n * k // 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_ring(2, 2)
        with pytest.raises(ValueError):
            build_ring(10, 3)
        with pytest.raises(ValueError):
            build_ring(10, 10)
        with pytest.raises(ValueError):
            build_ring(10, 0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(3, 40), half=st.integers(1, 6))
    def test_every_vertex_has_degree_k(self, n, half):
        k = 2 * half
        if k >= n:
            return
        g = build_ring(n, k)
        assert np.all(g.degrees == k)
        assert_well_formed(g)

    def test_matches_the_set_reference(self):
        for n in range(3, 40):
            for k in range(2, min(n, 13), 2):
                assert build_ring(n, k) == SocialGraph.from_adjacency(oracles.ring_sets(n, k))


class TestRandom:
    def test_p_zero_has_no_edges(self):
        g = build_random(10, 0.0, rng_from(1))
        assert g.edge_count == 0
        assert all(g.degree(i) == 0 for i in range(10))

    def test_p_one_is_complete(self):
        g = build_random(7, 1.0, rng_from(1))
        assert g.edge_count == 21
        for i in range(7):
            assert g.neighbors(i) == set(range(7)) - {i}

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_random(1, 0.5, rng_from(0))
        with pytest.raises(ValueError):
            build_random(5, -0.1, rng_from(0))
        with pytest.raises(ValueError):
            build_random(5, 1.5, rng_from(0))

    def test_same_seed_same_graph(self):
        a = build_random(30, 0.2, rng_from(99))
        b = build_random(30, 0.2, rng_from(99))
        assert a == b
        c = build_random(30, 0.2, rng_from(100))
        assert a != c

    def test_mean_edge_count_matches_binomial(self):
        # n=50, p=0.1: E[edges] = 1225 * 0.1 = 122.5. Sample std per graph
        # is about 10.5, so over 1500 seeds the mean has a standard error
        # near 0.27; the 2% band (2.45 wide) sits nine sigma out.
        n, p, trials = 50, 0.1, 1500
        expect = p * n * (n - 1) / 2
        total = 0
        for seed in range(trials):
            total += build_random(n, p, rng_from(seed)).edge_count
        mean = total / trials
        assert abs(mean - expect) <= 0.02 * expect

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 30), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
    def test_always_well_formed(self, n, p, seed):
        assert_well_formed(build_random(n, p, rng_from(seed)))

    @pytest.mark.parametrize("n, p", [
        (n, p) for n in (2, 3, 50, 300) for p in (0.0, 0.002, 0.03, 0.5, 1.0)
    ] + [(1500, 0.0), (1500, 0.002), (1500, 0.03)])
    def test_matches_the_row_by_row_reference(self, n, p):
        """Same graph and same stream position as one draw per row; 1500
        agents draw about 1.1M doubles, across several blocks."""
        got_rng, want_rng = rng_from(n), rng_from(n)
        got = build_random(n, p, got_rng)
        want = oracles.random_graph_by_rows(n, p, want_rng)
        assert got == want
        assert got_rng.random() == want_rng.random()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 40), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32),
           block=st.integers(1, 80))
    def test_any_block_size_gives_the_reference(self, n, p, seed, block):
        got_rng, want_rng = rng_from(seed), rng_from(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_RANDOM_BLOCK", block)
            got = build_random(n, p, got_rng)
        assert got == oracles.random_graph_by_rows(n, p, want_rng)
        assert got_rng.random() == want_rng.random()


class TestSmallWorld:
    def test_p_zero_reproduces_the_ring_exactly(self):
        for n, k in [(7, 2), (12, 4), (30, 6)]:
            ring = build_ring(n, k)
            sw = build_small_world(n, k, 0.0, rng_from(5))
            assert np.array_equal(sw.offsets, ring.offsets)
            assert np.array_equal(sw.targets, ring.targets)

    def test_edge_count_is_preserved(self):
        for p in (0.1, 0.5, 1.0):
            for seed in range(20):
                g = build_small_world(20, 4, p, rng_from(seed))
                assert g.edge_count == 40
                assert_well_formed(g)

    def test_rewiring_actually_moves_edges(self):
        ring = build_ring(30, 4)
        moved = sum(
            build_small_world(30, 4, 1.0, rng_from(seed)) != ring
            for seed in range(10)
        )
        assert moved == 10

    def test_saturated_vertex_keeps_its_edge(self):
        # k = n-1 is impossible (k even, k < n), but n=5, k=4 makes the
        # ring complete: no vertex has a rewiring target, so p=1 must
        # return the complete graph unchanged.
        g = build_small_world(5, 4, 1.0, rng_from(3))
        assert g == build_ring(5, 4)

    def test_clustering_falls_below_the_ring(self):
        ring_c = oracles.mean_clustering(build_ring(30, 6))
        assert abs(ring_c - 0.6) < 1e-12  # regular lattice value for k=6
        acc = 0.0
        trials = 60
        for seed in range(trials):
            acc += oracles.mean_clustering(build_small_world(30, 6, 0.5, rng_from(seed)))
        assert acc / trials < 0.6 * ring_c

    def test_same_seed_same_graph(self):
        a = build_small_world(25, 4, 0.3, rng_from(7))
        b = build_small_world(25, 4, 0.3, rng_from(7))
        assert a == b

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_small_world(10, 3, 0.1, rng_from(0))
        with pytest.raises(ValueError):
            build_small_world(10, 4, -0.5, rng_from(0))
        with pytest.raises(ValueError):
            build_small_world(10, 4, 2.0, rng_from(0))

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(3, 30),
        half=st.integers(1, 4),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32),
    )
    def test_always_well_formed_and_size_preserving(self, n, half, p, seed):
        k = 2 * half
        if k >= n:
            return
        g = build_small_world(n, k, p, rng_from(seed))
        assert_well_formed(g)
        assert g.edge_count == n * k // 2

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 40),
        half=st.integers(1, 5),
        p=st.sampled_from([0.0, 0.1, 0.5, 1.0]) | st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32),
    )
    def test_matches_the_set_reference(self, n, half, p, seed):
        k = 2 * half
        if k >= n:
            return
        got_rng, want_rng = rng_from(seed), rng_from(seed)
        got = build_small_world(n, k, p, got_rng)
        assert got == oracles.small_world_by_sets(n, k, p, want_rng)
        assert got_rng.random() == want_rng.random()


class TestSocialGraph:
    def test_from_adjacency_roundtrip(self):
        g = SocialGraph.from_adjacency({0: [1, 2], 1: [0], 2: [0, 3], 3: [2]})
        assert g.n == 4
        assert g.edge_count == 3
        assert g.neighbors(2) == {0, 3}
        assert g.degree(1) == 1
        assert g.has_edge(0, 2) and not g.has_edge(1, 3)
        assert_well_formed(g)

    def test_from_adjacency_rejects_bad_input(self):
        with pytest.raises(ValueError):
            SocialGraph.from_adjacency({0: [1], 2: [0]})  # gap in keys
        with pytest.raises(ValueError):
            SocialGraph.from_adjacency({0: [0]})  # self loop
        with pytest.raises(ValueError):
            SocialGraph.from_adjacency({0: [1], 1: []})  # asymmetric
        with pytest.raises(ValueError):
            SocialGraph.from_adjacency({0: [5], 1: [0]})  # out of range

    def test_rejects_decreasing_offsets(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            SocialGraph(3, [0, 2, 1, 2], [1, 0])

    def test_rejects_targets_out_of_range(self):
        with pytest.raises(ValueError, match="targets"):
            SocialGraph(3, [0, 1, 2, 2], [-1, 0])
        with pytest.raises(ValueError, match="targets"):
            SocialGraph(3, [0, 1, 2, 2], [3, 0])

    def test_isolated_vertices_are_legal(self):
        g = SocialGraph.from_adjacency({0: [], 1: [], 2: []})
        assert g.edge_count == 0
        assert g.neighbors(1) == set()
        assert len(g.neighbor_array(1)) == 0

    def test_neighbor_array_is_read_only(self):
        g = build_ring(6, 2)
        row = g.neighbor_array(0)
        with pytest.raises(ValueError):
            row[0] = 3

    def test_vertex_bounds_checked(self):
        g = build_ring(6, 2)
        for bad in (-1, 6, 100):
            with pytest.raises(ValueError):
                g.degree(bad)
            with pytest.raises(ValueError):
                g.neighbor_array(bad)

    def test_equality_and_module_neighbors(self):
        a, b = build_ring(8, 2), build_ring(8, 2)
        assert a == b and a != build_ring(8, 4)
        assert neighbors(a, 3) == a.neighbors(3) == {2, 4}


class TestTopologySpec:
    def test_defaults(self):
        spec = TopologySpec()
        assert (spec.kind, spec.k, spec.p) == ("ring", 4, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            TopologySpec(kind="torus")
        with pytest.raises(ValueError):
            TopologySpec(kind="ring", k=3)
        with pytest.raises(ValueError):
            TopologySpec(kind="small_world", k=4, p=1.5)
        with pytest.raises(ValueError):
            TopologySpec(kind="random", p=-0.2)
        TopologySpec(kind="random", k=7)  # k is ignored for random graphs

    def test_validate_for_agent_count(self):
        with pytest.raises(ValueError):
            TopologySpec(kind="ring", k=4).validate_for(4)
        TopologySpec(kind="ring", k=4).validate_for(5)
        with pytest.raises(ValueError):
            TopologySpec(kind="random").validate_for(1)
        TopologySpec(kind="random").validate_for(2)

    def test_build_dispatches_to_the_builders(self):
        assert TopologySpec(kind="ring", k=2).build(6, rng_from(0)) == build_ring(6, 2)
        assert TopologySpec(kind="random", p=0.3).build(15, rng_from(4)) == build_random(
            15, 0.3, rng_from(4)
        )
        assert TopologySpec(kind="small_world", k=4, p=0.2).build(
            15, rng_from(4)
        ) == build_small_world(15, 4, 0.2, rng_from(4))
