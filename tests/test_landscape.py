"""Landscape construction, layout, centroids, and export round-trips.

Edge sets are checked against an all-pairs popcount oracle that never uses
the library's bit-flip construction.
"""

import csv
import functools
import io
import itertools
import json
import math
import sys
import time
import tracemalloc

import networkx as nx
import numpy as np
from networkx.drawing.layout import _kamada_kawai_costfn
import pytest
from scipy.optimize import minimize, rosen, rosen_der
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components, shortest_path
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from novascape.corpus import FilterConfig, apply_filters, pack_rows
from novascape.errors import EmptyGraph
from novascape import _compiled, landscape
from novascape.landscape import (
    _SETULB_SIGNATURE,
    _distinct,
    _hops,
    _kamada_kawai_energy,
    _keys,
    _main_component,
    _minimize_lbfgsb,
    CLASS_BASELINE,
    CLASS_CROWDFUNDED,
    CLASS_FORMER,
    EXPORT_COLUMNS,
    GROUP_CROWDFUNDED,
    GROUP_TRADITIONAL,
    LandscapeGraph,
    build_landscape,
    centroids,
    classify_snapshots,
    export_graph,
    export_rows,
    flip_edges,
    layout,
    render_svg,
    routines,
    vector_bits,
)

from conftest import (flip_edges_loop, key_of, key_words, make_record, make_recordset, make_registry,
                      recordset_of)
from novascape.synth import SynthConfig, generate_corpus


def snapshot(records, year, min_type_count):
    """The graph of one snapshot year."""
    (graph,) = build_landscape(records, [year], min_type_count)
    return graph


def key_pairs(edges, keys) -> tuple:
    """Index pairs as int key pairs, through the keys in ascending order."""
    keys = sorted(keys)
    return tuple((keys[u], keys[v]) for u, v in edges.tolist())


def columns_of(graph) -> dict:
    """{key: (total_count, crowdfunded_count, first_year)} of the graph's types."""
    return dict(zip(graph.keys, zip(graph.total_count.tolist(), graph.crowdfunded_count.tolist(),
                                    graph.first_year.tolist())))


def oracle_edges(keys):
    """All-pairs Hamming-1 edge oracle over packed keys."""
    out = set()
    for a, b in itertools.combinations(sorted(keys), 2):
        if (a ^ b).bit_count() == 1:
            out.add((min(a, b), max(a, b)))
    return out


@st.composite
def flip_key_sets(draw):
    """(d, keys): up to 40 distinct keys of d bits, each a drawn centre with up
    to two bits flipped, so that flips find one another; bits 0, 63, 64 and 127
    are drawn often, so keys differ in a word's lowest and top bits."""
    dimension = draw(st.sampled_from((1, 16, 51, 63, 64, 65, 130)))
    centres = draw(st.lists(st.integers(0, 2**dimension - 1), min_size=1, max_size=3))
    bit = st.one_of(st.sampled_from([b for b in (0, 63, 64, 127) if b < dimension]), st.integers(0, dimension - 1))
    key = st.builds(lambda centre, bits: functools.reduce(lambda k, b: k ^ 1 << b, bits, centre),
                    st.sampled_from(centres), st.lists(bit, max_size=2))
    return dimension, draw(st.sets(key, max_size=40))


class TestPacking:
    def test_round_trip(self):
        bits = [1, 0, 1, 1, 0]
        key = key_of(bits)
        assert vector_bits(key, 5) == "10110"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=51))
    def test_pack_unpack_identity(self, bits):
        assert vector_bits(key_of(bits), len(bits)) == "".join(map(str, bits))


class TestBuild:
    def test_two_nodes_no_edge(self):
        rs = make_recordset([("a", 2010, [1, 1, 0]), ("b", 2011, [1, 1, 0]), ("c", 2011, [0, 1, 1])])
        g = snapshot(rs, 2011, 1)
        assert len(g.keys) == 2
        assert sorted(g.total_count.tolist()) == [1, 2]
        assert g.edges.shape == (0, 2)

    def test_distance_one_pair_gets_edge(self):
        rs = make_recordset([("a", 2010, [1, 0]), ("b", 2011, [1, 1])])
        g = snapshot(rs, 2011, 1)
        assert len(g.edges) == 1

    def test_counts_are_cumulative_to_snapshot(self):
        rs = make_recordset(
            [("a", 2010, [1, 1]), ("b", 2012, [1, 1]), ("c", 2014, [1, 1])]
        )
        g = snapshot(rs, 2012, 1)
        assert columns_of(g)[key_of([1, 1])] == (2, 0, 2010)

    def test_plotted_filter_uses_whole_corpus_counts(self):
        # one record by 2010 but six overall: plotted even in the early snapshot
        rows = [("e", 2010, [1, 1])] + [(f"l{i}", 2015, [1, 1]) for i in range(5)]
        rows += [("solo", 2010, [1, 0])]
        rs = make_recordset(rows)
        g = snapshot(rs, 2010, 6)
        assert g.keys == (key_of([1, 1]),)
        assert g.total_count.tolist() == [1]

    def test_cf_counts_and_share(self):
        rs = make_recordset(
            [("a", 2010, [1, 1]), ("b", 2011, [1, 1])], crowdfunded=True
        )
        g = snapshot(rs, 2011, 1)
        assert g.keys == (key_of([1, 1]),)
        assert g.crowdfunded_count.tolist() == [2]
        assert g.cf_share.tolist() == [1.0]

    def test_snapshot_monotonicity(self):
        rng = np.random.default_rng(7)
        rows = [
            (f"g{i}", int(rng.integers(2006, 2018)), rng.integers(0, 2, size=5).tolist())
            for i in range(120)
        ]
        rs = make_recordset(rows)
        years = [2008, 2012, 2017]
        graphs = build_landscape(rs, years, min_type_count=2)
        for early, late in zip(graphs, graphs[1:]):
            assert set(early.keys) <= set(late.keys)
            late_counts = columns_of(late)
            for key, (total, _, _) in columns_of(early).items():
                assert total <= late_counts[key][0]
        for g in graphs:
            assert ((0.0 <= g.cf_share) & (g.cf_share <= 1.0)).all()


class TestEdges:
    @settings(max_examples=80, deadline=None)
    @given(st.sets(st.integers(0, 2**10 - 1), min_size=0, max_size=60))
    def test_flip_edges_matches_all_pairs_oracle(self, keys):
        assert set(key_pairs(flip_edges(key_words(keys, 10), 10), keys)) == oracle_edges(keys)

    @settings(max_examples=300, deadline=None)
    @given(flip_key_sets())
    @example((1, set()))
    @example((64, {0}))
    @example((130, {0}))
    @example((65, {0, 1 << 63, 1 << 64, 1 << 63 | 1 << 64}))
    @example((130, {2**130 - 1, 2**130 - 1 ^ 1 << 127, 2**130 - 1 ^ 1 << 63}))
    def test_flip_edges_equal_the_flip_loop(self, case):
        dimension, keys = case
        edges = flip_edges(key_words(keys, dimension), dimension)
        # the index pairs in ascending order are the loop's sorted key pairs
        assert key_pairs(edges, keys) == flip_edges_loop(sorted(keys), dimension)
        assert edges.shape == (len(edges), 2) and edges.dtype.kind == "i"

    def test_edges_restricted_to_plotted(self):
        rs = make_recordset(
            [("a", 2010, [1, 0]), ("b", 2010, [1, 1]), ("c", 2010, [1, 1])]
        )
        g = snapshot(rs, 2010, 2)
        assert g.keys == (key_of([1, 1]),)
        assert g.edges.shape == (0, 2)


class TestLayout:
    def path_graph_corpus(self):
        # three types in a path: 100 - 110 - 111
        rows = []
        for i, bits in enumerate(([1, 0, 0], [1, 1, 0], [1, 1, 1])):
            rows += [(f"g{i}_{j}", 2010, bits) for j in range(2)]
        return make_recordset(rows)

    def test_deterministic(self):
        rs = self.path_graph_corpus()
        g = snapshot(rs, 2010, 1)
        assert layout(g, seed=11) == layout(g, seed=11)

    def test_seed_changes_positions(self):
        rs = self.path_graph_corpus()
        g = snapshot(rs, 2010, 1)
        assert layout(g, seed=11) != layout(g, seed=12)

    def test_path_spacing_within_20_percent(self):
        rs = self.path_graph_corpus()
        g = snapshot(rs, 2010, 1)
        pos = layout(g, seed=3)
        a, b, c = (pos[key_of(v)] for v in ([1, 0, 0], [1, 1, 0], [1, 1, 1]))
        ab = math.dist(a, b)
        bc = math.dist(b, c)
        assert abs(ab - bc) / max(ab, bc) < 0.2

    def test_single_node_at_origin(self):
        rs = make_recordset([("a", 2010, [1, 1])])
        g = snapshot(rs, 2010, 1)
        assert layout(g, seed=5) == {key_of([1, 1]): (0.0, 0.0)}

    def test_empty_plotted_raises(self):
        rs = make_recordset([("a", 2010, [1, 1])])
        g = snapshot(rs, 2010, 99)
        with pytest.raises(EmptyGraph):
            layout(g, seed=5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10), st.lists(st.tuples(st.integers(0, 99), st.integers(0, 9)),
                                        min_size=1, max_size=14),
           st.integers(0, 2**32 - 1))
    def test_positions_equal_networkx_kamada_kawai(self, dimension, steps, seed):
        # a random walk of single-bit flips keeps the induced graph connected
        keys = [0]
        for parent, bit in steps:
            keys.append(keys[parent % len(keys)] ^ (1 << (bit % dimension)))
        keys = sorted(set(keys))
        assume(len(keys) > 1)
        graph = LandscapeGraph(
            snapshot_year=2010, dimension=dimension, keys=tuple(keys),
            total_count=np.ones(len(keys), dtype=np.int64), crowdfunded_count=np.zeros(len(keys), dtype=np.int64),
            first_year=np.full(len(keys), 2010), edges=flip_edges(key_words(keys, dimension), dimension),
        )
        g = nx.Graph()
        g.add_nodes_from(keys)
        g.add_edges_from(key_pairs(graph.edges, keys))
        rng = np.random.default_rng(seed)
        start = {k: rng.uniform(-1.0, 1.0, size=2) for k in keys}
        raw = nx.kamada_kawai_layout(g, dist=dict(nx.shortest_path_length(g)), pos=start)
        assert layout(graph, seed=seed) == {k: (float(p[0]), float(p[1])) for k, p in raw.items()}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 250), st.integers(0, 2**32 - 1), st.floats(-6, 3))
    def test_energy_equals_networkx_costfn(self, n, seed, log_scale):
        # summation-order differences show only on matrices well past the 15 keys above
        rng = np.random.default_rng(seed)
        hops = np.triu(rng.integers(1, 12, size=(n, n)), 1)
        eye = np.eye(n) * 1e-3
        invdist = 1 / (hops + hops.T + eye)
        pos_vec = rng.uniform(-1.0, 1.0, size=2 * n) * 10.0**log_scale
        cost, grad = _kamada_kawai_energy(pos_vec, invdist, np.empty((4, n, n)))
        want_cost, want_grad = _kamada_kawai_costfn(pos_vec, np, invdist, 1e-3, 2)
        assert cost == want_cost
        assert np.array_equal(grad, want_grad)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 120), st.integers(0, 2**32 - 1))
    def test_energy_buffers_carry_nothing_between_calls(self, n, seed):
        # one buffer set at two positions, as the optimizer reuses it, against fresh buffers
        rng = np.random.default_rng(seed)
        hops = np.triu(rng.integers(1, 12, size=(n, n)), 1)
        eye = np.eye(n) * 1e-3
        invdist = 1 / (hops + hops.T + eye)
        shared = np.full((4, n, n), np.nan)
        for pos_vec in rng.uniform(-1.0, 1.0, size=(2, 2 * n)):
            cost, grad = _kamada_kawai_energy(pos_vec, invdist, shared)
            want_cost, want_grad = _kamada_kawai_energy(pos_vec, invdist, np.zeros((4, n, n)))
            assert cost == want_cost
            assert np.array_equal(grad, want_grad)

    def test_energy_equals_networkx_costfn_at_600_nodes(self):
        # past the drawn sizes above, where the gradient's sums over rows are longest
        n = 600
        rng = np.random.default_rng(600)
        hops = np.triu(rng.integers(1, 12, size=(n, n)), 1)
        invdist = 1 / (hops + hops.T + np.eye(n) * 1e-3)
        pos_vec = rng.uniform(-1.0, 1.0, size=2 * n)
        cost, grad = _kamada_kawai_energy(pos_vec, invdist, np.empty((4, n, n)))
        want_cost, want_grad = _kamada_kawai_costfn(pos_vec, np, invdist, 1e-3, 2)
        assert cost == want_cost
        assert np.array_equal(grad, want_grad)

    def test_layout_peak_memory_stays_under_5_6_matrices(self):
        # 375 positioned types; the energy holds five (n, n) float64 arrays, and
        # _hops's breadth-first frontier stays below that
        graph = snapshot_of_375_types()
        tracemalloc.start()
        try:
            n = len(layout(graph))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 375
        assert peak < 5.6 * n * n * 8

    def test_demo_sized_positions_equal_networkx_kamada_kawai(self):
        graph = demo_final_snapshot()
        g = nx.Graph()
        g.add_nodes_from(graph.keys)
        g.add_edges_from(key_pairs(graph.edges, graph.keys))
        main = sorted(max(nx.connected_components(g), key=len))
        assert len(main) > 150
        start = dict(zip(main, np.random.default_rng(42).uniform(-1.0, 1.0, size=(len(main), 2))))
        sub = g.subgraph(main)
        raw = nx.kamada_kawai_layout(sub, dist=dict(nx.shortest_path_length(sub)), pos=start)
        assert layout(graph, seed=42) == {k: (float(p[0]), float(p[1])) for k, p in raw.items()}

    def test_equal_components_go_to_the_one_with_the_smallest_key(self):
        # {1, 9} and {4, 6} are two edges apart; 1 is the smallest key
        pairs = [[1, 0, 0, 0], [1, 0, 0, 1], [0, 0, 1, 0], [0, 1, 1, 0]]
        rs = make_recordset([(f"g{i}", 2010, bits) for i, bits in enumerate(pairs)])
        pos = layout(snapshot(rs, 2010, 1), seed=3)
        assert set(pos) == {key_of(pairs[0]), key_of(pairs[1])}
        # one more node makes {4, 6} the largest component
        rs = make_recordset([(f"g{i}", 2010, bits) for i, bits in enumerate(pairs + [[0, 1, 1, 1]])])
        pos = layout(snapshot(rs, 2010, 1), seed=3)
        assert set(pos) == {key_of(bits) for bits in pairs[2:] + [[0, 1, 1, 1]]}

    def test_nodes_outside_final_main_component_unpositioned(self):
        # main component of the final graph is the 3-node path; the isolate is excluded
        rows = [(f"p{i}", 2016, bits) for i, bits in enumerate(([1, 0, 0], [1, 1, 0], [1, 1, 1]))]
        rows.append(("iso", 2016, [0, 0, 1]))
        rs = make_recordset(rows)
        final = snapshot(rs, 2016, 1)
        pos = layout(final, seed=2)
        assert key_of([0, 0, 1]) not in pos
        assert len(pos) == 3


@st.composite
def edge_lists(draw):
    """(n, u, v): up to 30 nodes and the edges (u[i], v[i]) between them; isolated
    nodes, repeated edges and equal-sized components all occur."""
    n = draw(st.integers(1, 30))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
                          max_size=2 * n))
    u, v = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return n, u, v


def csgraph_main_component(n, u, v):
    """The main component and its hops as scipy's sparse graph routines give them."""
    adjacency = csr_array((np.ones(len(u)), (u, v)), shape=(n, n))
    labels = connected_components(adjacency, directed=False)[1]
    main = np.flatnonzero(labels == np.bincount(labels).argmax())
    return main, shortest_path(adjacency, directed=False, unweighted=True, indices=main)[:, main]


class TestHops:
    """Hop counts and the main component from numpy against networkx and scipy's csgraph."""

    def assert_oracles_agree(self, n, u, v):
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(zip(u.tolist(), v.tolist()))
        want = np.full((n, n), np.inf)
        for i, lengths in nx.shortest_path_length(g):
            for j, length in lengths.items():
                want[i, j] = length
        hops = _hops(n, u, v)
        assert hops.dtype == np.float64 and hops.tobytes() == want.tobytes()
        main, main_hops = _main_component(n, u, v)
        # the largest component; of equal ones, the one holding the lowest index
        assert main.tolist() == sorted(max(nx.connected_components(g), key=lambda c: (len(c), -min(c))))
        want_main, want_hops = csgraph_main_component(n, u, v)
        assert main.tolist() == want_main.tolist() and main_hops.tobytes() == want_hops.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(edge_lists())
    def test_random_graphs(self, graph):
        self.assert_oracles_agree(*graph)

    @pytest.mark.parametrize("n, edges", [
        (1, []),
        (4, []),  # isolated nodes only: the first is the main component
        (7, [(5, 6), (1, 2), (3, 4)]),  # three equal pairs and an isolate
        (9, [(6, 7), (7, 8), (0, 4), (4, 2), (1, 3), (3, 5)]),  # equal paths, lowest indices interleaved
        (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),  # two equal triangles
        (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),  # one cycle with a chord
        # many frontier positions reach the same pair in one hop
        (36, [(i, i + 1) for i in range(36) if i % 6 < 5] + [(i, i + 6) for i in range(30)]),  # 6x6 grid
        (10, [(i, j) for i in range(4) for j in range(4, 10)]),  # complete bipartite K(4, 6)
    ])
    def test_small_graphs(self, n, edges):
        u, v = np.array(edges, dtype=np.intp).reshape(-1, 2).T
        self.assert_oracles_agree(n, u, v)

    def test_sparse_snapshot_takes_no_dense_matrix_of_all_nodes(self):
        # report-large's snapshots plot about 2,000 types joined by about 120 edges
        n = 4000
        u, v = np.array([[10, 11], [11, 12], [3000, 3001], [7, 3999]], dtype=np.intp).T
        tracemalloc.start()
        try:
            main, hops = _main_component(n, u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert main.tolist() == [10, 11, 12] and hops.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        assert peak < 1_000_000  # one (n, n) float64 matrix would take 128 MB

    def test_demo_sized_snapshot(self):
        graph = demo_final_snapshot()
        u, v = graph.edges.T
        self.assert_oracles_agree(len(graph.keys), u, v)

    def test_hops_peak_memory_stays_under_5_matrices(self):
        # the hop matrix is the one (n, n) array; the frontier's arrays stay below four more
        graph = snapshot_of_375_types()
        tracemalloc.start()
        try:
            n = len(_main_component(len(graph.keys), *graph.edges.T)[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 375
        assert peak < 5 * n * n * 8


class TestHopsOnLongPaths:
    def test_thousand_node_path_matches_networkx(self):
        # the frontier holds each (source, node) pair once, so the 999 hops of a
        # path take well under a second; a pass over all n * n pairs per hop took 11.9 s
        n = 1000
        u = np.arange(n - 1, dtype=np.intp)
        start = time.perf_counter()
        hops = _hops(n, u, u + 1)
        elapsed = time.perf_counter() - start
        want = np.full((n, n), np.inf)
        for i, lengths in nx.shortest_path_length(nx.path_graph(n)):
            want[i, list(lengths)] = list(lengths.values())
        assert hops.tobytes() == want.tobytes()
        assert elapsed < 5.0


def snapshot_of_375_types():
    """The 2015 snapshot of types of at least 3 filtered synthetic records (d=16, 500 a year,
    seed 0): 375 in its main component."""
    records, _ = apply_filters(generate_corpus(SynthConfig(dimension=16, games_per_year=500, seed=0)),
                               FilterConfig())
    return snapshot(records, 2015, 3)


def demo_final_snapshot():
    """The README demo's final snapshot: about 200 positioned types."""
    rs = generate_corpus(SynthConfig(
        dimension=16, year_start=2006, year_end=2015, games_per_year=500,
        base_mechanism_rate=0.15, recombination_rate=0.6, base_mutation_bits=1.0,
        novelty_boost=2.0, seed=7))
    return snapshot(rs, 2015, 4)


def rosenbrock(x):
    return rosen(x), rosen_der(x)


class TestDirectLbfgsb:
    """_minimize_lbfgsb against scipy.optimize.minimize(method="L-BFGS-B", jac=True):
    the same x bit for bit, after as many iterations and evaluations."""

    def assert_same_as_scipy(self, fun, x0, args=()):
        x, nit, nfev = _minimize_lbfgsb(fun, x0, args)
        want = minimize(fun, x0, args=args, method="L-BFGS-B", jac=True)
        assert x.tobytes() == want.x.tobytes()
        assert (nit, nfev) == (want.nit, want.nfev)
        return nit

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 60), st.integers(0, 2**32 - 1))
    def test_kamada_kawai_problems(self, n, seed):
        rng = np.random.default_rng(seed)
        hops = np.triu(rng.integers(1, 12, size=(n, n)), 1)
        args = (1 / (hops + hops.T + np.eye(n) * 1e-3), np.empty((4, n, n)))
        self.assert_same_as_scipy(_kamada_kawai_energy, rng.uniform(-1.0, 1.0, size=2 * n), args)

    @pytest.mark.parametrize("x0", [(-1.2, 1.0), (0.0, 0.0), (2.0, -1.5), (-3.0, 4.0), (1.0, 1.0)])
    def test_rosenbrock(self, x0):
        nit = self.assert_same_as_scipy(rosenbrock, np.array(x0))
        assert nit > 10 or x0 == (1.0, 1.0)

    def test_installed_scipy_takes_the_direct_route(self, monkeypatch):
        # a scipy whose setulb changed would quietly bring back the scipy.optimize import
        assert routines("optimize/_lbfgsb", (_SETULB_SIGNATURE,)) is not None
        assert routines("optimize/_lbfgsb", (_SETULB_SIGNATURE,)).setulb.__doc__ == _SETULB_SIGNATURE
        # from the extension file, as in a process that never imported scipy.optimize
        monkeypatch.delitem(sys.modules, "scipy.optimize._lbfgsb", raising=False)
        assert routines.__wrapped__("optimize/_lbfgsb", (_SETULB_SIGNATURE,)).setulb.__doc__ == _SETULB_SIGNATURE
        assert "scipy.optimize._lbfgsb" not in sys.modules

    def test_no_direct_route_without_the_routine(self, monkeypatch):
        assert routines.__wrapped__("optimize/_lbfgsb", ("setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task)",)) is None
        monkeypatch.delitem(sys.modules, "scipy.optimize._lbfgsb", raising=False)
        monkeypatch.setattr(_compiled, "EXTENSION_SUFFIXES", [".missing"])
        assert routines.__wrapped__("optimize/_lbfgsb", (_SETULB_SIGNATURE,)) is None

    def test_fallback_gives_the_same_positions(self, monkeypatch):
        graph = demo_final_snapshot()
        direct = layout(graph, seed=42)

        def unreachable(*args):
            raise AssertionError("the direct route ran")

        monkeypatch.setattr(landscape, "routines", lambda relpath, signatures: None)
        monkeypatch.setattr(landscape, "_minimize_lbfgsb", unreachable)
        assert layout(graph, seed=42) == direct


class TestCentroids:
    def positioned_corpus(self):
        rows = [
            ("cf1", 2010, [1, 0], {"crowdfunded": True}),
            ("cf2", 2010, [1, 0], {"crowdfunded": True}),
            ("cf3", 2011, [0, 1], {"crowdfunded": True}),
            ("tr1", 2010, [1, 1], {"crowdfunded": False}),
        ]
        reg = make_registry(2)
        return recordset_of([make_record(r[0], r[1], r[2], reg, **r[3]) for r in rows], reg)

    def test_weighted_mean_by_hand(self):
        rs = self.positioned_corpus()
        g = snapshot(rs, 2011, 1)
        positions = {key_of([1, 0]): (0.0, 0.0), key_of([0, 1]): (3.0, 0.0), key_of([1, 1]): (-1.0, 0.0)}
        (cf_group, cf), (trad_group, trad) = centroids(export_rows(g, positions))
        assert cf == pytest.approx((1.0, 0.0))  # (2*0 + 1*3)/3
        assert trad == pytest.approx((-1.0, 0.0))
        assert cf_group == GROUP_CROWDFUNDED
        assert trad_group == GROUP_TRADITIONAL

    def test_cumulative_year_cut(self):
        rs = self.positioned_corpus()
        g = snapshot(rs, 2010, 1)
        positions = {key_of([1, 0]): (0.0, 0.0), key_of([0, 1]): (3.0, 0.0), key_of([1, 1]): (-1.0, 0.0)}
        (_, cf), _ = centroids(export_rows(g, positions))
        assert cf == pytest.approx((0.0, 0.0))  # 2011 record not yet counted

    def test_absent_group(self):
        rs = make_recordset([("a", 2010, [1, 1])])  # traditional only
        g = snapshot(rs, 2010, 1)
        positions = {key_of([1, 1]): (0.5, 0.5)}
        cf, trad = centroids(export_rows(g, positions))
        assert cf is None
        assert trad == (GROUP_TRADITIONAL, (0.5, 0.5))

    def test_centroid_inside_bounding_box(self, rng):
        rows = []
        for i in range(40):
            rows.append((f"g{i}", 2010, rng.integers(0, 2, size=4).tolist()))
        rs = make_recordset(rows)
        g = snapshot(rs, 2010, 1)
        pos = layout(g, seed=1)
        pts = np.array(list(pos.values()))
        for _, (x, y) in filter(None, centroids(export_rows(g, pos))):
            assert pts[:, 0].min() - 1e-9 <= x <= pts[:, 0].max() + 1e-9
            assert pts[:, 1].min() - 1e-9 <= y <= pts[:, 1].max() + 1e-9


def loop_pack(bits) -> int:
    """The per-bit packing loop build_landscape and centroids used to run per record."""
    key = 0
    for j, b in enumerate(np.asarray(bits).tolist()):
        if b:
            key |= 1 << j
    return key


def reference_landscape(records, up_to_year, min_type_count):
    """The old per-record build: {key: (total, cf_count, first_year)} and the plotted keys."""
    corpus_counts, snapshot = {}, {}
    for bits, year, funded in zip(records.matrix, records.years.tolist(),
                                  records.columns["crowdfunded"].tolist()):
        key = loop_pack(bits)
        corpus_counts[key] = corpus_counts.get(key, 0) + 1
        if year <= up_to_year:
            total, cf, first = snapshot.get(key, (0, 0, year))
            snapshot[key] = (total + 1, cf + int(funded), min(first, year))
    return snapshot, tuple(sorted(k for k in snapshot if corpus_counts[k] >= min_type_count))


def reference_centroids(records, positions, year):
    """The old per-record centroids as (group, point) pairs, None for an empty group."""
    weights = {GROUP_CROWDFUNDED: {}, GROUP_TRADITIONAL: {}}
    for bits, rec_year, funded in zip(records.matrix, records.years.tolist(),
                                      records.columns["crowdfunded"].tolist()):
        key = loop_pack(bits)
        if rec_year <= year and key in positions:
            group = weights[GROUP_CROWDFUNDED if funded else GROUP_TRADITIONAL]
            group[key] = group.get(key, 0) + 1
    out = []
    for group, per_node in weights.items():
        total = sum(per_node.values())
        if total == 0:
            out.append(None)
            continue
        x = sum(positions[k][0] * w for k, w in sorted(per_node.items())) / total
        y = sum(positions[k][1] * w for k, w in sorted(per_node.items())) / total
        out.append((group, (x, y)))
    return out


@st.composite
def snapshot_corpora(draw):
    """(records, years, min_type_count): up to 40 records of 2008-2012 over at most
    five types of d bits, each a drawn centre with up to two bits flipped so that
    edges occur, and up to four snapshot years from before the first record to
    after the last."""
    dimension = draw(st.sampled_from((1, 16, 64, 65)))
    centre = draw(st.integers(0, 2**dimension - 1))
    flips = st.lists(st.integers(0, dimension - 1), max_size=2)
    keys = draw(st.lists(flips.map(lambda bits: functools.reduce(lambda k, b: k ^ 1 << b, bits, centre)),
                         min_size=1, max_size=5))
    vectors = [[key >> j & 1 for j in range(dimension)] for key in keys]
    rows = draw(st.lists(st.tuples(st.integers(2008, 2012), st.sampled_from(vectors), st.booleans()),
                         min_size=1, max_size=40))
    registry = make_registry(dimension)
    records = recordset_of([make_record(f"r{i}", year, bits, registry, crowdfunded=funded)
                            for i, (year, bits, funded) in enumerate(rows)], registry)
    return records, draw(st.lists(st.integers(2005, 2014), max_size=4)), draw(st.integers(1, 4))


class TestPerRecordReference:
    @settings(max_examples=100, deadline=None)
    @given(snapshot_corpora())
    @example((make_recordset([("a", 2010, [1, 0]), ("b", 2011, [1, 1])]), [2009, 2011, 2010], 1))
    def test_each_snapshot_of_one_call_equals_its_own_counts(self, case):
        records, years, min_type_count = case
        graphs = build_landscape(records, years, min_type_count)
        assert [g.snapshot_year for g in graphs] == years
        for year, g in zip(years, graphs):
            nodes, plotted = reference_landscape(records, year, min_type_count)
            assert g.keys == plotted
            assert columns_of(g) == {k: nodes[k] for k in plotted}
            assert key_pairs(g.edges, g.keys) == flip_edges_loop(plotted, records.registry.dimension)

    @pytest.mark.parametrize("dim", [16, 64, 65, 130])
    def test_packed_keys_match_per_record_loop(self, dim):
        # a dozen base types with one-bit mutations, so types repeat across
        # years and differ in high bytes of wide keys
        rng = np.random.default_rng(dim)
        base = rng.integers(0, 2, size=(12, dim))
        registry = make_registry(dim)
        records = []
        for i in range(300):
            bits = base[rng.integers(12)].copy()
            if rng.random() < 0.4:
                bits[rng.integers(dim)] ^= 1
            records.append(make_record(f"r{i}", 2010 + int(rng.integers(5)), bits, registry,
                                       crowdfunded=bool(rng.random() < 0.3)))
        rs = recordset_of(records, registry)
        assert all(key_of(bits) == loop_pack(bits) for bits in rs.matrix)
        for year, g in zip((2011, 2014), build_landscape(rs, (2011, 2014), min_type_count=3)):
            nodes, plotted = reference_landscape(rs, year, 3)
            assert columns_of(g) == {k: nodes[k] for k in plotted}
            assert g.keys == plotted and len(plotted) > 1
            positions = {k: (float(i), float(i % 7) / 3) for i, k in enumerate(plotted) if i % 4}
            assert list(centroids(export_rows(g, positions))) == reference_centroids(rs, positions, year)

    @pytest.mark.parametrize("dim", [16, 64, 65, 130])
    def test_type_keys_match_unique_rows(self, dim):
        # few base types with one-bit mutations, so rows repeat and differ in every word
        rng = np.random.default_rng(dim)
        base = rng.integers(0, 2, size=(40, dim), dtype=np.uint8)
        matrix = base[rng.integers(40, size=2000)]
        flip = rng.random(len(matrix)) < 0.5
        matrix[flip, rng.integers(dim, size=int(flip.sum()))] ^= 1
        words, types = _distinct(pack_rows(matrix))
        keys = _keys(words)
        unique, inverse = np.unique(pack_rows(matrix), axis=0, return_inverse=True)
        oracle = [int.from_bytes(row.tobytes(), "little") for row in unique]
        assert keys == sorted(oracle) and len(keys) > 40
        assert [keys[t] for t in types.tolist()] == [oracle[t] for t in inverse.reshape(-1).tolist()]
        assert [keys[t] for t in types.tolist()] == [key_of(row) for row in matrix]


class TestShareClasses:
    def test_red_then_orange(self):
        reg = make_registry(2)
        recs = [
            make_record("a", 2010, [1, 1], reg, crowdfunded=True),
            make_record("b", 2015, [1, 1], reg, crowdfunded=False),
            make_record("c", 2015, [1, 1], reg, crowdfunded=False),
        ]
        rs = recordset_of(recs, reg)
        early = snapshot(rs, 2010, 1)
        late = snapshot(rs, 2015, 1)
        classes = classify_snapshots([early, late], 0.5)
        key = key_of([1, 1])
        assert classes[2010][key] == CLASS_CROWDFUNDED  # share 1.0
        assert classes[2015][key] == CLASS_FORMER  # share 1/3 now, hot before

    def test_never_hot_is_baseline(self):
        rs = make_recordset([("a", 2010, [1, 1])], crowdfunded=False)
        g = snapshot(rs, 2010, 1)
        classes = classify_snapshots([g], 0.5)
        assert classes[2010][key_of([1, 1])] == CLASS_BASELINE

    def test_threshold_decides_the_class(self):
        reg = make_registry(2)
        recs = [make_record(rid, 2010, [1, 1], reg, crowdfunded=rid == "a") for rid in "abc"]
        graphs = [snapshot(recordset_of(recs, reg), 2010, 1)]
        key = key_of([1, 1])
        assert graphs[0].keys == (key,) and graphs[0].cf_share[0] == pytest.approx(1 / 3)
        assert classify_snapshots(graphs, 0.3)[2010][key] == CLASS_CROWDFUNDED
        assert classify_snapshots(graphs, 0.5)[2010][key] == CLASS_BASELINE


class TestExports:
    def demo(self):
        rows = [("a", 2010, [1, 0, 0]), ("b", 2011, [1, 1, 0]), ("c", 2012, [1, 1, 1]),
                ("d", 2012, [1, 1, 0])]
        rs = make_recordset(rows)
        g = snapshot(rs, 2012, 1)
        pos = layout(g, seed=4)
        return g, pos

    @pytest.mark.parametrize("fmt", ["graphml", "json"])
    def test_round_trip(self, fmt, tmp_path):
        g, pos = self.demo()
        path = tmp_path / f"land.{fmt}"
        export_graph(g, export_rows(g, pos), fmt, path, seed=4)
        if fmt == "graphml":
            back = nx.read_graphml(path)
            meta = back.graph
            nodes = {int(k): row for k, row in back.nodes(data=True)}
            edges = {tuple(sorted((int(u), int(v)))) for u, v in back.edges()}
        else:
            with open(path, encoding="utf-8") as fh:
                meta = json.load(fh)
            nodes = {row["id"]: row for row in meta["nodes"]}
            edges = {tuple(edge) for edge in meta["edges"]}
        assert (meta["year"], meta["dimension"], meta["layout_seed"]) == (g.snapshot_year, g.dimension, 4)
        assert set(nodes) == set(pos)
        assert edges == {(u, v) for u, v in key_pairs(g.edges, g.keys) if u in pos and v in pos}
        for key, row in nodes.items():
            assert (row["count"], row["cf_count"], row["first_year"]) == columns_of(g)[key]
            assert (row["x"], row["y"]) == pytest.approx(pos[key], rel=1e-9)

    @pytest.mark.parametrize("seed, positioned", [(4, True), (0, True), (4, False)])
    def test_graphml_bytes_equal_networkx_writer(self, seed, positioned, tmp_path, rng):
        rows = [(f"g{i}", 2010 + i % 3, rng.integers(0, 2, size=7).tolist()) for i in range(30)]
        g = snapshot(make_recordset(rows), 2011, 1)
        pos = layout(g, seed=5) if positioned else {}
        assert 0 < len(pos) < len(g.keys) or not positioned
        ours, theirs = tmp_path / "ours.graphml", tmp_path / "theirs.graphml"
        export_graph(g, export_rows(g, pos), "graphml", ours, seed=seed)
        # the networkx writer export_graph used before writing its own text
        oracle = nx.Graph()
        oracle.graph.update(year=g.snapshot_year, dimension=g.dimension, layout_seed=seed)
        for key, total, cf_count, cf_share, first_year in zip(
                g.keys, g.total_count.tolist(), g.crowdfunded_count.tolist(), g.cf_share.tolist(),
                g.first_year.tolist()):
            if key in pos:
                oracle.add_node(str(key), vector_bits=vector_bits(key, g.dimension), count=total,
                                cf_count=cf_count, cf_share=cf_share, first_year=first_year,
                                x=pos[key][0], y=pos[key][1])
        oracle.add_edges_from((str(u), str(v)) for u, v in key_pairs(g.edges, g.keys) if u in pos and v in pos)
        nx.write_graphml(oracle, theirs)
        assert ours.read_bytes() == theirs.read_bytes()

    def test_csv_node_table_is_written_but_not_imported(self, tmp_path):
        g, pos = self.demo()
        path = tmp_path / "land.csv"
        export_graph(g, export_rows(g, pos), "csv", path, seed=4)
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            assert tuple(reader.fieldnames) == EXPORT_COLUMNS
            rows = list(reader)
        assert {int(r["id"]) for r in rows} == set(pos)
        for row in rows:
            key = int(row["id"])
            assert row["vector_bits"] == vector_bits(key, g.dimension)
            assert int(row["count"]) == columns_of(g)[key][0]
            assert (float(row["x"]), float(row["y"])) == tuple(pos[key])

    def test_csv_bytes_equal_dictwriter(self, tmp_path):
        # the README demo's final snapshot, written as csv.DictWriter wrote it
        rs = generate_corpus(SynthConfig(
            dimension=16, year_start=2006, year_end=2015, games_per_year=500,
            base_mechanism_rate=0.15, recombination_rate=0.6, base_mutation_bits=1.0,
            novelty_boost=2.0, seed=7))
        g, final = build_landscape(rs, [2011, 2015], min_type_count=4)
        pos = layout(final, seed=42)
        ours = tmp_path / "ours.csv"
        export_graph(g, export_rows(g, pos), "csv", ours, seed=42)
        theirs = io.StringIO(newline="")
        writer = csv.DictWriter(theirs, fieldnames=EXPORT_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(
            {"id": key, "vector_bits": vector_bits(key, g.dimension), "count": total, "cf_count": cf_count,
             "cf_share": cf_count / total, "first_year": first_year, "x": pos[key][0], "y": pos[key][1]}
            for key, (total, cf_count, first_year) in columns_of(g).items() if key in pos)
        assert len(g.keys) > 100 and ours.read_bytes() == theirs.getvalue().encode("utf-8")

    def test_json_bytes_equal_json_dump(self, tmp_path):
        # the README demo's final snapshot, written as json.dump wrote it piece by piece
        g = demo_final_snapshot()
        rows = export_rows(g, layout(g, seed=42))
        ours, theirs = tmp_path / "ours.json", tmp_path / "theirs.json"
        export_graph(g, rows, "json", ours, seed=42)
        with open(theirs, "w", newline="", encoding="utf-8") as fh:
            json.dump({"year": g.snapshot_year, "dimension": g.dimension, "nodes": rows.nodes,
                       "edges": [list(e) for e in rows.edges], "layout_seed": 42}, fh, indent=2)
            fh.write("\n")
        assert len(rows.nodes) > 100 and rows.edges and ours.read_bytes() == theirs.read_bytes()

    def test_graphml_element_counts(self, tmp_path):
        rs = make_recordset([("a", 2010, [1, 0]), ("b", 2011, [1, 1])])
        g = snapshot(rs, 2011, 1)
        pos = layout(g, seed=1)
        path = tmp_path / "two.graphml"
        export_graph(g, export_rows(g, pos), "graphml", path, seed=1)
        text = path.read_text(encoding="utf-8")
        assert text.count("<node ") == 2
        assert text.count("<edge ") == 1
        assert "<key " in text

    def test_empty_graph_exports_zero_nodes(self, tmp_path):
        rs = make_recordset([("a", 2010, [1, 1])])
        g = snapshot(rs, 2010, 99)
        path = tmp_path / "empty.json"
        export_graph(g, export_rows(g, {}), "json", path, seed=5)
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["nodes"] == []
        assert payload["edges"] == []

    def test_export_deterministic(self, tmp_path):
        g, pos = self.demo()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        export_graph(g, export_rows(g, pos), "json", p1, seed=4)
        export_graph(g, export_rows(g, pos), "json", p2, seed=4)
        assert p1.read_bytes() == p2.read_bytes()


class TestSvg:
    def test_renders_all_positioned_nodes(self, tmp_path):
        rows = [("a", 2010, [1, 0]), ("b", 2011, [1, 1]), ("c", 2012, [0, 1])]
        rs = make_recordset(rows)
        g = snapshot(rs, 2012, 1)
        pos = layout(g, seed=6)
        path = tmp_path / "land.svg"
        render_svg(g, export_rows(g, pos), path, classify_snapshots([g], 0.5)[2012])
        text = path.read_text(encoding="utf-8")
        assert text.count("<circle ") == len(pos)
        assert text.count("<line ") == len(g.edges)
        assert text.startswith("<svg ")

    def test_fill_follows_classes(self, tmp_path):
        rs = make_recordset([("a", 2010, [1, 1])], crowdfunded=True)
        g = snapshot(rs, 2010, 1)
        pos = {key_of([1, 1]): (0.0, 0.0)}
        path = tmp_path / "one.svg"
        render_svg(g, export_rows(g, pos), path, classify_snapshots([g], 0.5)[2010])
        assert "#d62728" in path.read_text(encoding="utf-8")

    def test_deterministic(self, tmp_path):
        rs = make_recordset([("a", 2010, [1, 0]), ("b", 2011, [1, 1])])
        g = snapshot(rs, 2011, 1)
        pos = layout(g, seed=6)
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        classes = classify_snapshots([g], 0.5)[2011]
        render_svg(g, export_rows(g, pos), p1, classes)
        render_svg(g, export_rows(g, pos), p2, classes)
        assert p1.read_bytes() == p2.read_bytes()
