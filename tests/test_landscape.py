"""Landscape construction, layout, centroids, and export round-trips.

Edge sets are checked against an all-pairs popcount oracle that never uses
the library's bit-flip construction.
"""

import csv
import itertools
import json
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novascape.errors import EmptyGraph
from novascape.landscape import (
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
    flip_edges,
    layout,
    pack_vector,
    render_svg,
    vector_bits,
)

from conftest import make_recordset


def oracle_edges(keys):
    """All-pairs Hamming-1 edge oracle over packed keys."""
    out = set()
    for a, b in itertools.combinations(sorted(keys), 2):
        if (a ^ b).bit_count() == 1:
            out.add((min(a, b), max(a, b)))
    return out


class TestPacking:
    def test_round_trip(self):
        bits = [1, 0, 1, 1, 0]
        key = pack_vector(bits)
        assert vector_bits(key, 5) == "10110"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=51))
    def test_pack_unpack_identity(self, bits):
        assert vector_bits(pack_vector(bits), len(bits)) == "".join(map(str, bits))


class TestBuild:
    def test_two_nodes_no_edge(self):
        rs = make_recordset([("a", 2010, [1, 1, 0]), ("b", 2011, [1, 1, 0]), ("c", 2011, [0, 1, 1])])
        g = build_landscape(rs, 2011, min_type_count=1)
        assert len(g.nodes) == 2
        counts = sorted(n.total_count for n in g.nodes.values())
        assert counts == [1, 2]
        assert g.edges == ()

    def test_distance_one_pair_gets_edge(self):
        rs = make_recordset([("a", 2010, [1, 0]), ("b", 2011, [1, 1])])
        g = build_landscape(rs, 2011, min_type_count=1)
        assert len(g.edges) == 1

    def test_counts_are_cumulative_to_snapshot(self):
        rs = make_recordset(
            [("a", 2010, [1, 1]), ("b", 2012, [1, 1]), ("c", 2014, [1, 1])]
        )
        g = build_landscape(rs, 2012, min_type_count=1)
        node = g.nodes[pack_vector([1, 1])]
        assert node.total_count == 2
        assert node.first_year == 2010

    def test_plotted_filter_uses_whole_corpus_counts(self):
        # one record by 2010 but six overall: plotted even in the early snapshot
        rows = [("e", 2010, [1, 1])] + [(f"l{i}", 2015, [1, 1]) for i in range(5)]
        rows += [("solo", 2010, [1, 0])]
        rs = make_recordset(rows)
        g = build_landscape(rs, 2010, min_type_count=6)
        assert g.plotted == (pack_vector([1, 1]),)
        assert g.nodes[pack_vector([1, 1])].total_count == 1

    def test_cf_counts_and_share(self):
        rs = make_recordset(
            [("a", 2010, [1, 1]), ("b", 2011, [1, 1])], crowdfunded=True
        )
        g = build_landscape(rs, 2011, min_type_count=1)
        node = g.nodes[pack_vector([1, 1])]
        assert node.crowdfunded_count == 2
        assert node.cf_share == 1.0

    def test_snapshot_monotonicity(self):
        rng = np.random.default_rng(7)
        rows = [
            (f"g{i}", int(rng.integers(2006, 2018)), rng.integers(0, 2, size=5).tolist())
            for i in range(120)
        ]
        rs = make_recordset(rows)
        years = [2008, 2012, 2017]
        graphs = [build_landscape(rs, y, min_type_count=2) for y in years]
        for early, late in zip(graphs, graphs[1:]):
            assert set(early.nodes) <= set(late.nodes)
            assert set(early.plotted) <= set(late.plotted)
            for key, node in early.nodes.items():
                assert node.total_count <= late.nodes[key].total_count
        for g in graphs:
            for node in g.nodes.values():
                assert 0.0 <= node.cf_share <= 1.0


class TestEdges:
    @settings(max_examples=80, deadline=None)
    @given(st.sets(st.integers(0, 2**10 - 1), min_size=0, max_size=60))
    def test_flip_edges_matches_all_pairs_oracle(self, keys):
        assert set(flip_edges(sorted(keys), 10)) == oracle_edges(keys)

    def test_edges_restricted_to_plotted(self):
        rs = make_recordset(
            [("a", 2010, [1, 0]), ("b", 2010, [1, 1]), ("c", 2010, [1, 1])]
        )
        g = build_landscape(rs, 2010, min_type_count=2)
        assert g.plotted == (pack_vector([1, 1]),)
        assert g.edges == ()


class TestLayout:
    def path_graph_corpus(self):
        # three types in a path: 100 - 110 - 111
        rows = []
        for i, bits in enumerate(([1, 0, 0], [1, 1, 0], [1, 1, 1])):
            rows += [(f"g{i}_{j}", 2010, bits) for j in range(2)]
        return make_recordset(rows)

    def test_deterministic(self):
        rs = self.path_graph_corpus()
        g = build_landscape(rs, 2010, min_type_count=1)
        assert layout(g, seed=11) == layout(g, seed=11)

    def test_seed_changes_positions(self):
        rs = self.path_graph_corpus()
        g = build_landscape(rs, 2010, min_type_count=1)
        assert layout(g, seed=11) != layout(g, seed=12)

    def test_path_spacing_within_20_percent(self):
        rs = self.path_graph_corpus()
        g = build_landscape(rs, 2010, min_type_count=1)
        pos = layout(g, seed=3)
        a, b, c = (pos[pack_vector(v)] for v in ([1, 0, 0], [1, 1, 0], [1, 1, 1]))
        ab = math.dist(a, b)
        bc = math.dist(b, c)
        assert abs(ab - bc) / max(ab, bc) < 0.2

    def test_single_node_at_origin(self):
        rs = make_recordset([("a", 2010, [1, 1])])
        g = build_landscape(rs, 2010, min_type_count=1)
        assert layout(g, seed=5) == {pack_vector([1, 1]): (0.0, 0.0)}

    def test_empty_plotted_raises(self):
        rs = make_recordset([("a", 2010, [1, 1])])
        g = build_landscape(rs, 2010, min_type_count=99)
        with pytest.raises(EmptyGraph):
            layout(g, seed=5)

    def test_nodes_outside_final_main_component_unpositioned(self):
        # main component of the final graph is the 3-node path; the isolate is excluded
        rows = [(f"p{i}", 2016, bits) for i, bits in enumerate(([1, 0, 0], [1, 1, 0], [1, 1, 1]))]
        rows.append(("iso", 2016, [0, 0, 1]))
        rs = make_recordset(rows)
        final = build_landscape(rs, 2016, min_type_count=1)
        pos = layout(final, seed=2)
        assert pack_vector([0, 0, 1]) not in pos
        assert len(pos) == 3


class TestCentroids:
    def positioned_corpus(self):
        rows = [
            ("cf1", 2010, [1, 0], {"crowdfunded": True}),
            ("cf2", 2010, [1, 0], {"crowdfunded": True}),
            ("cf3", 2011, [0, 1], {"crowdfunded": True}),
            ("tr1", 2010, [1, 1], {"crowdfunded": False}),
        ]
        rs = make_recordset([(r[0], r[1], r[2]) for r in rows])
        # rebuild with the per-row crowdfunded flags
        from conftest import make_record, make_registry
        from novascape.corpus import RecordSet

        reg = make_registry(2)
        recs = [make_record(r[0], r[1], r[2], reg, **r[3]) for r in rows]
        return RecordSet(recs, reg)

    def test_weighted_mean_by_hand(self):
        rs = self.positioned_corpus()
        g = build_landscape(rs, 2011, min_type_count=1)
        positions = {pack_vector([1, 0]): (0.0, 0.0), pack_vector([0, 1]): (3.0, 0.0), pack_vector([1, 1]): (-1.0, 0.0)}
        cf, trad = centroids(g, positions, rs, 2011)
        assert cf.point == pytest.approx((1.0, 0.0))  # (2*0 + 1*3)/3
        assert trad.point == pytest.approx((-1.0, 0.0))
        assert cf.group == GROUP_CROWDFUNDED
        assert trad.group == GROUP_TRADITIONAL

    def test_cumulative_year_cut(self):
        rs = self.positioned_corpus()
        g = build_landscape(rs, 2010, min_type_count=1)
        positions = {pack_vector([1, 0]): (0.0, 0.0), pack_vector([0, 1]): (3.0, 0.0), pack_vector([1, 1]): (-1.0, 0.0)}
        cf, _ = centroids(g, positions, rs, 2010)
        assert cf.point == pytest.approx((0.0, 0.0))  # 2011 record not yet counted

    def test_absent_group(self):
        rs = make_recordset([("a", 2010, [1, 1])])  # traditional only
        g = build_landscape(rs, 2010, min_type_count=1)
        positions = {pack_vector([1, 1]): (0.5, 0.5)}
        cf, trad = centroids(g, positions, rs, 2010)
        assert cf is None
        assert trad.point == (0.5, 0.5)

    def test_centroid_inside_bounding_box(self, rng):
        rows = []
        for i in range(40):
            rows.append((f"g{i}", 2010, rng.integers(0, 2, size=4).tolist()))
        rs = make_recordset(rows)
        g = build_landscape(rs, 2010, min_type_count=1)
        pos = layout(g, seed=1)
        cf, trad = centroids(g, pos, rs, 2010)
        pts = np.array(list(pos.values()))
        for c in (cf, trad):
            if c is None:
                continue
            assert pts[:, 0].min() - 1e-9 <= c.point[0] <= pts[:, 0].max() + 1e-9
            assert pts[:, 1].min() - 1e-9 <= c.point[1] <= pts[:, 1].max() + 1e-9


class TestShareClasses:
    def test_red_then_orange(self):
        from conftest import make_record, make_registry
        from novascape.corpus import RecordSet

        reg = make_registry(2)
        recs = [
            make_record("a", 2010, [1, 1], reg, crowdfunded=True),
            make_record("b", 2015, [1, 1], reg, crowdfunded=False),
            make_record("c", 2015, [1, 1], reg, crowdfunded=False),
        ]
        rs = RecordSet(recs, reg)
        early = build_landscape(rs, 2010, min_type_count=1)
        late = build_landscape(rs, 2015, min_type_count=1)
        classes = classify_snapshots([early, late])
        key = pack_vector([1, 1])
        assert classes[2010][key] == CLASS_CROWDFUNDED  # share 1.0
        assert classes[2015][key] == CLASS_FORMER  # share 1/3 now, hot before

    def test_never_hot_is_baseline(self):
        rs = make_recordset([("a", 2010, [1, 1])], crowdfunded=False)
        g = build_landscape(rs, 2010, min_type_count=1)
        classes = classify_snapshots([g])
        assert classes[2010][pack_vector([1, 1])] == CLASS_BASELINE


class TestExports:
    def demo(self):
        rows = [("a", 2010, [1, 0, 0]), ("b", 2011, [1, 1, 0]), ("c", 2012, [1, 1, 1]),
                ("d", 2012, [1, 1, 0])]
        rs = make_recordset(rows)
        g = build_landscape(rs, 2012, min_type_count=1)
        pos = layout(g, seed=4)
        return g, pos

    @pytest.mark.parametrize("fmt", ["graphml", "json"])
    def test_round_trip(self, fmt, tmp_path):
        g, pos = self.demo()
        path = tmp_path / f"land.{fmt}"
        export_graph(g, pos, fmt, path, seed=4)
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
        assert edges == {(u, v) for u, v in g.edges if u in pos and v in pos}
        for key, row in nodes.items():
            orig = g.nodes[key]
            assert row["count"] == orig.total_count
            assert row["cf_count"] == orig.crowdfunded_count
            assert row["first_year"] == orig.first_year
            assert (row["x"], row["y"]) == pytest.approx(pos[key], rel=1e-9)

    def test_csv_node_table_is_written_but_not_imported(self, tmp_path):
        g, pos = self.demo()
        path = tmp_path / "land.csv"
        export_graph(g, pos, "csv", path, seed=4)
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            assert tuple(reader.fieldnames) == EXPORT_COLUMNS
            rows = list(reader)
        assert {int(r["id"]) for r in rows} == set(pos)
        for row in rows:
            key = int(row["id"])
            assert row["vector_bits"] == vector_bits(key, g.dimension)
            assert int(row["count"]) == g.nodes[key].total_count
            assert (float(row["x"]), float(row["y"])) == tuple(pos[key])

    def test_graphml_element_counts(self, tmp_path):
        rs = make_recordset([("a", 2010, [1, 0]), ("b", 2011, [1, 1])])
        g = build_landscape(rs, 2011, min_type_count=1)
        pos = layout(g, seed=1)
        path = tmp_path / "two.graphml"
        export_graph(g, pos, "graphml", path)
        text = path.read_text(encoding="utf-8")
        assert text.count("<node ") == 2
        assert text.count("<edge ") == 1
        assert "<key " in text

    def test_empty_graph_exports_zero_nodes(self, tmp_path):
        rs = make_recordset([("a", 2010, [1, 1])])
        g = build_landscape(rs, 2010, min_type_count=99)
        path = tmp_path / "empty.json"
        export_graph(g, {}, "json", path)
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["nodes"] == []
        assert payload["edges"] == []

    def test_export_deterministic(self, tmp_path):
        g, pos = self.demo()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        export_graph(g, pos, "json", p1, seed=4)
        export_graph(g, pos, "json", p2, seed=4)
        assert p1.read_bytes() == p2.read_bytes()


class TestSvg:
    def test_renders_all_positioned_nodes(self, tmp_path):
        rows = [("a", 2010, [1, 0]), ("b", 2011, [1, 1]), ("c", 2012, [0, 1])]
        rs = make_recordset(rows)
        g = build_landscape(rs, 2012, min_type_count=1)
        pos = layout(g, seed=6)
        path = tmp_path / "land.svg"
        render_svg(g, pos, path)
        text = path.read_text(encoding="utf-8")
        assert text.count("<circle ") == len(pos)
        assert text.count("<line ") == len(g.edges)
        assert text.startswith("<svg ")

    def test_fill_follows_classes(self, tmp_path):
        rs = make_recordset([("a", 2010, [1, 1])], crowdfunded=True)
        g = build_landscape(rs, 2010, min_type_count=1)
        pos = {pack_vector([1, 1]): (0.0, 0.0)}
        path = tmp_path / "one.svg"
        render_svg(g, pos, path)
        assert "#d62728" in path.read_text(encoding="utf-8")

    def test_deterministic(self, tmp_path):
        rs = make_recordset([("a", 2010, [1, 0]), ("b", 2011, [1, 1])])
        g = build_landscape(rs, 2011, min_type_count=1)
        pos = layout(g, seed=6)
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        render_svg(g, pos, p1)
        render_svg(g, pos, p2)
        assert p1.read_bytes() == p2.read_bytes()
