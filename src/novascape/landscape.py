"""Type-landscape networks over unique feature vectors.

Nodes are distinct vectors ("types"); an edge joins two types that differ in
exactly one feature. Snapshots are cumulative: the landscape at year Y covers
every record published up to Y. Only types implemented by at least
min_type_count records in the whole corpus are plotted; this makes early
snapshots future-aware by construction, matching how the figures are built.

Edges come from single-bit-flip hash lookups (O(nodes * dimension)), never
from all-pairs comparison. Layout is Kamada-Kawai on the final snapshot's
main component with a seeded random start; earlier snapshots reuse those
fixed positions so types do not move between frames.
"""

import csv
import json
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from .corpus import RecordSet
from .errors import EmptyGraph

GROUP_CROWDFUNDED = "crowdfunded"
GROUP_TRADITIONAL = "traditional"

CLASS_CROWDFUNDED = "crowdfunded"
CLASS_FORMER = "formerly_crowdfunded"
CLASS_BASELINE = "baseline"

CLASS_FILL = {
    CLASS_CROWDFUNDED: "#d62728",
    CLASS_FORMER: "#ff7f0e",
    CLASS_BASELINE: "#b0b0b0",
}

DEFAULT_MIN_TYPE_COUNT = 6
DEFAULT_CF_SHARE_THRESHOLD = 0.5
DEFAULT_LAYOUT_SEED = 42

# every landscape file format the CLI writes: svg by render_svg, the rest by export_graph
EXPORT_FORMATS = ("csv", "json", "graphml", "svg")
EXPORT_COLUMNS = ("id", "vector_bits", "count", "cf_count", "cf_share", "first_year", "x", "y")


def pack_vector(bits) -> int:
    """Pack a binary vector into an int key; bit j of the key is feature j."""
    key = 0
    for j, b in enumerate(np.asarray(bits).tolist()):
        if b:
            key |= 1 << j
    return key


def vector_bits(key: int, dimension: int) -> str:
    return "".join(str((key >> j) & 1) for j in range(dimension))


@dataclass(frozen=True)
class TypeNode:
    key: int
    total_count: int
    crowdfunded_count: int
    first_year: int

    def __post_init__(self):
        assert self.total_count >= 1
        assert 0 <= self.crowdfunded_count <= self.total_count

    @property
    def cf_share(self) -> float:
        return self.crowdfunded_count / self.total_count

    def share_class(self, threshold: float) -> str:
        return CLASS_CROWDFUNDED if self.cf_share >= threshold else CLASS_BASELINE


@dataclass
class LandscapeGraph:
    """One cumulative snapshot: all types up to snapshot_year, plus the plotted
    subset (whole-corpus count filter) and its distance-1 edges."""

    snapshot_year: int
    dimension: int
    nodes: Dict[int, TypeNode]
    plotted: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]
    min_type_count: int
    cf_share_threshold: float

    def __post_init__(self):
        plotted = set(self.plotted)
        for u, v in self.edges:
            assert u < v and u in plotted and v in plotted
            assert ((u ^ v).bit_count()) == 1


def build_landscape(
    records: RecordSet,
    up_to_year: int,
    min_type_count: int = DEFAULT_MIN_TYPE_COUNT,
    cf_share_threshold: float = DEFAULT_CF_SHARE_THRESHOLD,
) -> LandscapeGraph:
    """Cumulative landscape of all records published up to up_to_year.

    Node counts are cumulative to the snapshot year, but the plotted filter
    uses implementation counts over the whole corpus, so the plotted node set
    can only grow across snapshots.
    """
    if len(records) == 0:
        raise EmptyGraph("no records")
    dim = records.registry.dimension
    corpus_counts: Dict[int, int] = {}
    snapshot: Dict[int, list] = {}
    for rec in records:
        key = pack_vector(rec.vector)
        corpus_counts[key] = corpus_counts.get(key, 0) + 1
        if rec.year <= up_to_year:
            entry = snapshot.get(key)
            if entry is None:
                # [total, cf_count, first_year]
                snapshot[key] = [
                    1,
                    int(rec.crowdfunded),
                    rec.year,
                ]
            else:
                entry[0] += 1
                entry[1] += int(rec.crowdfunded)
                if rec.year < entry[2]:
                    entry[2] = rec.year
    nodes = {
        key: TypeNode(
            key=key,
            total_count=total,
            crowdfunded_count=cf,
            first_year=first_year,
        )
        for key, (total, cf, first_year) in snapshot.items()
    }
    plotted = tuple(sorted(k for k in nodes if corpus_counts[k] >= min_type_count))
    return LandscapeGraph(
        snapshot_year=up_to_year,
        dimension=dim,
        nodes=nodes,
        plotted=plotted,
        edges=flip_edges(plotted, dim),
        min_type_count=min_type_count,
        cf_share_threshold=cf_share_threshold,
    )


def flip_edges(keys: Sequence[int], dimension: int) -> Tuple[Tuple[int, int], ...]:
    """All Hamming-1 pairs among keys via single-bit-flip lookups.

    O(len(keys) * dimension) hash probes; each pair found once by emitting
    only when the flipped key is larger.
    """
    key_set = set(keys)
    edges = []
    for key in keys:
        for j in range(dimension):
            other = key ^ (1 << j)
            if other > key and other in key_set:
                edges.append((key, other))
    return tuple(sorted(edges))


def _main_component(graph: LandscapeGraph) -> Tuple[int, ...]:
    g = nx.Graph()
    g.add_nodes_from(graph.plotted)
    g.add_edges_from(graph.edges)
    components = sorted(nx.connected_components(g), key=lambda c: (-len(c), min(c)))
    return tuple(sorted(components[0]))


def layout(
    graph: LandscapeGraph,
    seed: int = DEFAULT_LAYOUT_SEED,
) -> Dict[int, Tuple[float, float]]:
    """Positions for the plotted nodes of the graph's main connected component.

    Kamada-Kawai from a seeded random start. Lay out the final snapshot once
    and draw every earlier snapshot at those positions: its plotted nodes are
    a subset of the final ones. Plotted nodes outside the main component get
    no position and are left out of plots. A single-node component sits at
    the origin.
    """
    if not graph.plotted:
        raise EmptyGraph("no plotted nodes")
    main = _main_component(graph)
    if len(main) == 1:
        return {main[0]: (0.0, 0.0)}
    g = nx.Graph()
    g.add_nodes_from(main)
    g.add_edges_from((u, v) for u, v in graph.edges if u in set(main) and v in set(main))
    rng = np.random.default_rng(seed)
    init = {k: rng.uniform(-1.0, 1.0, size=2) for k in main}
    raw = nx.kamada_kawai_layout(g, pos=init)
    return {k: (float(p[0]), float(p[1])) for k, p in raw.items()}


@dataclass(frozen=True)
class Centroid:
    group: str
    point: Tuple[float, float]
    year: int

    def __post_init__(self):
        assert np.isfinite(self.point).all()


def centroids(
    graph: LandscapeGraph,
    positions: Mapping[int, Tuple[float, float]],
    records: RecordSet,
    year: int,
) -> Tuple[Optional[Centroid], Optional[Centroid]]:
    """(crowdfunded, traditional) centroids of positioned types at a year.

    Weight is the group's cumulative game count at each positioned type. A
    group with no games on positioned types has no centroid.
    """
    weights = {GROUP_CROWDFUNDED: {}, GROUP_TRADITIONAL: {}}
    for rec in records:
        if rec.year > year:
            continue
        key = pack_vector(rec.vector)
        if key not in positions:
            continue
        group = GROUP_CROWDFUNDED if rec.crowdfunded else GROUP_TRADITIONAL
        weights[group][key] = weights[group].get(key, 0) + 1
    out = []
    for group in (GROUP_CROWDFUNDED, GROUP_TRADITIONAL):
        per_node = weights[group]
        total = sum(per_node.values())
        if total == 0:
            out.append(None)
            continue
        x = sum(positions[k][0] * w for k, w in sorted(per_node.items())) / total
        y = sum(positions[k][1] * w for k, w in sorted(per_node.items())) / total
        out.append(Centroid(group=group, point=(x, y), year=year))
    return tuple(out)


def classify_snapshots(
    graphs: Sequence[LandscapeGraph],
) -> Dict[int, Dict[int, str]]:
    """Share class per node per snapshot, with history.

    A node is "crowdfunded" while its cumulative crowdfunded share is at or
    above its snapshot's cf_share_threshold, "formerly_crowdfunded" once it was above in an
    earlier snapshot but is not now, and "baseline" otherwise.
    """
    ordered = sorted(graphs, key=lambda g: g.snapshot_year)
    out: Dict[int, Dict[int, str]] = {}
    ever_hot: set = set()
    for graph in ordered:
        classes = {}
        for key in graph.plotted:
            node = graph.nodes[key]
            if node.cf_share >= graph.cf_share_threshold:
                classes[key] = CLASS_CROWDFUNDED
            elif key in ever_hot:
                classes[key] = CLASS_FORMER
            else:
                classes[key] = CLASS_BASELINE
        out[graph.snapshot_year] = classes
        ever_hot.update(k for k, c in classes.items() if c == CLASS_CROWDFUNDED)
    return out


def _export_rows(graph: LandscapeGraph, positions: Mapping[int, Tuple[float, float]]):
    keys = tuple(k for k in graph.plotted if k in positions)
    key_set = set(keys)
    edges = tuple((u, v) for u, v in graph.edges if u in key_set and v in key_set)
    rows = []
    for k in keys:
        node = graph.nodes[k]
        x, y = positions[k]
        values = (k, vector_bits(k, graph.dimension), node.total_count, node.crowdfunded_count,
                  node.cf_share, node.first_year, float(x), float(y))
        rows.append(dict(zip(EXPORT_COLUMNS, values)))
    return rows, edges


def export_graph(graph: LandscapeGraph, positions, fmt: str, path, seed: Optional[int] = None) -> None:
    """Write the plotted (positioned) subgraph with node attributes.

    Formats: graphml, json, and csv (one row per node, no edges); svg is
    drawn by render_svg. Node attributes are count, cf_count, cf_share,
    first_year, x, y (plus the bit string, so files are self-describing);
    graphml and json record the layout seed when given.
    """
    if fmt not in EXPORT_FORMATS or fmt == "svg":
        raise ValueError(f"export_graph cannot write format {fmt!r}")
    rows, edges = _export_rows(graph, positions)
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=EXPORT_COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    elif fmt == "graphml":
        g = nx.Graph()
        g.graph["year"] = graph.snapshot_year
        g.graph["dimension"] = graph.dimension
        if seed is not None:
            g.graph["layout_seed"] = int(seed)
        for row in rows:
            g.add_node(
                str(row["id"]),
                vector_bits=row["vector_bits"],
                count=row["count"],
                cf_count=row["cf_count"],
                cf_share=row["cf_share"],
                first_year=row["first_year"],
                x=row["x"],
                y=row["y"],
            )
        g.add_edges_from((str(u), str(v)) for u, v in edges)
        nx.write_graphml(g, path)
    else:
        payload = {
            "year": graph.snapshot_year,
            "dimension": graph.dimension,
            "nodes": rows,
            "edges": [[u, v] for u, v in edges],
        }
        if seed is not None:
            payload["layout_seed"] = int(seed)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def render_svg(
    graph: LandscapeGraph,
    positions: Mapping[int, Tuple[float, float]],
    path,
    classes: Optional[Mapping[int, str]] = None,
    size: int = 720,
    base_radius: float = 3.0,
) -> None:
    """Plot the positioned subgraph: radius grows with sqrt(count), fill by
    share class (crowdfunded red, formerly orange, baseline grey)."""
    keys = tuple(k for k in graph.plotted if k in positions)
    key_set = set(keys)
    if classes is None:
        classes = {k: graph.nodes[k].share_class(graph.cf_share_threshold) for k in keys}
    pad = 0.08
    if keys:
        xs = [positions[k][0] for k in keys]
        ys = [positions[k][1] for k in keys]
        lo_x, hi_x = min(xs), max(xs)
        lo_y, hi_y = min(ys), max(ys)
    else:
        lo_x = hi_x = lo_y = hi_y = 0.0
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)

    def to_px(p):
        x = (p[0] - lo_x) / span * (1 - 2 * pad) * size + pad * size
        y = (1 - (p[1] - lo_y) / span * (1 - 2 * pad)) * size - pad * size
        return x, y

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'  <title>type landscape, year {graph.snapshot_year}</title>',
    ]
    for u, v in graph.edges:
        if u in key_set and v in key_set:
            ux, uy = to_px(positions[u])
            vx, vy = to_px(positions[v])
            lines.append(
                f'  <line x1="{ux:.3f}" y1="{uy:.3f}" x2="{vx:.3f}" y2="{vy:.3f}" '
                f'stroke="#cccccc" stroke-width="0.6"/>'
            )
    for k in keys:
        x, y = to_px(positions[k])
        r = base_radius * np.sqrt(graph.nodes[k].total_count)
        fill = CLASS_FILL.get(classes.get(k, CLASS_BASELINE), CLASS_FILL[CLASS_BASELINE])
        lines.append(f'  <circle cx="{x:.3f}" cy="{y:.3f}" r="{r:.3f}" fill="{fill}" fill-opacity="0.85"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
