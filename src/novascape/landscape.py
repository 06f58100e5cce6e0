"""Type-landscape networks over unique feature vectors.

Nodes are distinct vectors ("types"); an edge joins two types that differ in
exactly one feature. Snapshots are cumulative: the landscape at year Y covers
every record published up to Y. Only types implemented by at least
min_type_count records in the whole corpus are plotted; this makes early
snapshots future-aware by construction, matching how the figures are built.
A snapshot holds its plotted types only, and everything drawn or summarised
from it (exports, SVG, share classes, centroids) reads those nodes.

Type keys come from the corpus' packed uint64 words (corpus.pack_rows), so
bit j of a key is feature j; each snapshot keys the corpus once. Edges come
from single-bit-flip hash lookups (O(nodes * dimension)), never from
all-pairs comparison. Layout is Kamada-Kawai, over breadth-first hop
distances, on the final snapshot's main component with a seeded random
start; earlier snapshots reuse those fixed positions so types do not move
between frames.
"""

import csv
import json
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy.sparse.csgraph import shortest_path

from .corpus import RecordSet, pack_rows
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
    return int.from_bytes(pack_rows(np.asarray(bits, dtype=bool).reshape(1, -1)).tobytes(), "little")


def _type_keys(matrix: np.ndarray):
    """(keys, types): the pack_vector key of each distinct row, and each row's index into keys."""
    unique, types = np.unique(pack_rows(matrix), axis=0, return_inverse=True)
    return [int.from_bytes(row.tobytes(), "little") for row in unique], types.reshape(-1)


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


@dataclass
class LandscapeGraph:
    """One cumulative snapshot: the plotted types up to snapshot_year (whole-corpus
    count filter), keyed and ordered by type key, and their distance-1 edges."""

    snapshot_year: int
    dimension: int
    nodes: Dict[int, TypeNode]
    edges: Tuple[Tuple[int, int], ...]
    cf_share_threshold: float

    def __post_init__(self):
        for u, v in self.edges:
            assert u < v and u in self.nodes and v in self.nodes
            assert ((u ^ v).bit_count()) == 1

    @property
    def plotted(self) -> Tuple[int, ...]:
        return tuple(self.nodes)


def build_landscape(
    records: RecordSet,
    up_to_year: int,
    min_type_count: int = DEFAULT_MIN_TYPE_COUNT,
    cf_share_threshold: float = DEFAULT_CF_SHARE_THRESHOLD,
) -> LandscapeGraph:
    """Cumulative landscape of the records published up to up_to_year: its plotted types.

    Node counts are cumulative to the snapshot year, but the plotted filter
    uses implementation counts over the whole corpus, so the plotted node set
    can only grow across snapshots.
    """
    if len(records) == 0:
        raise EmptyGraph("no records")
    dim = records.registry.dimension
    keys, types = _type_keys(records.matrix)
    corpus_counts = np.bincount(types, minlength=len(keys))
    in_snapshot = records.years <= up_to_year
    snapshot_types, years = types[in_snapshot], records.years[in_snapshot]
    totals = np.bincount(snapshot_types, minlength=len(keys))
    funded_types = snapshot_types[records.columns["crowdfunded"][in_snapshot]]
    cf_counts = np.bincount(funded_types, minlength=len(keys))
    first_years = np.full(len(keys), np.iinfo(np.int64).max)
    np.minimum.at(first_years, snapshot_types, years)
    plotted_types = np.flatnonzero((totals > 0) & (corpus_counts >= min_type_count)).tolist()
    nodes = {
        keys[t]: TypeNode(
            key=keys[t],
            total_count=int(totals[t]),
            crowdfunded_count=int(cf_counts[t]),
            first_year=int(first_years[t]),
        )
        for t in sorted(plotted_types, key=keys.__getitem__)
    }
    return LandscapeGraph(
        snapshot_year=up_to_year,
        dimension=dim,
        nodes=nodes,
        edges=flip_edges(tuple(nodes), dim),
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


def _main_component(graph: LandscapeGraph) -> nx.Graph:
    """Largest connected component of the plotted types (ties: smallest key), in key order."""
    g = nx.Graph()
    g.add_nodes_from(graph.plotted)
    g.add_edges_from(graph.edges)
    components = sorted(nx.connected_components(g), key=lambda c: (-len(c), min(c)))
    g.remove_nodes_from(set(g) - components[0])
    return g


def layout(
    graph: LandscapeGraph,
    seed: int = DEFAULT_LAYOUT_SEED,
) -> Dict[int, Tuple[float, float]]:
    """Positions for the plotted nodes of the graph's main connected component.

    Kamada-Kawai over hop distances from a seeded random start. Lay out the
    final snapshot once and draw every earlier snapshot at those positions:
    its plotted nodes are a subset of the final ones. Plotted nodes outside
    the main component get no position and are left out of plots. A
    single-node component sits at the origin.
    """
    if not graph.plotted:
        raise EmptyGraph("no plotted nodes")
    g = _main_component(graph)
    main = list(g)
    if len(main) == 1:
        return {main[0]: (0.0, 0.0)}
    rng = np.random.default_rng(seed)
    init = {k: rng.uniform(-1.0, 1.0, size=2) for k in main}
    hops = shortest_path(nx.to_scipy_sparse_array(g, nodelist=main), unweighted=True)
    dist = {u: dict(zip(main, row.tolist())) for u, row in zip(main, hops)}
    raw = nx.kamada_kawai_layout(g, dist=dist, pos=init)
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
) -> Tuple[Optional[Centroid], Optional[Centroid]]:
    """(crowdfunded, traditional) centroids of the snapshot's positioned types.

    Weight is the group's cumulative game count at each positioned type. A
    group with no games on positioned types has no centroid.
    """
    positioned = [node for key, node in graph.nodes.items() if key in positions]
    out = []
    for group, weight in ((GROUP_CROWDFUNDED, lambda n: n.crowdfunded_count),
                          (GROUP_TRADITIONAL, lambda n: n.total_count - n.crowdfunded_count)):
        per_node = [(node.key, weight(node)) for node in positioned if weight(node)]
        total = sum(w for _, w in per_node)
        if total == 0:
            out.append(None)
            continue
        x = sum(positions[k][0] * w for k, w in per_node) / total
        y = sum(positions[k][1] * w for k, w in per_node) / total
        out.append(Centroid(group=group, point=(x, y), year=graph.snapshot_year))
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
            g.add_node(str(row["id"]), **{k: v for k, v in row.items() if k != "id"})
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
    classes: Mapping[int, str],
    size: int = 720,
    base_radius: float = 3.0,
) -> None:
    """Plot the positioned subgraph: radius grows with sqrt(count), fill by
    share class (crowdfunded red, formerly orange, baseline grey); `classes`
    is the snapshot's entry of classify_snapshots."""
    rows, edges = _export_rows(graph, positions)
    keys = [row["id"] for row in rows]
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
    for u, v in edges:
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
