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
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from .corpus import RecordSet
from .errors import EmptyGraph, ParseError

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

IMPORT_FORMATS = ("graphml", "json", "dot")
# csv is a node table without edges, year or dimension, so it is written but not read back
EXPORT_FORMATS = IMPORT_FORMATS + ("csv",)
EXPORT_COLUMNS = ("id", "vector_bits", "count", "cf_count", "cf_share", "first_year", "x", "y")


def pack_vector(bits) -> int:
    """Pack a binary vector into an int key; bit j of the key is feature j."""
    key = 0
    for j, b in enumerate(np.asarray(bits).tolist()):
        if b:
            key |= 1 << j
    return key


def unpack_vector(key: int, dimension: int) -> np.ndarray:
    return np.array([(key >> j) & 1 for j in range(dimension)], dtype=np.uint8)


def vector_bits(key: int, dimension: int) -> str:
    return "".join(str((key >> j) & 1) for j in range(dimension))


@dataclass(frozen=True)
class TypeNode:
    key: int
    total_count: int
    crowdfunded_count: int
    first_year: int
    first_funding: str

    def __post_init__(self):
        assert self.total_count >= 1
        assert 0 <= self.crowdfunded_count <= self.total_count
        assert self.first_funding in (GROUP_CROWDFUNDED, GROUP_TRADITIONAL)

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
    positions: Optional[Dict[int, Tuple[float, float]]] = None

    def __post_init__(self):
        plotted = set(self.plotted)
        for u, v in self.edges:
            assert u < v and u in plotted and v in plotted
            assert ((u ^ v).bit_count()) == 1

    @property
    def plotted_nodes(self) -> Tuple[TypeNode, ...]:
        return tuple(self.nodes[k] for k in self.plotted)

    def positioned(self) -> Tuple[int, ...]:
        if self.positions is None:
            return self.plotted
        return tuple(k for k in self.plotted if k in self.positions)


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
                # [total, cf_count, first_year, first_funding]
                snapshot[key] = [
                    1,
                    int(rec.crowdfunded),
                    rec.year,
                    GROUP_CROWDFUNDED if rec.crowdfunded else GROUP_TRADITIONAL,
                ]
            else:
                entry[0] += 1
                entry[1] += int(rec.crowdfunded)
                if rec.year < entry[2]:
                    entry[2] = rec.year
                    entry[3] = GROUP_CROWDFUNDED if rec.crowdfunded else GROUP_TRADITIONAL
    nodes = {
        key: TypeNode(
            key=key,
            total_count=total,
            crowdfunded_count=cf,
            first_year=first_year,
            first_funding=funding,
        )
        for key, (total, cf, first_year, funding) in snapshot.items()
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
    final_graph: Optional[LandscapeGraph] = None,
    seed: int = DEFAULT_LAYOUT_SEED,
) -> Dict[int, Tuple[float, float]]:
    """Positions for the plotted nodes, anchored to the final snapshot.

    The Kamada-Kawai layout is computed once on the final snapshot's main
    connected component from a seeded random start; any earlier snapshot
    simply inherits those coordinates for the nodes it contains. Plotted
    nodes outside the final main component get no position and are left out
    of plots. A single-node component sits at the origin.
    """
    final_graph = graph if final_graph is None else final_graph
    if not final_graph.plotted:
        raise EmptyGraph("no plotted nodes")
    missing = [k for k in graph.plotted if k not in final_graph.nodes]
    if missing:
        raise EmptyGraph(f"snapshot has {len(missing)} plotted nodes absent from the final snapshot")
    main = _main_component(final_graph)
    if len(main) == 1:
        final_pos = {main[0]: (0.0, 0.0)}
    else:
        g = nx.Graph()
        g.add_nodes_from(main)
        g.add_edges_from((u, v) for u, v in final_graph.edges if u in set(main) and v in set(main))
        rng = np.random.default_rng(seed)
        init = {k: rng.uniform(-1.0, 1.0, size=2) for k in main}
        raw = nx.kamada_kawai_layout(g, pos=init)
        final_pos = {k: (float(p[0]), float(p[1])) for k, p in raw.items()}
    return {k: final_pos[k] for k in graph.plotted if k in final_pos}


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
    weight_by: str = "games",
) -> Tuple[Optional[Centroid], Optional[Centroid]]:
    """(crowdfunded, traditional) centroids of positioned types at a year.

    Weight is the group's cumulative game count at each positioned type, or
    one per implemented type with weight_by="types". A group with no games on
    positioned types has no centroid.
    """
    if weight_by not in ("games", "types"):
        raise ValueError(f"weight_by must be 'games' or 'types', got {weight_by!r}")
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
        if weight_by == "types":
            per_node = {k: 1 for k in per_node}
        total = sum(per_node.values())
        if total == 0:
            out.append(None)
            continue
        x = sum(positions[k][0] * w for k, w in sorted(per_node.items())) / total
        y = sum(positions[k][1] * w for k, w in sorted(per_node.items())) / total
        out.append(Centroid(group=group, point=(x, y), year=year))
    return tuple(out)


def classify_snapshots(
    graphs: Sequence[LandscapeGraph], threshold: Optional[float] = None
) -> Dict[int, Dict[int, str]]:
    """Share class per node per snapshot, with history.

    A node is "crowdfunded" while its cumulative crowdfunded share is at or
    above the threshold, "formerly_crowdfunded" once it was above in an
    earlier snapshot but is not now, and "baseline" otherwise.
    """
    ordered = sorted(graphs, key=lambda g: g.snapshot_year)
    out: Dict[int, Dict[int, str]] = {}
    ever_hot: set = set()
    for graph in ordered:
        thr = graph.cf_share_threshold if threshold is None else threshold
        classes = {}
        for key in graph.plotted:
            node = graph.nodes[key]
            if node.cf_share >= thr:
                classes[key] = CLASS_CROWDFUNDED
            elif key in ever_hot:
                classes[key] = CLASS_FORMER
            else:
                classes[key] = CLASS_BASELINE
        out[graph.snapshot_year] = classes
        ever_hot.update(k for k, c in classes.items() if c == CLASS_CROWDFUNDED)
    return out


def _export_rows(graph: LandscapeGraph, positions):
    keys = graph.positioned() if positions is None else tuple(
        k for k in graph.plotted if k in positions
    )
    key_set = set(keys)
    edges = tuple((u, v) for u, v in graph.edges if u in key_set and v in key_set)
    rows = []
    for k in keys:
        node = graph.nodes[k]
        x, y = (positions or graph.positions or {}).get(k, (0.0, 0.0))
        values = (k, vector_bits(k, graph.dimension), node.total_count, node.crowdfunded_count,
                  node.cf_share, node.first_year, float(x), float(y))
        rows.append(dict(zip(EXPORT_COLUMNS, values)))
    return rows, edges


def export_graph(graph: LandscapeGraph, positions, fmt: str, path, seed: Optional[int] = None) -> None:
    """Write the plotted (positioned) subgraph with node attributes.

    Formats: graphml, json, dot, and csv (one row per node, no edges).
    Node attributes are count, cf_count, cf_share, first_year, x, y (plus
    the bit string, so files are self-describing); graphml, json and dot
    record the layout seed when given.
    """
    if fmt not in EXPORT_FORMATS:
        raise ValueError(f"unknown export format {fmt!r}")
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
    elif fmt == "json":
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
    else:
        lines = [f"graph landscape {{"]
        lines.append(f'  // year={graph.snapshot_year} dimension={graph.dimension}'
                     + (f" layout_seed={int(seed)}" if seed is not None else ""))
        for row in rows:
            attrs = (
                f'vector_bits="{row["vector_bits"]}", count={row["count"]}, '
                f'cf_count={row["cf_count"]}, cf_share={row["cf_share"]!r}, '
                f'first_year={row["first_year"]}, x={row["x"]!r}, y={row["y"]!r}'
            )
            lines.append(f'  n{row["id"]} [{attrs}];')
        for u, v in edges:
            lines.append(f"  n{u} -- n{v};")
        lines.append("}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def import_graph(path, fmt: str) -> LandscapeGraph:
    """Parse a graphml, json or dot file written by export_graph back into a LandscapeGraph."""
    if fmt not in IMPORT_FORMATS:
        raise ValueError(f"unknown export format {fmt!r}")
    if fmt == "graphml":
        g = nx.read_graphml(path)
        year = int(g.graph.get("year", 0))
        dimension = int(g.graph.get("dimension", 0))
        rows = []
        for nid, data in g.nodes(data=True):
            rows.append(
                {
                    "id": int(nid),
                    "vector_bits": data["vector_bits"],
                    "count": int(data["count"]),
                    "cf_count": int(data["cf_count"]),
                    "cf_share": float(data["cf_share"]),
                    "first_year": int(data["first_year"]),
                    "x": float(data["x"]),
                    "y": float(data["y"]),
                }
            )
        edges = [(int(u), int(v)) for u, v in g.edges()]
    elif fmt == "json":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        year = int(payload["year"])
        dimension = int(payload["dimension"])
        rows = payload["nodes"]
        edges = [(int(u), int(v)) for u, v in payload["edges"]]
    else:
        text = open(path, encoding="utf-8").read()
        meta = re.search(r"// year=(\d+) dimension=(\d+)", text)
        if not meta:
            raise ParseError(f"{path}: missing landscape header comment")
        year, dimension = int(meta.group(1)), int(meta.group(2))
        rows = []
        node_re = re.compile(
            r'n(\d+) \[vector_bits="([01]+)", count=(\d+), cf_count=(\d+), '
            r"cf_share=([^,]+), first_year=(\d+), x=([^,]+), y=([^\]]+)\];"
        )
        for m in node_re.finditer(text):
            rows.append(
                {
                    "id": int(m.group(1)),
                    "vector_bits": m.group(2),
                    "count": int(m.group(3)),
                    "cf_count": int(m.group(4)),
                    "cf_share": float(m.group(5)),
                    "first_year": int(m.group(6)),
                    "x": float(m.group(7)),
                    "y": float(m.group(8)),
                }
            )
        edges = [(int(u), int(v)) for u, v in re.findall(r"n(\d+) -- n(\d+);", text)]

    nodes = {}
    positions = {}
    for row in rows:
        key = int(row["id"])
        count = int(row["count"])
        cf = int(row["cf_count"])
        nodes[key] = TypeNode(
            key=key,
            total_count=count,
            crowdfunded_count=cf,
            first_year=int(row["first_year"]),
            first_funding=GROUP_TRADITIONAL,
        )
        positions[key] = (float(row["x"]), float(row["y"]))
    plotted = tuple(sorted(nodes))
    edges = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
    return LandscapeGraph(
        snapshot_year=year,
        dimension=dimension,
        nodes=nodes,
        plotted=plotted,
        edges=edges,
        min_type_count=0,
        cf_share_threshold=DEFAULT_CF_SHARE_THRESHOLD,
        positions=positions,
    )


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
