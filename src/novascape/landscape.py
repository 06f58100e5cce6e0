"""Type-landscape networks over unique feature vectors.

Nodes are distinct vectors ("types"); an edge joins two types that differ in
exactly one feature. Snapshots are cumulative: the landscape at year Y covers
every record published up to Y. Only types implemented by at least
min_type_count records in the whole corpus are plotted; this makes early
snapshots future-aware by construction, matching how the figures are built.
A snapshot holds its plotted types only, as columns in ascending key order,
and everything drawn or summarised from it (exports, SVG, share classes,
centroids) reads those columns.

Type keys come from the corpus' packed uint64 words (corpus.pack_rows), so bit j
of a key is feature j; a report keys and counts the corpus once, with one lexsort
of the words, and makes Python integers of each snapshot's plotted types only.
Edges are index pairs into a snapshot's columns, found by array lookups over
single-bit flips of the plotted words (flip_edges), never by all-pairs
comparison. Layout is Kamada-Kawai (Kamada & Kawai 1989), over breadth-first hop
distances, on the final snapshot's main component with a seeded random start;
earlier snapshots reuse those fixed positions so types do not move between frames.
Its energy is NetworkX 3.6's _kamada_kawai_costfn, minimised and rescaled as
NetworkX's kamada_kawai_layout does, bit for bit, in the hop matrix (inverted in
place) and one (4, n, n) buffer set allocated once per layout. Components come from
the edge list; the main component's hops from all breadth-first searches at once,
each frontier formed in place and claimed in the hop matrix, with no owner index.
The minimiser is scipy's compiled L-BFGS-B routine (Byrd, Lu, Nocedal & Zhu 1995),
`setulb`, loaded from its extension file by `_compiled.routines` and driven
as scipy 1.17's minimize(method="L-BFGS-B") drives it: importing scipy.optimize for
it would cost 0.12-0.18 s, mostly in solvers the layout never calls; a scipy whose
setulb has another signature takes scipy.optimize.minimize instead.
"""

import json
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ._compiled import routines
from .corpus import RecordSet, pack_rows, write_csv_columns
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
# render_svg's square side in pixels, and its node radius per sqrt(type count)
SVG_SIZE = 720
SVG_BASE_RADIUS = 3.0


def _distinct(packed: np.ndarray):
    """(rows, index): the distinct rows of packed uint64 words (k, w), in
    ascending key order, and each row's index into them."""
    # the last word is the most significant and lexsort's primary key
    order = np.lexsort(packed.T)
    ordered = packed[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    index = np.empty(len(order), dtype=np.intp)
    index[order] = np.cumsum(new) - 1
    return ordered[new], index


def _keys(words: np.ndarray) -> list:
    """Each row of packed uint64 words as one int; bit j of the int is bit j of the row."""
    keys = words[:, -1].tolist()
    for w in range(words.shape[1] - 2, -1, -1):
        keys = [key << 64 | low for key, low in zip(keys, words[:, w].tolist())]
    return keys


def vector_bits(key: int, dimension: int) -> str:
    """The key's bits as a string, feature 0 first."""
    return format(key, f"0{dimension}b")[::-1]


@dataclass(eq=False)
class LandscapeGraph:
    """One cumulative snapshot as columns in ascending key order: the plotted types
    up to snapshot_year (whole-corpus count filter), their cumulative counts and
    first years, and their distance-1 edges as an ascending (m, 2) array of
    (smaller, larger) index pairs into the columns."""

    snapshot_year: int
    dimension: int
    keys: Tuple[int, ...]
    total_count: np.ndarray
    crowdfunded_count: np.ndarray
    first_year: np.ndarray
    edges: np.ndarray

    def __post_init__(self):
        assert len(self.keys) == len(self.total_count) == len(self.crowdfunded_count) == len(self.first_year)
        assert (self.total_count >= 1).all()
        assert ((0 <= self.crowdfunded_count) & (self.crowdfunded_count <= self.total_count)).all()
        for u, v in self.edges.tolist():
            assert 0 <= u < v < len(self.keys) and (self.keys[u] ^ self.keys[v]).bit_count() == 1

    @property
    def cf_share(self) -> np.ndarray:
        return self.crowdfunded_count / self.total_count


def build_landscape(
    records: RecordSet,
    years: Sequence[int],
    min_type_count: int = DEFAULT_MIN_TYPE_COUNT,
) -> List[LandscapeGraph]:
    """One cumulative landscape per snapshot year, in the order given: the plotted
    types of the records published up to that year.

    Node counts are cumulative to the snapshot year, but the plotted filter
    uses implementation counts over the whole corpus, so the plotted node set
    can only grow across snapshots. The corpus is keyed and counted once for
    every snapshot; a type's first year in a snapshot that holds it is its
    first year in the corpus.
    """
    if len(records) == 0:
        raise EmptyGraph("no records")
    dim = records.registry.dimension
    words, types = _distinct(pack_rows(records.matrix))
    first_years = np.full(len(words), np.iinfo(np.int64).max)
    np.minimum.at(first_years, types, records.years)
    common = np.bincount(types, minlength=len(words)) >= min_type_count
    graphs = []
    for year in years:
        in_snapshot = records.years <= year
        plotted = np.flatnonzero(common & (first_years <= year))
        totals, cf_counts = (np.bincount(types[rows], minlength=len(words))[plotted]
                             for rows in (in_snapshot, in_snapshot & records.columns["crowdfunded"]))
        graphs.append(LandscapeGraph(year, dim, tuple(_keys(words[plotted])), totals, cf_counts,
                                     first_years[plotted], flip_edges(words[plotted], dim)))
    return graphs


def flip_edges(words: np.ndarray, dimension: int) -> np.ndarray:
    """All Hamming-1 pairs among the distinct rows of packed words (k, ceil(dimension / 64))
    in ascending key order (_distinct), as an ascending (m, 2) array of (smaller, larger)
    row indices.

    Per word, each row's word is XORed with all its bits at once; only clear bits are
    flipped, so a pair is found once, from its smaller row. A flip whose Fibonacci hash
    no row's word has (in about 16 slots per row) is no row's; the rows the other flips
    make are sorted in with the rows, and each that lands on a row is an edge.
    """
    k, n_words = words.shape
    bits = max(k, 1).bit_length() + 4
    phi, shift = np.uint64(0x9E3779B97F4A7C15), np.uint64(64 - bits)
    found = []
    for w in range(n_words):
        column = words[:, w : w + 1]
        seen = np.zeros(1 << bits, dtype=bool)
        seen[column * phi >> shift] = True
        flipped = column ^ (np.uint64(1) << np.arange(min(64, dimension - 64 * w), dtype=np.uint64))
        kept = seen[(flipped * phi >> shift).view(np.int64)] & (flipped > column)
        rows, bit = np.divmod(np.flatnonzero(kept), flipped.shape[1])
        made = words[rows]
        made[:, w] = flipped[rows, bit]
        index = _distinct(np.concatenate((words, made)))[1]
        row_of = np.full(k + len(rows), -1)
        row_of[index[:k]] = np.arange(k)
        partner = row_of[index[k:]]
        found.append(np.column_stack((rows[partner >= 0], partner[partner >= 0])))
    edges = np.concatenate(found)
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def layout(
    graph: LandscapeGraph,
    seed: int = DEFAULT_LAYOUT_SEED,
) -> Dict[int, Tuple[float, float]]:
    """Positions for the plotted nodes of the graph's main connected component
    (the largest; of equal ones, the one with the smallest key).

    Kamada-Kawai over hop distances from a seeded random start. Lay out the
    final snapshot once and draw every earlier snapshot at those positions:
    its plotted nodes are a subset of the final ones. Plotted nodes outside
    the main component get no position and are left out of plots. A
    single-node component sits at the origin.

    The energy is minimised by `_minimize_lbfgsb`, scipy's L-BFGS-B routine
    called directly, without importing scipy.optimize; only when `routines`
    finds no such routine does scipy.optimize.minimize run, to the same
    positions.
    """
    if not graph.keys:
        raise EmptyGraph("no plotted nodes")
    main, hops = _main_component(len(graph.keys), *graph.edges.T)
    keys = [graph.keys[i] for i in main.tolist()]
    if len(keys) == 1:
        return {keys[0]: (0.0, 0.0)}
    start = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(len(keys), 2))
    # NetworkX's 1 / (hops + 1e-3 * I), in place: the diagonal of hops is 0
    np.fill_diagonal(hops, 1e-3)
    args = (np.divide(1.0, hops, out=hops), np.empty((4, len(keys), len(keys))))
    if routines("optimize/_lbfgsb", (_SETULB_SIGNATURE,)) is None:
        from scipy.optimize import minimize

        pos = minimize(_kamada_kawai_energy, start.ravel(), args=args, method="L-BFGS-B", jac=True).x
    else:
        pos = _minimize_lbfgsb(_kamada_kawai_energy, start.ravel(), args)[0]
    pos = pos.reshape(-1, 2)
    pos -= pos.mean(axis=0)
    pos *= 1 / np.abs(pos).max()
    # NetworkX's added zero centre turns any -0.0 into 0.0
    return dict(zip(keys, map(tuple, (pos + np.zeros(2)).tolist())))


def _main_component(n: int, u: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(main, hops): the ascending indices of the largest connected component of n
    nodes joined by the edges (u[i], v[i]), and the hop counts between them.

    As with scipy's connected_components, of equal components the one with the
    lowest index wins, which in a snapshot is the one with the smallest key.
    Components come from the edge list, since most plotted types of a sparse
    snapshot are isolated (2,142 nodes and 125 edges in report-large's); only
    the main component's hops take an (m, m) matrix.
    """
    # each node's component by its lowest index: every pass lowers a node's label
    # to its neighbours' and to its label's own, until no label moves
    lowest = np.arange(n)
    while True:
        lower = lowest.copy()
        np.minimum.at(lower, u, lowest[v])
        np.minimum.at(lower, v, lowest[u])
        lower = lower[lower]
        if np.array_equal(lower, lowest):
            break
        lowest = lower
    # bincount's argmax is the first largest
    in_main = lowest == np.bincount(lowest).argmax()
    within = in_main[u]
    local = np.cumsum(in_main) - 1
    return np.flatnonzero(in_main), _hops(int(in_main.sum()), local[u[within]], local[v[within]])


def _hops(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Breadth-first hop counts between every two of n nodes joined by the
    undirected edges (u[i], v[i]), as float64; inf between components.

    Every search expands at once. The frontier, the pairs source * n + node
    first reached at the last hop, is formed in place from each node's run of
    neighbours, and pairs already reached are dropped. Position i claims its
    pair by writing -1 - i into the hop matrix; where the claim stayed, the
    hop count settles it. So each pair is expanded once, O(n * edges) in all,
    however long the longest path; no BLAS is called: a (206, 206) float64
    product took 12-16 ms under OpenBLAS's default two threads on a 2-CPU host.
    """
    # each node's neighbours as one run of `neighbours`, the runs in node order
    ends, neighbours = np.concatenate([u, v]), np.concatenate([v, u])
    neighbours = neighbours[np.argsort(ends)]
    degree = np.bincount(ends, minlength=n)
    stops = np.cumsum(degree)
    hops = np.full((n, n), np.inf)
    np.fill_diagonal(hops, 0.0)
    flat_hops = hops.reshape(-1)
    pairs = np.arange(n) * (n + 1)  # hop 0: each node from itself
    for hop in range(1, n):
        source, node = np.divmod(pairs, n)
        runs = degree[node]
        # each neighbour's index into `neighbours`, then the pair it makes with its source
        pairs = np.repeat(stops[node] - np.cumsum(runs), runs)
        pairs += np.arange(len(pairs))
        pairs = neighbours[pairs]
        pairs += np.repeat(source * n, runs)
        pairs = pairs[np.isinf(flat_hops[pairs])]
        claims = np.arange(-1.0, -1.0 - len(pairs), -1.0)
        flat_hops[pairs] = claims
        pairs = pairs[flat_hops[pairs] == claims]
        if not len(pairs):
            break
        flat_hops[pairs] = hop
    return hops


# scipy 1.17's C setulb; the f2py wrapper of older versions takes other arguments
_SETULB_SIGNATURE = "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"


def _minimize_lbfgsb(fun, x0: np.ndarray, args: tuple):
    """(x, iterations, evaluations) of scipy 1.17's _minimize_lbfgsb on a float64
    vector x0 with no bounds, fun returning (value, gradient) as with jac=True,
    and minimize's default options; the same setulb calls in the same order, so
    x is bit-equal to minimize(fun, x0, args, method="L-BFGS-B", jac=True).x.
    Like scipy's ScalarFunction it evaluates fun at x0 first, then only where x
    has moved since the last evaluation, always on a copy of x."""
    setulb = routines("optimize/_lbfgsb", (_SETULB_SIGNATURE,)).setulb
    m, maxls, maxiter, maxfun = 10, 20, 15000, 15000
    factr = 2.2204460492503131e-09 / np.finfo(float).eps
    pgtol = 1e-5
    x = np.array(x0, dtype=np.float64).ravel()
    n = x.size
    evaluated = x.copy()
    value_grad = fun(evaluated.copy(), *args)
    nfev = 1
    nbd = np.zeros(n, np.int32)
    lower = np.zeros(n)
    upper = np.zeros(n)
    f = np.array(0.0)
    g = np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)
    nit = 0
    while True:
        g = g.astype(np.float64)
        setulb(m, x, lower, upper, nbd, f, g, factr, pgtol, wa, iwa, task, lsave, isave, dsave, maxls, ln_task)
        if task[0] == 3:  # evaluate at x
            if not np.array_equal(x, evaluated):
                evaluated = x.copy()
                value_grad = fun(evaluated.copy(), *args)
                nfev += 1
            f, g = value_grad
        elif task[0] == 1:  # a new iteration
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504
            elif nfev > maxfun:
                task[:] = 5, 502
        else:
            return x, nit, nfev


def _kamada_kawai_energy(pos_vec: np.ndarray, invdist: np.ndarray, buffers: np.ndarray):
    """NetworkX 3.6's _kamada_kawai_costfn in two dimensions with mean weight 1e-3:
    the energy and its gradient, bit for bit. delta holds one (n, n) plane per
    axis; delta[:, j, i] == -delta[:, i, j], so NetworkX's "ij,ij,ijk->ik" einsum
    is exactly minus its "->jk" one, and both add in index order, as a sum over
    the rows of a plane does (a sum along a row is pairwise).

    Every (n, n) intermediate is written into `buffers`, a float64 (4, n, n)
    array the caller allocates once per minimisation, in NetworkX's operation
    order; no value is carried from one call to the next.
    """
    pos = pos_vec.reshape((-1, 2))
    delta, sep, spare = buffers[:2], buffers[2], buffers[3]
    np.subtract(pos.T[:, :, np.newaxis], pos.T[:, np.newaxis, :], out=delta)
    np.multiply(delta, delta, out=buffers[2:])
    np.sqrt(np.add(sep, spare, out=sep), out=sep)
    # sep + 1e-3 * I: off the diagonal sep + 0.0 is sep, as sep >= +0
    np.fill_diagonal(sep, 1e-3)
    np.multiply(delta, np.divide(1.0, sep, out=spare), out=delta)
    offset = np.subtract(np.multiply(sep, invdist, out=spare), 1.0, out=spare)
    np.fill_diagonal(offset, 0)
    g = np.multiply(delta, np.multiply(invdist, offset, out=sep), out=delta).sum(axis=1).T
    # a parabolic term holding the mean position near the origin
    sumpos = np.sum(pos, axis=0)
    cost = 0.5 * np.sum(np.multiply(offset, offset, out=offset)) + 0.5 * 1e-3 * np.sum(sumpos**2)
    return cost, (-(g + g) + 1e-3 * sumpos).ravel()


def classify_snapshots(
    graphs: Sequence[LandscapeGraph],
    cf_share_threshold: float,
) -> Dict[int, Dict[int, str]]:
    """Share class per node per snapshot, with history.

    A node is "crowdfunded" while its cumulative crowdfunded share is at or
    above cf_share_threshold, "formerly_crowdfunded" once it was in an
    earlier snapshot but is not now, and "baseline" otherwise.
    """
    out: Dict[int, Dict[int, str]] = {}
    ever_hot: set = set()
    for graph in sorted(graphs, key=lambda g: g.snapshot_year):
        classes = {
            key: CLASS_CROWDFUNDED if hot else CLASS_FORMER if key in ever_hot else CLASS_BASELINE
            for key, hot in zip(graph.keys, (graph.cf_share >= cf_share_threshold).tolist())
        }
        out[graph.snapshot_year] = classes
        ever_hot.update(k for k, c in classes.items() if c == CLASS_CROWDFUNDED)
    return out


class ExportRows(NamedTuple):
    """What every landscape file of one snapshot shows, built once for all formats."""

    nodes: List[dict]  # one EXPORT_COLUMNS row per positioned node, in key order
    edges: Tuple[Tuple[int, int], ...]  # the edges between positioned nodes


def export_rows(graph: LandscapeGraph, positions: Mapping[int, Tuple[float, float]]) -> ExportRows:
    """The export rows of the graph's positioned nodes and edges."""
    keys, shown = graph.keys, np.array([key in positions for key in graph.keys], dtype=bool)
    at = np.flatnonzero(shown)
    columns = (graph.total_count, graph.crowdfunded_count, graph.cf_share, graph.first_year)
    nodes = [dict(zip(EXPORT_COLUMNS, (keys[i], vector_bits(keys[i], graph.dimension), *row,
                                       *map(float, positions[keys[i]]))))
             for i, row in zip(at.tolist(), zip(*(column[at].tolist() for column in columns)))]
    edges = graph.edges[shown[graph.edges].all(axis=1)].tolist()
    return ExportRows(nodes, tuple((keys[u], keys[v]) for u, v in edges))


def centroids(rows: ExportRows) -> Tuple[Optional[Tuple[str, Tuple[float, float]]], ...]:
    """(crowdfunded, traditional) centroids, each (group, (x, y)), from a snapshot's export rows.

    Weight is the group's cumulative game count at each positioned type. A
    group with no games on positioned types has no centroid (None).
    """
    out = []
    for group, weights in ((GROUP_CROWDFUNDED, [node["cf_count"] for node in rows.nodes]),
                           (GROUP_TRADITIONAL, [node["count"] - node["cf_count"] for node in rows.nodes])):
        per_node = [(node["x"], node["y"], w) for node, w in zip(rows.nodes, weights) if w]
        total = sum(w for _, _, w in per_node)
        if total == 0:
            out.append(None)
            continue
        point = (sum(x * w for x, _, w in per_node) / total, sum(y * w for _, y, w in per_node) / total)
        assert np.isfinite(point).all()
        out.append((group, point))
    return tuple(out)


def export_graph(graph: LandscapeGraph, rows: ExportRows, fmt: str, path, seed: int) -> None:
    """Write the snapshot's export rows (see export_rows) with the graph's year and dimension.

    Formats: graphml, json, and csv (one row per node, no edges); svg is
    drawn by render_svg. Node attributes are count, cf_count, cf_share,
    first_year, x, y (plus the bit string, so files are self-describing);
    graphml and json record the layout seed.
    """
    if fmt not in EXPORT_FORMATS or fmt == "svg":
        raise ValueError(f"export_graph cannot write format {fmt!r}")
    if fmt == "csv":
        write_csv_columns(path, EXPORT_COLUMNS, [list(map(itemgetter(name), rows.nodes)) for name in EXPORT_COLUMNS])
        return
    meta = {"year": graph.snapshot_year, "dimension": graph.dimension}
    if fmt == "graphml":
        text = _graphml_text({**meta, "layout_seed": int(seed)}, rows.nodes, rows.edges)
    else:
        # one string, one write: json.dump would write each of its small pieces
        text = json.dumps({**meta, "nodes": rows.nodes, "edges": [list(e) for e in rows.edges],
                           "layout_seed": int(seed)}, indent=2) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


_GRAPHML_TYPES = {int: "long", float: "double", str: "string"}
_XML_SPECIAL = frozenset("<>&\"'")


def _graphml_text(meta: dict, rows, edges) -> str:
    """GraphML of one graph, laid out as NetworkX's write_graphml writes it.

    Keys are numbered in order of first use, graph data first, and listed
    newest first; the graph's data follows its edges. Every id and value is
    a number or a bit string, so no text needs XML escaping.
    """
    keys: Dict[tuple, str] = {}

    def data(scope, name, value, indent):
        text = str(value)
        assert _XML_SPECIAL.isdisjoint(text), text
        key = keys.setdefault((name, _GRAPHML_TYPES[type(value)], scope), f"d{len(keys)}")
        return f'{indent}<data key="{key}">{text}</data>'

    graph_data = [data("graph", name, value, "    ") for name, value in meta.items()]
    body = []
    for row in rows:
        body.append(f'    <node id="{row["id"]}">')
        body.extend(data("node", name, value, "      ") for name, value in row.items() if name != "id")
        body.append("    </node>")
    body.extend(f'    <edge source="{u}" target="{v}" />' for u, v in edges)
    key_lines = [f'  <key id="{key}" for="{scope}" attr.name="{name}" attr.type="{kind}" />'
                 for (name, kind, scope), key in reversed(keys.items())]
    return "\n".join([
        "<?xml version='1.0' encoding='utf-8'?>",
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns" '
        'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:schemaLocation='
        '"http://graphml.graphdrawing.org/xmlns http://graphml.graphdrawing.org/xmlns/1.0/graphml.xsd">',
        *key_lines, '  <graph edgedefault="undirected">', *body, *graph_data,
        "  </graph>", "</graphml>", "",
    ])


def render_svg(
    graph: LandscapeGraph,
    rows: ExportRows,
    path,
    classes: Mapping[int, str],
) -> None:
    """Plot the snapshot's export rows (see export_rows) on a SVG_SIZE-pixel
    square: radius is SVG_BASE_RADIUS * sqrt(count), fill by share class
    (crowdfunded red, formerly orange, baseline grey); `classes` is the
    snapshot's entry of classify_snapshots."""
    positions = {row["id"]: (row["x"], row["y"]) for row in rows.nodes}
    pad = 0.08
    xs = [x for x, _ in positions.values()]
    ys = [y for _, y in positions.values()]
    lo_x, hi_x = min(xs, default=0.0), max(xs, default=0.0)
    lo_y, hi_y = min(ys, default=0.0), max(ys, default=0.0)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)

    def to_px(p):
        x = (p[0] - lo_x) / span * (1 - 2 * pad) * SVG_SIZE + pad * SVG_SIZE
        y = (1 - (p[1] - lo_y) / span * (1 - 2 * pad)) * SVG_SIZE - pad * SVG_SIZE
        return x, y

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'  <title>type landscape, year {graph.snapshot_year}</title>',
    ]
    for u, v in rows.edges:
        ux, uy = to_px(positions[u])
        vx, vy = to_px(positions[v])
        lines.append(
            f'  <line x1="{ux:.3f}" y1="{uy:.3f}" x2="{vx:.3f}" y2="{vy:.3f}" '
            f'stroke="#cccccc" stroke-width="0.6"/>'
        )
    for row in rows.nodes:
        x, y = to_px(positions[row["id"]])
        r = SVG_BASE_RADIUS * np.sqrt(row["count"])
        fill = CLASS_FILL.get(classes.get(row["id"], CLASS_BASELINE), CLASS_FILL[CLASS_BASELINE])
        lines.append(f'  <circle cx="{x:.3f}" cy="{y:.3f}" r="{r:.3f}" fill="{fill}" fill-opacity="0.85"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
