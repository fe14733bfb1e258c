"""Density-based clustering (DBSCAN), implemented from scratch.

The BSC cluster-analysis tool the paper builds on (Gonzalez et al.,
IPDPS'09) uses DBSCAN to group CPU bursts by similarity in the selected
metric space: density clustering needs no a-priori cluster count and
marks sparse points as noise, both essential when the number of
behavioural regions is unknown and instrumentation noise is present.

scikit-learn is not available in this environment, so this is a clean
classic implementation with two interchangeable engines:

- :func:`dbscan_reference` — the textbook formulation: neighbourhoods
  from a :class:`scipy.spatial.cKDTree` ball query, clusters grown
  breadth-first from unvisited core points, border points assigned to
  the first cluster that reaches them (Ester et al., 1996).  Kept as
  the executable specification the property suite checks against.
- :meth:`DBSCAN.fit` — a grid-bucketed, vectorised engine that
  produces **bit-identical** labels without ever walking Python-level
  neighbour lists.  See the *Equivalence* notes below.

Equivalence
-----------
The BFS labelling is fully determined by three facts, which the
vectorised engine computes directly:

1. *Core points* are those with ``>= min_pts`` neighbours within
   ``eps`` (self included) — independent of traversal order.
2. *Clusters* are the connected components of the core points under
   eps-adjacency.  The BFS numbers them from 1 in seed-discovery
   order, and the seed of a component is always its minimum-index core
   point, so: **a component's label is 1 + the rank of its minimum
   core-point index**.
3. *Border points* (non-core, within ``eps`` of some core point) are
   claimed by the first cluster whose expansion reaches them.  Since
   clusters are expanded to exhaustion in label order, that is always
   **the smallest label among the components of its core
   neighbours** — again independent of traversal order inside one
   cluster.

The grid engine buckets points into cells of width ``eps/sqrt(d)``
(shrunk by one part in 10^12): any two points in one cell are strictly
within ``eps`` of each other, so a cell with ``>= min_pts`` members is
a clique of core points and needs no counting at all.  Remaining
counts come from a single ``query_ball_point(..., return_length=True)``
pass.  Components are found on the tiny *cell* graph (two cells
connect iff some core pair across them is within ``eps``), decided by
batched nearest-neighbour queries, and border points take the smallest
label among their core neighbours in one ball query.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from repro import obs
from repro.errors import ClusteringError

__all__ = ["DBSCAN", "DBSCANResult", "NOISE", "dbscan_reference"]

#: Label given to noise points.  Cluster labels start at 1 so that the
#: plots and tables read like the paper's ("Cluster 0" is reserved).
NOISE = 0

#: Cell widths are eps/sqrt(d) shrunk by this relative margin so the
#: in-cell diameter stays strictly below eps even after rounding.
_CELL_MARGIN = 1.0 - 1e-12

#: Relative slack applied to the bounding-box distance screens; pairs
#: inside the slack band fall through to scipy's own ball predicate.
_BBOX_SLACK = 1e-9

#: Query points, or listed neighbours, per batched query; bounds memory.
_QUERY_BLOCK = 1 << 16


@dataclass(frozen=True, slots=True)
class DBSCANResult:
    """Outcome of one DBSCAN run.

    Attributes
    ----------
    labels:
        Per-point cluster label; ``NOISE`` (0) marks noise, clusters are
        numbered from 1 in discovery order (renumbered by callers that
        want duration ranking).
    n_clusters:
        Number of clusters found.
    core_mask:
        Boolean mask of core points.
    """

    labels: np.ndarray
    n_clusters: int
    core_mask: np.ndarray

    def cluster_indices(self, label: int) -> np.ndarray:
        """Indices of the points carrying *label*."""
        return np.flatnonzero(self.labels == label)

    @property
    def noise_indices(self) -> np.ndarray:
        """Indices of noise points."""
        return np.flatnonzero(self.labels == NOISE)


def _validate_points(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ClusteringError(
            f"points must be a 2-D array, got shape {points.shape}"
        )
    if points.size and not np.isfinite(points).all():
        raise ClusteringError("points contain NaN or infinite values")
    return points


def _empty_result() -> DBSCANResult:
    return DBSCANResult(
        labels=np.zeros(0, dtype=np.int32),
        n_clusters=0,
        core_mask=np.zeros(0, dtype=bool),
    )


def dbscan_reference(
    points: np.ndarray, eps: float, min_pts: int
) -> DBSCANResult:
    """Textbook DBSCAN: ball-query neighbourhoods + breadth-first growth.

    This is the executable specification of the labelling semantics;
    :meth:`DBSCAN.fit` must agree with it bit-for-bit (see the module
    docstring) and the property suite enforces that.
    """
    points = _validate_points(points)
    n = points.shape[0]
    if n == 0:
        return _empty_result()

    tree = cKDTree(points)
    # Expansion never needs sorted neighbourhoods; skipping the sort
    # saves time on dense frames.
    neighborhoods = tree.query_ball_point(
        points, eps, workers=-1, return_sorted=False
    )
    neighbor_counts = np.fromiter(
        (len(nb) for nb in neighborhoods), count=n, dtype=np.int64
    )
    core_mask = neighbor_counts >= min_pts

    labels = np.full(n, NOISE, dtype=np.int32)
    visited = np.zeros(n, dtype=bool)
    current_label = 0

    for seed in range(n):
        if visited[seed] or not core_mask[seed]:
            continue
        current_label += 1
        # Breadth-first expansion from this core point.  Each cluster's
        # core-connected component is exhausted before the next seed
        # starts, so the traversal discipline (FIFO here, LIFO, any
        # order) cannot change the labelling — only which points are
        # *visited* first.
        queue = deque([seed])
        visited[seed] = True
        labels[seed] = current_label
        while queue:
            point = queue.popleft()
            # Only core points expand the cluster; border points are
            # claimed but not traversed.
            if not core_mask[point]:
                continue
            for neighbor in neighborhoods[point]:
                if labels[neighbor] == NOISE and not visited[neighbor]:
                    labels[neighbor] = current_label
                    visited[neighbor] = True
                    if core_mask[neighbor]:
                        queue.append(neighbor)
    return DBSCANResult(
        labels=labels, n_clusters=current_label, core_mask=core_mask
    )


class _Grid:
    """Points bucketed into axis-aligned cells of width ``eps/sqrt(d)``.

    Encodes each cell as a single collision-free int64 key (coordinates
    are padded by the neighbour radius, so ``key + offset @ strides``
    never wraps into a different valid cell).
    """

    def __init__(self, points: np.ndarray, eps: float) -> None:
        n, d = points.shape
        self.points = points
        self.width = eps * _CELL_MARGIN / np.sqrt(d)
        # Offsets whose cells could hold a point within eps: per-dim
        # gap between cells at offset k is (|k|-1) widths.
        self.radius = int(np.ceil(np.sqrt(d))) + 1
        if (2 * self.radius + 1) ** d > 200_000:
            raise OverflowError("neighbour offset table too large")

        coords = np.floor(points / self.width)
        if not np.isfinite(coords).all():
            raise OverflowError("cell coordinates overflow")
        coords = coords.astype(np.int64)
        coords -= coords.min(axis=0) - self.radius
        extents = coords.max(axis=0) + self.radius + 1
        if np.log2(extents.astype(np.float64)).sum() >= 62:
            raise OverflowError("cell key space exceeds int64")
        strides = np.ones(d, dtype=np.int64)
        strides[:-1] = np.cumprod(extents[::-1])[-2::-1]
        self.strides = strides

        point_keys = coords @ strides
        # Sorted unique keys: cell id == rank of its key, so neighbour
        # lookups are a searchsorted away.
        self.keys, self.cell_of_point, self.cell_counts = np.unique(
            point_keys, return_inverse=True, return_counts=True
        )

        grids = np.meshgrid(
            *([np.arange(-self.radius, self.radius + 1)] * d), indexing="ij"
        )
        # Keep one representative per unordered pair (the half after the
        # zero offset, which is lexicographically positive) and drop
        # those whose minimum point-to-point distance exceeds eps.
        offsets = np.stack([g.ravel() for g in grids], axis=1)
        offsets = offsets[len(offsets) // 2 + 1:]
        gap = np.maximum(np.abs(offsets) - 1, 0) * self.width
        reachable = np.sqrt((gap * gap).sum(axis=1)) <= eps * (1 + _BBOX_SLACK)
        self.offsets = offsets[reachable]


def _rank_components(comp: np.ndarray, n_comp: int, core_idx: np.ndarray) -> np.ndarray:
    """1-based cluster label per component: rank of its min core index."""
    first = np.full(n_comp, core_idx.max() + 1, dtype=np.int64)
    np.minimum.at(first, comp, core_idx)
    rank = np.empty(n_comp, dtype=np.int32)
    rank[np.argsort(first, kind="stable")] = np.arange(1, n_comp + 1, dtype=np.int32)
    return rank


class DBSCAN:
    """Classic DBSCAN clusterer, grid-bucketed and vectorised.

    Parameters
    ----------
    eps:
        Neighbourhood radius in the (already normalised) metric space.
    min_pts:
        Minimum neighbourhood size (including the point itself) for a
        point to be *core*.

    Notes
    -----
    Produces labels bit-identical to :func:`dbscan_reference` (see the
    module docstring for why) in roughly ``O(n log n)`` with all
    per-point work in vectorised numpy/scipy — no Python-level
    neighbour-list walks.  Degenerate inputs whose cell grid would
    overflow int64 keys fall back to the reference engine.
    """

    def __init__(self, eps: float, min_pts: int) -> None:
        if eps <= 0:
            raise ClusteringError(f"eps must be > 0, got {eps}")
        if min_pts < 1:
            raise ClusteringError(f"min_pts must be >= 1, got {min_pts}")
        self.eps = float(eps)
        self.min_pts = int(min_pts)

    def fit(self, points: np.ndarray) -> DBSCANResult:
        """Cluster *points* (shape ``(n, d)``) and return the labelling."""
        points = _validate_points(points)
        n = points.shape[0]
        if n == 0:
            return _empty_result()

        with obs.span(
            "clustering.dbscan", n_points=n, eps=self.eps, min_pts=self.min_pts
        ) as fit_span:
            try:
                grid = _Grid(points, self.eps)
            except OverflowError:
                result = dbscan_reference(points, self.eps, self.min_pts)
                if obs.enabled():
                    fit_span.set(
                        n_clusters=result.n_clusters,
                        n_core=int(result.core_mask.sum()),
                        engine="reference",
                    )
                return result
            core_mask = self._core_mask(grid)
            labels = self._label(grid, core_mask)
            n_clusters = int(labels.max(initial=0))
            if obs.enabled():
                fit_span.set(n_clusters=n_clusters, n_core=int(core_mask.sum()))
            return DBSCANResult(
                labels=labels, n_clusters=n_clusters, core_mask=core_mask
            )

    def _core_mask(self, grid: _Grid) -> np.ndarray:
        """Core points without materialising neighbourhoods.

        A cell of ``>= min_pts`` points is a mutual-eps clique, so its
        members are core with no counting.  Only the sparse remainder
        pays one ``return_length=True`` ball query (counts only, no
        lists).
        """
        core_mask = (grid.cell_counts >= self.min_pts)[grid.cell_of_point]
        sparse_idx = np.flatnonzero(~core_mask)
        if sparse_idx.size:
            counts = cKDTree(grid.points).query_ball_point(
                grid.points[sparse_idx], self.eps, workers=-1,
                return_length=True,
            )
            core_mask[sparse_idx] = counts >= self.min_pts
        return core_mask

    def _label(self, grid: _Grid, core_mask: np.ndarray) -> np.ndarray:
        n = grid.points.shape[0]
        labels = np.full(n, NOISE, dtype=np.int32)
        core_idx = np.flatnonzero(core_mask)
        if core_idx.size == 0:
            return labels

        # Group core points by cell (cells keep their sorted-key order).
        core_cell_all = grid.cell_of_point[core_idx]
        order = np.argsort(core_cell_all, kind="stable")
        grouped = core_idx[order]
        cells, starts, counts = np.unique(
            core_cell_all[order], return_index=True, return_counts=True
        )
        comp = self._cell_components(grid, cells, starts, counts, grouped)

        # Label per core point: rank of its component's min core index.
        comp_pt = comp[np.searchsorted(cells, core_cell_all)]
        rank = _rank_components(comp_pt, int(comp.max()) + 1, core_idx)
        labels[core_idx] = rank[comp_pt]

        self._claim_borders(grid, labels, core_mask)
        return labels

    def _cell_components(
        self,
        grid: _Grid,
        cells: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
        grouped: np.ndarray,
    ) -> np.ndarray:
        """Connected components of core-occupied cells under eps-adjacency.

        Exact: core points inside one cell are a clique, so the core
        adjacency graph and this cell graph have identical components.
        All core points share one tree, lifted by an extra coordinate
        ``cell index * 8 eps``, so a query lifted to a cell's level and
        bounded by ``4 eps`` reaches only that cell, at exact distances.
        A probe links most cell pairs: the point of one cell nearest the
        centre of the other's box (paired cells' points are under
        ``3 eps`` apart), then its nearest point in the other cell.  The
        rest take the closest pair over the smaller cell's points.  Only
        a distance in the rounding band around eps goes to scipy's own
        ball predicate, so boundary rounding matches the reference run.
        """
        n_cells = len(cells)
        if n_cells == 1:
            return np.zeros(1, dtype=np.int64)
        core_pts = grid.points[grouped]
        inner = self.eps * (1 - _BBOX_SLACK)
        outer = self.eps * (1 + _BBOX_SLACK)
        # Per-cell bounding boxes of the core points, for the distance
        # screen and the probes below.
        box_min = np.minimum.reduceat(core_pts, starts, axis=0)
        box_max = np.maximum.reduceat(core_pts, starts, axis=0)

        cell_keys = grid.keys[cells]
        pairs_a: list[np.ndarray] = []
        pairs_b: list[np.ndarray] = []
        for offset in grid.offsets:
            shift = int(offset @ grid.strides)
            pos = np.searchsorted(cell_keys, cell_keys + shift)
            pos = np.clip(pos, 0, n_cells - 1)
            src = np.flatnonzero(cell_keys[pos] == cell_keys + shift)
            dst = pos[src]
            # Boxes further apart than eps cannot connect.
            gap = np.maximum(
                np.maximum(box_min[dst] - box_max[src],
                           box_min[src] - box_max[dst]),
                0.0,
            )
            near = np.sqrt((gap * gap).sum(axis=1)) <= outer
            pairs_a.append(src[near])
            pairs_b.append(dst[near])
        a = np.concatenate(pairs_a)
        b = np.concatenate(pairs_b)
        swap = counts[a] > counts[b]
        a, b = np.where(swap, b, a), np.where(swap, a, b)

        lift = np.arange(n_cells) * (8 * self.eps)
        tree = cKDTree(np.column_stack([core_pts, np.repeat(lift, counts)]))

        def nearest(points: np.ndarray, cell_ids: np.ndarray, bound: float):
            lifted = np.column_stack([points, lift[cell_ids]])
            return tree.query(lifted, k=1, distance_upper_bound=bound)

        _, probe = nearest((box_min[b] + box_max[b]) / 2, a, 4 * self.eps)
        closest, _ = nearest(core_pts[probe], b, outer)
        rest = np.flatnonzero(closest > inner)
        block = (np.cumsum(counts[a[rest]]) - 1) // _QUERY_BLOCK
        for sel in np.split(rest, np.flatnonzero(np.diff(block)) + 1):
            sizes = counts[a[sel]]
            first = np.cumsum(sizes) - sizes
            rows = np.repeat(starts[a[sel]] - first, sizes) + np.arange(sizes.sum())
            dist, _ = nearest(core_pts[rows], np.repeat(b[sel], sizes), outer)
            closest[sel] = np.minimum.reduceat(dist, first)

        linked = closest <= inner
        for i in np.flatnonzero(~linked & (closest <= outer)):
            cell_a = core_pts[starts[a[i]]:starts[a[i]] + counts[a[i]]]
            cell_b = core_pts[starts[b[i]]:starts[b[i]] + counts[b[i]]]
            linked[i] = cKDTree(cell_a).query_ball_point(
                cell_b, self.eps, return_length=True
            ).any()

        graph = coo_matrix(
            (np.ones(int(linked.sum()), dtype=np.int8), (a[linked], b[linked])),
            shape=(n_cells, n_cells),
        )
        _, comp = connected_components(graph, directed=False)
        return comp

    def _claim_borders(
        self, grid: _Grid, labels: np.ndarray, core_mask: np.ndarray
    ) -> None:
        """Assign border points: smallest label among core eps-neighbours.

        Equivalent to the BFS first-claim rule because clusters are
        expanded to exhaustion in label order (module docstring).
        """
        noncore_idx = np.flatnonzero(~core_mask)
        if not noncore_idx.size:
            return
        core_idx = np.flatnonzero(core_mask)
        tree = cKDTree(grid.points[core_idx])
        # A non-core point has fewer than min_pts neighbours, so a chunk
        # of this many lists fewer than _QUERY_BLOCK of them.
        step = max(1, _QUERY_BLOCK // self.min_pts)
        for chunk in np.split(noncore_idx, np.arange(step, len(noncore_idx), step)):
            neighbours = tree.query_ball_point(grid.points[chunk], self.eps)
            sizes = np.fromiter(map(len, neighbours), dtype=np.intp, count=len(chunk))
            flat = np.fromiter(itertools.chain.from_iterable(neighbours), dtype=np.intp)
            claimed = sizes > 0
            first = (np.cumsum(sizes) - sizes)[claimed]
            labels[chunk[claimed]] = np.minimum.reduceat(labels[core_idx[flat]], first)
