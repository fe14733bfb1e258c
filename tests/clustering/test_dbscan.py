"""Unit tests for the from-scratch DBSCAN implementation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.dbscan import DBSCAN, NOISE, dbscan_reference
from repro.errors import ClusteringError


def blobs(centers, n=50, scale=0.01, seed=0):
    rng = np.random.default_rng(seed)
    parts = [
        center + scale * rng.standard_normal((n, len(center)))
        for center in centers
    ]
    return np.vstack(parts)


class TestDBSCAN:
    def test_two_blobs(self):
        points = blobs([(0.0, 0.0), (1.0, 1.0)])
        result = DBSCAN(eps=0.1, min_pts=5).fit(points)
        assert result.n_clusters == 2
        # The first 50 points share one label, the rest the other.
        assert len(set(result.labels[:50])) == 1
        assert len(set(result.labels[50:])) == 1
        assert result.labels[0] != result.labels[50]

    def test_noise_detection(self):
        points = np.vstack([blobs([(0.0, 0.0)]), [[5.0, 5.0]]])
        result = DBSCAN(eps=0.1, min_pts=5).fit(points)
        assert result.labels[-1] == NOISE
        assert result.noise_indices.tolist() == [100 - 50]  # the lone point

    def test_all_noise_when_sparse(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(0, 100, size=(30, 2))
        result = DBSCAN(eps=0.01, min_pts=5).fit(points)
        assert result.n_clusters == 0
        assert (result.labels == NOISE).all()

    def test_single_cluster_when_eps_huge(self):
        points = blobs([(0, 0), (1, 1), (2, 2)])
        result = DBSCAN(eps=10.0, min_pts=3).fit(points)
        assert result.n_clusters == 1

    def test_core_mask(self):
        points = blobs([(0.0, 0.0)], n=20)
        result = DBSCAN(eps=0.5, min_pts=3).fit(points)
        assert result.core_mask.all()

    def test_border_points_claimed(self):
        # A dense line of points plus one outlier within eps of the
        # line's endpoint: the outlier joins the cluster as a border
        # point (reached by a core point) without being core itself.
        line = np.column_stack([np.arange(21) * 0.001, np.zeros(21)])
        border = np.asarray([[0.03, 0.0]])
        points = np.vstack([line, border])
        result = DBSCAN(eps=0.0105, min_pts=10).fit(points)
        assert result.labels[-1] == result.labels[0]
        assert not result.core_mask[-1]

    @pytest.mark.parametrize("first", ["left", "right"])
    def test_border_point_between_two_clusters_takes_smaller_label(self, first):
        # A non-core point within eps of one core point of each of two
        # clusters joins the cluster discovered first, whichever blob
        # holds index 0; a point beyond eps of every core point stays
        # noise.
        left = np.column_stack([np.arange(6) * 0.01, np.zeros(6)])
        right = left + [0.20, 0.0]
        pair = [left, right] if first == "left" else [right, left]
        points = np.vstack(pair + [[[0.125, 0.0]], [[0.125, 0.5]]])
        eps, min_pts = 0.08, 4
        result = DBSCAN(eps=eps, min_pts=min_pts).fit(points)
        assert result.n_clusters == 2
        assert not result.core_mask[-2]
        assert result.labels[-2] == result.labels[0] == 1
        assert result.labels[-1] == NOISE
        reference = dbscan_reference(points, eps, min_pts)
        np.testing.assert_array_equal(result.labels, reference.labels)

    def test_cells_joined_by_a_pair_away_from_their_centres(self):
        # Two grid cells of two points each.  The one cross pair within
        # eps does not include the point nearest the other cell's
        # centre, so a nearest-to-centre probe alone misses it.
        points = np.asarray([[1.94, 2.09], [1.72, 1.94], [2.18, 0.74], [2.60, 1.34]])
        result = DBSCAN(eps=1.0, min_pts=1).fit(points)
        assert result.n_clusters == 1
        np.testing.assert_array_equal(
            result.labels, dbscan_reference(points, 1.0, 1).labels
        )

    @pytest.mark.parametrize("distance, n_clusters", [(1 - 1e-12, 1), (1 + 1e-12, 2)])
    def test_pair_inside_the_rounding_band(self, distance, n_clusters):
        # Core points a hair inside or outside eps: scipy's ball
        # predicate decides, as in the reference.
        points = np.asarray([[0.0, 0.0], [distance, 0.0]])
        result = DBSCAN(eps=1.0, min_pts=1).fit(points)
        assert result.n_clusters == n_clusters
        np.testing.assert_array_equal(
            result.labels, dbscan_reference(points, 1.0, 1).labels
        )

    def test_empty_input(self):
        result = DBSCAN(eps=0.1, min_pts=3).fit(np.empty((0, 2)))
        assert result.n_clusters == 0
        assert result.labels.shape == (0,)

    def test_labels_start_at_one(self):
        points = blobs([(0, 0)])
        result = DBSCAN(eps=0.5, min_pts=3).fit(points)
        assert set(result.labels) == {1}

    def test_cluster_indices(self):
        points = blobs([(0, 0), (3, 3)])
        result = DBSCAN(eps=0.1, min_pts=5).fit(points)
        for label in (1, 2):
            indices = result.cluster_indices(label)
            assert (result.labels[indices] == label).all()

    def test_three_dimensional_points(self):
        points = blobs([(0, 0, 0), (1, 1, 1)])
        result = DBSCAN(eps=0.1, min_pts=5).fit(points)
        assert result.n_clusters == 2

    def test_deterministic(self):
        points = blobs([(0, 0), (0.5, 0.5), (1, 1)], seed=3)
        r1 = DBSCAN(eps=0.08, min_pts=4).fit(points)
        r2 = DBSCAN(eps=0.08, min_pts=4).fit(points)
        np.testing.assert_array_equal(r1.labels, r2.labels)


class TestValidation:
    def test_bad_eps(self):
        with pytest.raises(ClusteringError):
            DBSCAN(eps=0.0, min_pts=3)

    def test_bad_min_pts(self):
        with pytest.raises(ClusteringError):
            DBSCAN(eps=0.1, min_pts=0)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ClusteringError):
            DBSCAN(eps=0.1, min_pts=3).fit(np.zeros(5))

    def test_nan_rejected(self):
        points = np.asarray([[0.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(ClusteringError, match="NaN"):
            DBSCAN(eps=0.1, min_pts=1).fit(points)


def _reference_dfs_labels(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Depth-first reference expansion (the pre-deque `queue.pop()` form).

    DBSCAN grows each core-connected component to exhaustion before the
    next seed starts, so the traversal discipline inside one expansion
    (FIFO vs LIFO) must not change the labelling.  This mirrors the
    production loop with only the queue discipline flipped.
    """
    from scipy.spatial import cKDTree

    n = points.shape[0]
    tree = cKDTree(points)
    neighborhoods = tree.query_ball_point(points, eps, workers=-1)
    core_mask = np.fromiter(
        (len(nb) >= min_pts for nb in neighborhoods), count=n, dtype=bool
    )
    labels = np.full(n, NOISE, dtype=np.int32)
    visited = np.zeros(n, dtype=bool)
    current_label = 0
    for seed in range(n):
        if visited[seed] or not core_mask[seed]:
            continue
        current_label += 1
        stack = [seed]
        visited[seed] = True
        labels[seed] = current_label
        while stack:
            point = stack.pop()  # LIFO: depth-first
            if not core_mask[point]:
                continue
            for neighbor in neighborhoods[point]:
                if labels[neighbor] == NOISE and not visited[neighbor]:
                    labels[neighbor] = current_label
                    visited[neighbor] = True
                    if core_mask[neighbor]:
                        stack.append(neighbor)
    return labels


class TestTraversalOrderInvariance:
    """Regression for the breadth-first/depth-first comment mismatch."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bfs_labels_match_dfs_reference(self, seed):
        points = blobs([(0, 0), (0.06, 0.06), (1, 1), (2, 0)], n=80, seed=seed)
        eps, min_pts = 0.08, 4
        result = DBSCAN(eps=eps, min_pts=min_pts).fit(points)
        np.testing.assert_array_equal(
            result.labels, _reference_dfs_labels(points, eps, min_pts)
        )

    def test_overlapping_chain_same_membership(self):
        # A dense chain where border points are reachable from several
        # cores of the same cluster: order-dependent claims must agree.
        line = np.column_stack([np.arange(40) * 0.004, np.zeros(40)])
        points = np.vstack([line, [[0.2, 0.5]]])
        eps, min_pts = 0.01, 3
        result = DBSCAN(eps=eps, min_pts=min_pts).fit(points)
        np.testing.assert_array_equal(
            result.labels, _reference_dfs_labels(points, eps, min_pts)
        )


@pytest.fixture(scope="module")
def frame_spaces():
    """The scaled spaces, with ``min_pts``, that ``make_frame`` hands DBSCAN.

    WRF at 32 and 64 ranks scaled from 32 (2,304 and 4,608 bursts, the
    frames of a rank-doubling study) and one 32-rank iteration (384
    bursts, one window of a watched stream).
    """
    from repro.apps import wrf
    from repro.clustering import frames

    spaces = []

    class Recording(DBSCAN):
        def fit(self, points):
            spaces.append((np.array(points), self.min_pts))
            return super().fit(points)

    shapes = {"wrf32": (32, 6), "wrf64": (64, 6), "window": (32, 1)}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frames, "DBSCAN", Recording)
        for seed, (ranks, iterations) in enumerate(shapes.values()):
            trace = wrf.build(ranks, iterations=iterations, base_ranks=32).run(seed=seed)
            frames.make_frame(trace)
    return dict(zip(shapes, spaces))


class TestFrameScaleDifferential:
    """The engine against the reference on whole frames.

    The property suite draws at most 60 points, so none of its cells
    holds more than a few core points; these frames hold up to a few
    hundred per cell.
    """

    @pytest.mark.parametrize("eps", [0.01, 0.03, 0.12])
    @pytest.mark.parametrize("name", ["wrf32", "wrf64", "window"])
    def test_matches_reference(self, frame_spaces, name, eps):
        points, min_pts = frame_spaces[name]
        assert len(points) == {"wrf32": 2304, "wrf64": 4608, "window": 384}[name]
        fast = DBSCAN(eps=eps, min_pts=min_pts).fit(points)
        reference = dbscan_reference(points, eps, min_pts)
        np.testing.assert_array_equal(fast.labels, reference.labels)
        np.testing.assert_array_equal(fast.core_mask, reference.core_mask)
        assert fast.n_clusters == reference.n_clusters
