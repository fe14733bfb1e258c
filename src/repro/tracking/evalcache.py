"""Per-run cache of frame-keyed evaluator intermediates.

The combination algorithm recomputes several expensive artefacts that
depend only on a single frame, not on the pair being evaluated:

- the k-d tree over a frame's clustered points (displacement queries);
- the star MSA of the frame's per-rank sequences (``frame_alignment``),
  which both the simultaneity matrix and the consensus sequence are
  derived from — without caching it is built *twice per frame per
  pair*;
- the simultaneity matrix and consensus sequence themselves.

In a frame sequence every interior frame participates in two pairs, so
a per-run cache roughly halves the evaluator work on top of removing
the in-pair duplication.  Values are cached by object identity (frames
and point arrays are immutable for the duration of a run) and the cache
pins strong references to the keyed objects so ids cannot be recycled.

Caching never changes results: every entry is the return value of the
exact call the uncached code path would make, reused verbatim — the
batch-vs-incremental differential suite holds bit-for-bit.

``Tracker.run`` shares one cache across all of its pairs, so each frame
builds its k-d tree once (``tracking.tree_builds_total`` counts the
builds); the incremental tracker keeps one across pushes.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.clustering.frames import Frame
from repro.tracking.correlation import CorrelationMatrix
from repro.tracking.evaluators.displacement import frame_tree
from repro.tracking.evaluators.simultaneity import (
    frame_alignment,
    simultaneity_for_frame,
)

__all__ = ["EvalCache"]


class EvalCache:
    """Memo of per-frame evaluator artefacts for one tracking run.

    Not thread-safe; each run owns its private instance.  All getters compute through the canonical evaluator
    functions on a miss, so cached and uncached paths are the same
    code.
    """

    def __init__(self) -> None:
        self._trees: dict[tuple[int, int], cKDTree | None] = {}
        self._alignments: dict[tuple[int, int], object] = {}
        self._simultaneity: dict[tuple[int, int], CorrelationMatrix] = {}
        self._consensus: dict[tuple[int, int], np.ndarray] = {}
        # id-keyed entries are only valid while the keyed objects live;
        # pin them so CPython cannot recycle an id mid-run.
        self._pins: dict[int, object] = {}
        self.hits = 0
        self.misses = 0
        #: k-d tree constructions (the dominant per-frame artefact);
        #: tracked separately so tests can assert sharing across pairs.
        self.tree_builds = 0

    def _pin(self, obj: object) -> int:
        key = id(obj)
        self._pins[key] = obj
        return key

    # ------------------------------------------------------------------
    def tree(self, frame: Frame, points: np.ndarray) -> cKDTree | None:
        """Cached :func:`frame_tree` over (*frame*, *points*)."""
        key = (self._pin(frame), self._pin(points))
        try:
            value = self._trees[key]
            self.hits += 1
        except KeyError:
            value = self._trees[key] = frame_tree(frame, points)
            self.misses += 1
            self.tree_builds += 1
        return value

    def alignment(self, frame: Frame, max_ranks: int):
        """Cached :func:`frame_alignment` of *frame*."""
        key = (self._pin(frame), int(max_ranks))
        try:
            value = self._alignments[key]
            self.hits += 1
        except KeyError:
            value = self._alignments[key] = frame_alignment(
                frame, max_ranks=max_ranks
            )
            self.misses += 1
        return value

    def simultaneity(self, frame: Frame, max_ranks: int) -> CorrelationMatrix:
        """Cached :func:`simultaneity_for_frame` of *frame*."""
        key = (self._pin(frame), int(max_ranks))
        try:
            value = self._simultaneity[key]
            self.hits += 1
        except KeyError:
            value = self._simultaneity[key] = simultaneity_for_frame(
                frame,
                max_ranks=max_ranks,
                alignment=self.alignment(frame, max_ranks),
            )
            self.misses += 1
        return value

    def consensus(self, frame: Frame, max_ranks: int) -> np.ndarray:
        """Cached consensus sequence of *frame*'s alignment."""
        from repro.alignment.spmd import consensus_sequence

        key = (self._pin(frame), int(max_ranks))
        try:
            value = self._consensus[key]
            self.hits += 1
        except KeyError:
            value = self._consensus[key] = consensus_sequence(
                self.alignment(frame, max_ranks)
            )
            self.misses += 1
        return value

    # ------------------------------------------------------------------
    def retain(self, frames: list[Frame]) -> None:
        """Drop every entry not keyed on one of *frames*.

        Streaming trackers call this after each step: only the newest
        frame's artefacts are reusable (as the next pair's left side),
        so the cache stays O(1) in stream length.
        """
        keep = {id(frame) for frame in frames}
        tree_keys = [k for k in self._trees if k[0] in keep]
        self._trees = {k: self._trees[k] for k in tree_keys}
        self._alignments = {
            k: v for k, v in self._alignments.items() if k[0] in keep
        }
        self._simultaneity = {
            k: v for k, v in self._simultaneity.items() if k[0] in keep
        }
        self._consensus = {
            k: v for k, v in self._consensus.items() if k[0] in keep
        }
        pinned = keep | {k[1] for k in tree_keys}
        self._pins = {i: obj for i, obj in self._pins.items() if i in pinned}

    def info(self) -> dict[str, int]:
        """Cache statistics (for tests and diagnostics)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "tree_builds": self.tree_builds,
            "entries": (
                len(self._trees)
                + len(self._alignments)
                + len(self._simultaneity)
                + len(self._consensus)
            ),
        }
