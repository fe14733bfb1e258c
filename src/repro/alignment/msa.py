"""Star-based multiple sequence alignment.

The SPMD evaluator needs all per-rank cluster sequences of one
experiment aligned into a common set of columns ("the global sequence"
of Gonzalez et al., PDCAT'09).  Full dynamic-programming MSA is
exponential; the classic star heuristic — align every sequence against
a centre sequence and merge under "once a gap, always a gap" — is
accurate here because SPMD phase sequences are near-identical across
ranks by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.alignment.memo import memoised_align
from repro.alignment.pairwise import GAP
from repro.errors import AlignmentError

__all__ = ["MultipleAlignment", "star_align"]


@dataclass(frozen=True, slots=True)
class MultipleAlignment:
    """A multiple alignment as a dense matrix.

    Attributes
    ----------
    matrix:
        ``(n_sequences, n_columns)`` integer matrix with :data:`GAP`
        sentinels where a sequence skips a column.
    keys:
        Identifier of each row (e.g. MPI ranks), parallel to the rows.
    """

    matrix: np.ndarray
    keys: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2:
            raise AlignmentError("alignment matrix must be 2-D")
        if self.matrix.shape[0] != len(self.keys):
            raise AlignmentError("one key per alignment row is required")

    @property
    def n_sequences(self) -> int:
        """Number of aligned sequences."""
        return int(self.matrix.shape[0])

    @property
    def n_columns(self) -> int:
        """Number of alignment columns."""
        return int(self.matrix.shape[1])

    def row(self, key: int) -> np.ndarray:
        """Return the aligned row of sequence *key*."""
        try:
            index = self.keys.index(key)
        except ValueError as exc:
            raise KeyError(f"no sequence with key {key}") from exc
        return self.matrix[index]

    def column_symbols(self, column: int) -> np.ndarray:
        """Distinct non-gap symbols present in *column*."""
        col = self.matrix[:, column]
        return np.unique(col[col != GAP])


def star_align(
    sequences: dict[int, np.ndarray],
    *,
    match: float = 2.0,
    mismatch: float = -1.0,
    gap: float = -2.0,
) -> MultipleAlignment:
    """Align all *sequences* (keyed by rank) with the star heuristic.

    The centre is the longest sequence (ties broken by smallest key),
    a sensible proxy for the centre-star choice given the near-identical
    SPMD inputs.  Every other sequence is pairwise-aligned against the
    *current* merged centre, so gaps accumulate consistently.
    """
    if not sequences:
        raise AlignmentError("star_align needs at least one sequence")
    keys = sorted(sequences)
    arrays = {k: np.asarray(sequences[k], dtype=np.int64) for k in keys}
    for key, arr in arrays.items():
        if arr.ndim != 1:
            raise AlignmentError(f"sequence {key} must be 1-D")

    center_key = max(keys, key=lambda k: (arrays[k].shape[0], -k))
    center = arrays[center_key]
    merged_rows: list[np.ndarray] = []
    merged_keys: list[int] = []

    for key in keys:
        if key == center_key:
            continue
        seq = arrays[key]
        alignment = memoised_align(
            center[center != GAP] if (center == GAP).any() else center,
            seq,
            match=match,
            mismatch=mismatch,
            gap=gap,
        )
        # Re-express the pairwise alignment on the merged centre, which
        # may already contain gaps: walk both centre forms in lockstep.
        new_row = _project_onto_center(center, alignment.aligned_a, alignment.aligned_b)
        if new_row.shape[0] != center.shape[0]:
            # The pairwise alignment introduced new centre gaps: grow the
            # merged centre and previously merged rows accordingly.
            center, merged_rows, new_row = _regrow(
                center, alignment.aligned_a, alignment.aligned_b, merged_rows
            )
        merged_rows.append(new_row)
        merged_keys.append(key)

    matrix_rows = []
    ordered_keys = []
    merged_map = dict(zip(merged_keys, merged_rows))
    for key in keys:
        ordered_keys.append(key)
        if key == center_key:
            matrix_rows.append(center)
        else:
            matrix_rows.append(merged_map[key])
    return MultipleAlignment(
        matrix=np.vstack(matrix_rows), keys=tuple(ordered_keys)
    )


def _project_onto_center(
    merged_center: np.ndarray, aligned_center: np.ndarray, aligned_seq: np.ndarray
) -> np.ndarray:
    """Map *aligned_seq* onto the merged centre's column layout.

    Walks the merged centre and the pairwise-aligned centre together:
    merged-centre gap columns receive gaps; matching symbol positions
    receive the corresponding aligned-sequence entries.  If the pairwise
    alignment put gaps into the centre (new columns), the projection
    cannot fit and the caller falls back to :func:`_regrow`.
    """
    if (aligned_center == GAP).any():
        # Signal the caller that the centre itself grew.
        return np.empty(0, dtype=np.int64)
    out = np.full(merged_center.shape[0], GAP, dtype=np.int64)
    pair_pos = 0
    for col in range(merged_center.shape[0]):
        if merged_center[col] == GAP:
            continue
        out[col] = aligned_seq[pair_pos]
        pair_pos += 1
    return out


def _regrow(
    merged_center: np.ndarray,
    aligned_center: np.ndarray,
    aligned_seq: np.ndarray,
    merged_rows: list[np.ndarray],
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Handle pairwise alignments that inserted gaps into the centre.

    Builds the new merged centre by interleaving the existing merged
    layout with the new gap columns, padding previously merged rows with
    gaps in those columns, and expressing the new row in the new layout.
    """
    new_center: list[int] = []
    new_rows: list[list[int]] = [[] for _ in merged_rows]
    new_row: list[int] = []
    merged_pos = 0  # position within merged_center
    for pair_pos in range(aligned_center.shape[0]):
        if aligned_center[pair_pos] == GAP:
            # Brand-new column: gap everywhere except the new sequence.
            new_center.append(GAP)
            for row_out in new_rows:
                row_out.append(GAP)
            new_row.append(int(aligned_seq[pair_pos]))
            continue
        # Copy any merged-centre gap columns that precede this symbol.
        while merged_center[merged_pos] == GAP:
            new_center.append(GAP)
            for row_out, row in zip(new_rows, merged_rows):
                row_out.append(int(row[merged_pos]))
            new_row.append(GAP)
            merged_pos += 1
        new_center.append(int(merged_center[merged_pos]))
        for row_out, row in zip(new_rows, merged_rows):
            row_out.append(int(row[merged_pos]))
        new_row.append(int(aligned_seq[pair_pos]))
        merged_pos += 1
    # Trailing merged gap columns.
    while merged_pos < merged_center.shape[0]:
        new_center.append(int(merged_center[merged_pos]))
        for row_out, row in zip(new_rows, merged_rows):
            row_out.append(int(row[merged_pos]))
        new_row.append(GAP)
        merged_pos += 1
    return (
        np.asarray(new_center, dtype=np.int64),
        [np.asarray(row, dtype=np.int64) for row in new_rows],
        np.asarray(new_row, dtype=np.int64),
    )
