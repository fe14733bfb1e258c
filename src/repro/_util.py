"""Small internal helpers shared across subpackages.

These are deliberately tiny and dependency-free; anything substantial
lives in its own module.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import TypeVar

import numpy as np

__all__ = [
    "as_rng",
    "atomic_write",
    "check_positive",
    "check_fraction",
    "check_nonempty",
    "components",
    "pairwise",
    "format_si",
    "format_pct",
]

T = TypeVar("T")


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed or generator.

    Passing an existing generator returns it unchanged, which lets
    composite models share one stream while still allowing reproducible
    top-level seeding with plain integers.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_positive(name: str, value: float) -> float:
    """Validate that *value* is strictly positive; return it."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Validate that *value* lies in [0, 1]; return it."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    return value


def check_nonempty(name: str, seq: Sequence[T] | np.ndarray) -> Sequence[T] | np.ndarray:
    """Validate that *seq* has at least one element; return it."""
    if len(seq) == 0:
        raise ValueError(f"{name} must not be empty")
    return seq


def pairwise(items: Iterable[T]) -> Iterable[tuple[T, T]]:
    """Yield consecutive pairs ``(items[0], items[1]), (items[1], items[2])...``."""
    iterator = iter(items)
    try:
        prev = next(iterator)
    except StopIteration:
        return
    for item in iterator:
        yield prev, item
        prev = item


def components(n_nodes: int, links: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected components of the undirected *links* over nodes
    ``0 .. n_nodes - 1``: each in ascending node order, and ordered by
    their smallest node.  Unions keep the smaller root, so every root
    is its component's smallest node."""
    parent = list(range(n_nodes))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for u, v in links:
        a, b = find(u), find(v)
        parent[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for node in range(n_nodes):
        groups.setdefault(find(node), []).append(node)
    return list(groups.values())


def atomic_write(path: str | Path, text: str) -> None:
    """Write *text* to *path* so readers see the old file or the new one.

    The text goes to a temp file in the same directory, which then
    replaces *path*; on any failure the temp file is removed and *path*
    keeps its old content.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=path.suffix
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


_SI_PREFIXES = [(1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k")]


def format_si(value: float, digits: int = 2) -> str:
    """Format a number with an SI magnitude suffix (e.g. ``6.8M``)."""
    magnitude = abs(value)
    for threshold, suffix in _SI_PREFIXES:
        if magnitude >= threshold:
            return f"{value / threshold:.{digits}g}{suffix}"
    return f"{value:.{digits}g}"


def format_pct(value: float, digits: int = 1) -> str:
    """Format a fraction as a signed percentage string (e.g. ``-36.0%``)."""
    return f"{value * 100:+.{digits}f}%"
