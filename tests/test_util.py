"""Unit tests for the internal utility helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import (
    as_rng,
    atomic_write,
    check_fraction,
    check_nonempty,
    check_positive,
    format_pct,
    format_si,
    pairwise,
)


class TestAsRng:
    def test_seed_reproducible(self):
        assert as_rng(7).random() == as_rng(7).random()

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert as_rng(rng) is rng

    def test_none_allowed(self):
        assert as_rng(None) is not None


class TestChecks:
    def test_positive(self):
        assert check_positive("x", 1.5) == 1.5
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0.0)

    def test_fraction(self):
        assert check_fraction("f", 0.0) == 0.0
        assert check_fraction("f", 1.0) == 1.0
        with pytest.raises(ValueError):
            check_fraction("f", 1.01)

    def test_nonempty(self):
        assert check_nonempty("s", [1]) == [1]
        with pytest.raises(ValueError):
            check_nonempty("s", [])


class TestPairwise:
    def test_pairs(self):
        assert list(pairwise([1, 2, 3])) == [(1, 2), (2, 3)]

    def test_short_inputs(self):
        assert list(pairwise([])) == []
        assert list(pairwise([1])) == []


class TestFormatting:
    def test_si_suffixes(self):
        assert format_si(6.8e6) == "6.8M"
        assert format_si(4.3e9) == "4.3G"
        assert format_si(1.2e3) == "1.2k"
        assert format_si(2.5e12) == "2.5T"

    def test_si_small_values(self):
        assert format_si(0.5) == "0.5"

    def test_si_negative(self):
        assert format_si(-3.0e6) == "-3M"

    def test_pct(self):
        assert format_pct(-0.36) == "-36.0%"
        assert format_pct(0.05) == "+5.0%"


class TestAtomicWrite:
    def test_failed_replace_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "sub" / "result.json"
        atomic_write(path, "old")
        assert path.read_text(encoding="utf-8") == "old"

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr("repro._util.os.replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            atomic_write(path, "new")
        assert path.read_text(encoding="utf-8") == "old"
        assert [p.name for p in path.parent.iterdir()] == ["result.json"]
