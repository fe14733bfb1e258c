"""CLI fault injection: exit codes 2 (total) vs 3 (partial) vs 0."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.robust.partial import EXIT_PARTIAL, EXIT_TOTAL
from repro.trace.io import save_trace
from tests.conftest import build_two_region_trace
from tests.faults.corrupters import truncate_file


@pytest.fixture
def good_traces(tmp_path):
    paths = []
    for run in range(2):
        trace = build_two_region_trace(scenario={"run": run}, seed=run + 1)
        paths.append(str(save_trace(trace, tmp_path / f"good{run}.json")))
    return paths


@pytest.fixture
def corrupt_prv(tmp_path):
    path = tmp_path / "corrupt.prv"
    path.write_text("not a paraver trace\n1:2:3\n")
    return str(path)  # no .pcf next to it: unloadable in any mode


def test_strict_corrupt_trace_exits_total(good_traces, corrupt_prv, capsys):
    code = main(["track", *good_traces, corrupt_prv])
    assert code == EXIT_TOTAL
    assert "error:" in capsys.readouterr().err


def test_nonstrict_corrupt_trace_exits_partial(good_traces, corrupt_prv, capsys):
    code = main(["track", *good_traces, corrupt_prv, "--no-strict"])
    captured = capsys.readouterr()
    assert code == EXIT_PARTIAL
    assert "quarantine: 1 item failed" in captured.err
    assert "corrupt.prv" in captured.err
    assert "tracked regions" in captured.out  # the survivors were tracked


def test_report_nonstrict_prints_the_quarantine_block(
    good_traces, corrupt_prv, capsys
):
    code = main(["report", *good_traces, corrupt_prv, "--no-strict"])
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_PARTIAL
    block = lines.index("quarantine: 1 item failed")
    assert lines[block + 1].startswith(f"  - [load] {corrupt_prv}: ")


def test_nonstrict_clean_run_exits_zero(good_traces, capsys):
    code = main(["track", *good_traces, "--no-strict"])
    assert code == 0
    assert "quarantine" not in capsys.readouterr().err


def test_nonstrict_everything_corrupt_exits_total(corrupt_prv, tmp_path, capsys):
    other = tmp_path / "other.prv"
    other.write_text("also garbage\n")
    code = main(["track", corrupt_prv, str(other), "--no-strict"])
    assert code == EXIT_TOTAL
    assert "error:" in capsys.readouterr().err


def test_strict_repairable_prv_exits_total(good_traces, tmp_path, capsys):
    """A truncated but partially readable .prv still fails strict mode."""
    trace = build_two_region_trace(scenario={"run": 9}, seed=9)
    from repro.trace.prv import save_prv

    prv = save_prv(trace, tmp_path / "t.prv")
    truncate_file(prv, 0.6)
    code = main(["track", *good_traces, str(prv)])
    assert code == EXIT_TOTAL


def test_study_unknown_name_exits_total(capsys):
    code = main(["study", "no-such-case"])
    assert code == EXIT_TOTAL
    assert "unknown case study" in capsys.readouterr().err
