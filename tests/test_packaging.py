"""Packaging-level checks: entry points, exports, module executability."""

from __future__ import annotations

import subprocess
import sys
import textwrap

import pytest

import repro
from repro import errors


class TestModuleExecution:
    def test_python_dash_m(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        assert "1.0.0" in completed.stdout

    def test_console_script_help(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "info"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        assert "case studies" in completed.stdout


class TestRuntimeDependencies:
    def test_runtime_does_not_import_networkx(self):
        """networkx is a test-only dependency (the reference of the
        component properties): the CLI, the job server, and a batch and
        a windowed tracking run never import it."""
        script = textwrap.dedent(
            """
            import sys

            import repro.cli
            import repro.serve
            from repro import quick_track
            from repro.apps import hydroc
            from repro.stream import track_windows

            first = hydroc.build(block_size=64, ranks=4, iterations=3).run(seed=0)
            second = hydroc.build(block_size=128, ranks=4, iterations=3).run(seed=1)
            quick_track([first, second])
            track_windows(first, n_windows=3)
            assert "networkx" not in sys.modules, "networkx was imported"
            """
        )
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert completed.returncode == 0, completed.stderr


class TestErrorHierarchy:
    def test_all_derive_from_base(self):
        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, errors.ReproError)

    def test_subpackage_errors_catchable(self):
        from repro.mpisim import DeadlockError

        assert issubclass(DeadlockError, errors.ReproError)


class TestSubpackageSurfaces:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.trace",
            "repro.machine",
            "repro.apps",
            "repro.mpisim",
            "repro.clustering",
            "repro.alignment",
            "repro.tracking",
            "repro.predict",
            "repro.viz",
            "repro.analysis",
        ],
    )
    def test_all_exports_resolve(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"
        for name in module.__all__:
            assert getattr(module, name) is not None, f"{module_name}.{name}"
