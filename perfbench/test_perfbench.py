"""Tests of the benchmark's own code.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from perfbench import workloads
from perfbench.layers import LAYERS
from perfbench.run import end_to_end
from perfbench.stats import MIN_BEYOND, layer_metrics, percentile
from perfbench.tracing import Target, Tracer, install, self_times
from perfbench.workloads import OpRecord, Serve, Track, Watch, generate, tree_cpu_s

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


# -- percentiles ------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert MIN_BEYOND == 10
    values = [float(v) for v in range(1, 101)]
    p90 = percentile(values, 90)
    assert (p90.value, p90.n, p90.beyond) == (90.0, 100, MIN_BEYOND)
    with pytest.raises(ValueError, match=f"{MIN_BEYOND - 1} beyond"):
        percentile(values[:99], 90)


def test_percentile_reports_sample_count_and_uses_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
    p50 = percentile(values, 50)
    assert (p50.value, p50.n, p50.beyond) == (3.0, 200, 100)


def test_end_to_end_times_are_cpu_times_pooled_over_sessions():
    def session(cpu_ms, setup_cpu_s):
        return {"cpu_ms": cpu_ms, "latencies_ms": [2 * ms for ms in cpu_ms],
                "cpu_s": sum(cpu_ms) / 1000, "wall_s": sum(cpu_ms) / 500,
                "setup_cpu_s": setup_cpu_s, "setup_wall_s": 2 * setup_cpu_s,
                "peak_rss_mib": 10.0 + setup_cpu_s}

    cpu_ms = [float(v) for v in range(1, 101)]
    metrics, details = end_to_end(
        [session(cpu_ms[:40], 1.0), session(cpu_ms[40:70], 3.0), session(cpu_ms[70:], 2.0)]
    )
    values = {name: value for name, (value, _) in metrics.items()}
    assert values == pytest.approx({
        "setup_s": 2.0, "ops_per_s": 100 / 5.05, "p50_ms": 50.5, "p90_ms": 90.0,
        "peak_rss_mib": 13.0,
    })
    assert (details["samples"], details["p90_beyond"]) == (100, 10)
    assert details["wall"]["p50_ms"] == pytest.approx(101.0)


def test_tree_cpu_counts_the_reaped_children_of_a_process():
    script = (
        "import os, sys, time\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    end = time.process_time() + 0.3\n"
        "    while time.process_time() < end:\n"
        "        pass\n"
        "    os._exit(0)\n"
        "os.waitpid(pid, 0)\n"
        "print('reaped', flush=True)\n"
        "sys.stdin.read()\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", script], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline() == "reaped\n"
        own = time.clock_gettime((~proc.pid << 3) | 2)
        assert own < 0.25
        # The child's 0.3 s arrive in whole clock ticks.
        assert tree_cpu_s(proc.pid) >= own + 0.28
    finally:
        proc.communicate("", timeout=30)


# -- spans --------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["outer", 0.0, 10.0, -1, 0],
        ["child", 1.0, 4.0, 0, 0],
        ["grandchild", 2.0, 3.5, 1, 0],
        ["child", 5.0, 9.0, 0, 0],
        ["other-op", 20.0, 21.0, -1, 1],
    ]
    assert self_times(spans) == [3.0, 1.5, 1.5, 4.0, 1.0]


def test_tracer_records_nesting_and_ops():
    tracer = Tracer()
    inner = lambda: tracer.call("inner", lambda: 1, (), {})  # noqa: E731
    tracer.begin_op("a")
    tracer.call("outer", inner, (), {})
    tracer.end_op()
    tracer.call("loose", lambda: None, (), {})
    names = [(name, parent, op) for name, _, _, parent, op in tracer.spans]
    assert names == [("outer", -1, "a"), ("inner", 0, "a"), ("loose", -1, None)]
    outer, inner_span = tracer.spans[0], tracer.spans[1]
    assert outer[1] <= inner_span[1] <= inner_span[2] <= outer[2]


def test_layer_metrics_take_per_op_medians_and_fall_back_outside_ops():
    self_layer = types.SimpleNamespace(name="x_ms", kind="self", source=("x",), scale=1.0)
    slice_layer = types.SimpleNamespace(name="s_ms", kind="self", source=("s",), scale=1.0)
    count_layer = types.SimpleNamespace(name="n", kind="count", source=("n",), scale=1.0)
    ratio_layer = types.SimpleNamespace(name="r", kind="ratio", source=("h", "g"), scale=1.0)
    spans = [
        ["x", 0.0, 0.002, -1, "0"],
        ["x", 1.0, 1.001, -1, "0"],
        ["x", 2.0, 2.010, -1, "1"],
        ["s", 3.0, 3.004, -1, None],  # a call outside every op
    ]
    counts = {"0": {"n": 2, "h": 1, "g": 4}, "1": {"n": 4, "g": 4}, "2": {"n": 6}}
    out = layer_metrics(spans, counts, ["0", "1", "2"],
                        [self_layer, slice_layer, count_layer, ratio_layer])
    assert out["x_ms"] == pytest.approx(3.0)  # ops: 3 ms, 10 ms, 0 ms
    assert out["s_ms"] == pytest.approx(4.0)
    assert out["n"] == 4
    assert out["r"] == pytest.approx(1 / 8)


def test_install_rebinds_imported_names_methods_and_later_imports(tmp_path, monkeypatch):
    home = types.ModuleType("repro.zz_home")
    exec("def f(x):\n    return x + 1\nclass C:\n    def m(self):\n        return f(1)\n",
         home.__dict__)
    user = types.ModuleType("repro.zz_user")
    user.f = home.f
    (tmp_path / "perfbench_zz_later.py").write_text("def g():\n    return 7\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    for name, module in (("repro.zz_home", home), ("repro.zz_user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    monkeypatch.setattr(sys, "meta_path", list(sys.meta_path))
    tracer = Tracer()
    install(tracer, [
        Target("repro.zz_home", "f", "f"),
        Target("repro.zz_home", "C.m", "m"),
        Target("perfbench_zz_later", "g", "g"),
    ])
    import perfbench_zz_later

    try:
        assert user.f(1) == 2 and home.C().m() == 2 and perfbench_zz_later.g() == 7
    finally:
        sys.modules.pop("perfbench_zz_later", None)
    assert [(span[0], span[3]) for span in tracer.spans] == [
        ("f", -1), ("m", -1), ("f", 1), ("g", -1)
    ]


# -- inputs -------------------------------------------------------------------


def test_one_seed_gives_byte_identical_inputs(tmp_path):
    first = generate("watch", 5, tmp_path / "a")
    again = generate("watch", 5, tmp_path / "b")
    other = generate("watch", 6, tmp_path / "c")
    assert first == again
    assert set(first) == set(other)
    assert all(first[name] != other[name] for name in first)


def test_serve_redraws_a_sweep_that_is_not_table2s_hydroc_row(tmp_path, capfd):
    # The second sweep this seed draws has an image with a third, small
    # cluster: 2 regions tracked at 66 %.
    generate("serve", 1895885357, tmp_path)
    assert "redrew a sweep that tracks 2 regions at 66 %" in capfd.readouterr().err
    for index in range(len(workloads.SERVE_TENANTS) * workloads.SERVE_SPECS_PER_TENANT):
        payload = json.loads((tmp_path / f"serve-{index}.expected").read_text())
        n_tracked = payload["quality"]["n_tracked"]
        assert workloads.is_table2_hydroc(n_tracked, payload["coverage"])


# -- failed ops ---------------------------------------------------------------


class _StubClient:
    """Answers like the job server, serving *bodies* in turn."""

    def __init__(self, bodies):
        self.bodies = list(bodies)
        self.jobs = 0

    def submit(self, tenant, spec):
        self.jobs += 1
        return {"job_id": f"{self.jobs:012x}"}

    def status(self, job_id):
        return {"job_id": job_id, "state": "done", "submitted_at": 1.0,
                "started_at": 1.5, "finished_at": 2.0,
                "summary": {"n_tracked": 2, "coverage": 100.0}}

    def result(self, job_id):
        return self.bodies.pop(0)


def test_corrupted_served_bytes_count_as_a_failed_op(tmp_path):
    serve = Serve(tmp_path, tmp_path)
    good = b'{"coverage":100.0}'
    serve.pool = [("tenant-a", {}, good)]
    serve.client = _StubClient([good, good.replace(b"100", b"99"), good])
    records = serve.run(0, 3)
    assert [record.ok for record in records] == [True, False, True]


def test_only_timed_jobs_are_folded_into_the_trace(tmp_path):
    serve = Serve(tmp_path, tmp_path)
    good = b"{}"
    serve.pool = [("tenant-a", {}, good), ("tenant-b", {}, good)]
    serve.warmup_ops = 2
    serve.client = _StubClient([good] * 5)
    serve.warm_up()
    serve.run(2, 3)
    assert sorted(serve.jobs) == [2, 3, 4]
    assert [job_id for job_id, _, _ in serve.jobs.values()] == [
        f"{n:012x}" for n in (3, 4, 5)
    ]


def test_wrong_region_count_counts_as_a_failed_op(tmp_path):
    track = Track(tmp_path, tmp_path)
    track.reset = lambda: None
    good = types.SimpleNamespace(tracked_regions=(None,) * workloads.TRACK_REGIONS,
                                 coverage=100)
    bad = types.SimpleNamespace(tracked_regions=(None,) * 11, coverage=100)
    outputs = iter([good, bad])
    track.op = lambda index: next(outputs)
    assert [record.ok for record in track.run(0, 2)] == [True, False]


def test_stream_differing_from_batch_fails_all_its_updates(tmp_path):
    watch = Watch(tmp_path, tmp_path)
    per_stream = watch.per_stream
    region = types.SimpleNamespace(region_id=1, total_duration=2.0, members=[{0}])
    stream = types.SimpleNamespace(frames=(), regions=[region], coverage=100)
    other = types.SimpleNamespace(frames=(), regions=[region], coverage=90)
    watch.streams = [(0, stream), (per_stream, stream)]
    answers = iter([stream, other])
    watch.Tracker = lambda frames: types.SimpleNamespace(run=lambda: next(answers))
    records = [OpRecord(0.1, 0.1, True) for _ in range(2 * per_stream)]
    watch.verify(records)
    assert all(record.ok for record in records[:per_stream])
    assert not any(record.ok for record in records[per_stream:])


# -- BENCHMARK.json -------------------------------------------------------------


def test_benchmark_json_lists_the_layer_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "ops_per_s", "p50_ms", "p90_ms", "peak_rss_mib"
    ]
    assert spec["per_layer"] == [
        {"name": layer.name, "unit": layer.unit, "better": layer.better}
        for layer in LAYERS
    ]
