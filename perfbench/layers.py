"""The per-layer table: what the traced run wraps and what it reports.

``TARGETS`` lists the public functions the traced run wraps, with the
span name each call records and the counts taken when it returns.
``LAYERS`` lists the per-layer metrics, with how each is computed from
the spans and counts, where it is measured, and which end-to-end metric
on which workload it should move.  ``BENCHMARK.json`` lists the same
metrics by name, unit and direction; ``test_perfbench.py`` keeps the
two in step.

Rules for reading a metric:

- ``self``: the median over the traced run's ops of the summed self
  time of the named spans in that op (0 in an op without them), on the
  wall clock, like the job server's status times ``serve.spawn_ms``
  combines them with.  A
  layer whose every call falls outside ops -- ``slice_trace`` and
  ``validate_trace`` run once per ``watch`` stream, before its first
  update -- reports the median over its calls instead.
- ``count``: the median over ops of a per-op total, times *scale*.
- ``ratio``: the sum of a count over all ops, divided by the sum of its
  base count; 0 when the base is 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from perfbench.tracing import Target, file_size

__all__ = ["Layer", "LAYERS", "TARGETS", "CLIENT_TARGETS", "WORKER_TARGETS"]

KIB = 1024.0
MIB = 1024.0 * 1024.0


# -- count hooks: after(tracer, args, kwargs, result) ---------------------


def _loaded_bytes(tracer, args, kwargs, result) -> None:
    tracer.count("trace.load_bytes", file_size(args[0] if args else kwargs["path"]))


def _points(tracer, args, kwargs, result) -> None:
    points = args[1] if len(args) > 1 else kwargs["points"]
    tracer.count("clustering.points", len(points))


def _pair(tracer, args, kwargs, result) -> None:
    tracer.count("tracking.pairs")


def _chain_nodes(tracer, args, kwargs, result) -> None:
    frames = args[0] if args else kwargs["frames"]
    tracer.count("tracking.chain_nodes", sum(len(f.cluster_ids) for f in frames))


def _cache_get(tracer, args, kwargs, result) -> None:
    tracer.count("cache.gets")
    if result is not None:
        tracer.count("cache.hits")


def _cache_put(tracer, args, kwargs, result) -> None:
    size = file_size(result)
    tracer.count("cache.put_bytes", size)
    if tracer.parent_name() == "stream.ckpt_save":
        # The checkpoint entry is rewritten whole after every window;
        # what the window added is the growth over the previous save.
        previous = tracer.last_sizes.get(str(result), 0)
        tracer.last_sizes[str(result)] = size
        tracer.count("stream.ckpt_bytes", size)
        tracer.count("stream.ckpt_new_bytes", size - previous)


def _report_bytes(tracer, args, kwargs, result) -> None:
    tracer.count("obs.report_bytes", file_size(args[0] if args else kwargs["path"]))


def _poll(tracer, args, kwargs, result) -> None:
    tracer.count("serve.polls")


def _result_bytes(tracer, args, kwargs, result) -> None:
    tracer.count("serve.result_bytes", len(result))


#: Functions run by the program itself (in process, or in a job worker).
WORKER_TARGETS = [
    Target("repro.trace.io", "load_trace", "trace.load", _loaded_bytes),
    Target("repro.robust.validate", "validate_trace", "robust.validate"),
    Target("repro.clustering.frames", "make_frame", "clustering.frame"),
    Target("repro.clustering.frames", "frame_from_labels", "clustering.from_labels"),
    Target("repro.clustering.dbscan", "DBSCAN.fit", "clustering.dbscan", _points),
    Target("repro.tracking.scaling", "normalize_frames", "tracking.normalize"),
    Target(
        "repro.tracking.evaluators.displacement",
        "displacement_matrix",
        "tracking.displacement",
    ),
    Target(
        "repro.tracking.evaluators.simultaneity",
        "simultaneity_for_frame",
        "tracking.simultaneity",
    ),
    Target("repro.tracking.evaluators.callstack", "callstack_matrix", "tracking.callstack"),
    Target("repro.tracking.evaluators.sequence", "sequence_matrix", "tracking.sequence"),
    Target("repro.tracking.combine", "combine_pair", "tracking.combine", _pair),
    Target("repro.tracking.tracker", "chain_regions", "tracking.chain", _chain_nodes),
    Target("repro.tracking.trends", "compute_trends", "tracking.trends"),
    Target("repro.alignment.msa", "star_align", "alignment.msa"),
    Target("repro.alignment.pairwise", "global_align", "alignment.nw"),
    Target("repro.analysis.insights", "diagnose", "analysis.insights"),
    Target("repro.stream.window", "slice_trace", "stream.slice"),
    Target("repro.stream.incremental", "IncrementalTracker.push", "stream.push"),
    Target("repro.stream.checkpoint", "save_checkpoint", "stream.ckpt_save"),
    Target("repro.stream.forecast", "StreamMonitor.observe", "forecast.observe"),
    Target("repro.parallel.cache", "PipelineCache.get", "cache.get", _cache_get),
    Target("repro.parallel.cache", "PipelineCache.put", "cache.put", _cache_put),
    Target("repro.serve.runner", "build_traces", "apps.simulate"),
    Target("repro.obs.quality", "quality_report", "obs.quality"),
    Target("repro.obs.report", "write_report", "obs.report", _report_bytes),
    Target("repro.serve.runner", "result_payload", "serve.payload"),
    Target("repro.serve.runner", "canonical_json", "serve.payload_json"),
]

#: Functions the ``serve`` client calls.
CLIENT_TARGETS = [
    Target("repro.serve.client", "JobClient.submit", "serve.submit"),
    Target("repro.serve.client", "JobClient.status", "serve.status", _poll),
    Target("repro.serve.client", "JobClient.result", "serve.fetch", _result_bytes),
]

TARGETS = WORKER_TARGETS + CLIENT_TARGETS


@dataclass(frozen=True)
class Layer:
    """One per-layer metric.

    *kind* is ``self``, ``count`` or ``ratio`` (see the module
    docstring); *source* names the spans, the count, or the numerator
    and base counts.  *at* is where it is timed or counted, and *moves*
    the end-to-end metric and workload a change to it should move.
    """

    name: str
    unit: str
    better: str
    kind: str
    source: tuple[str, ...]
    at: str
    moves: str
    scale: float = 1.0


LAYERS: tuple[Layer, ...] = (
    Layer("trace.load_ms", "ms", "lower", "self", ("trace.load",),
          "trace.io.load_trace", "p50_ms, ops_per_s @ track"),
    Layer("trace.load_mib", "MiB", "lower", "count", ("trace.load_bytes",),
          "trace.io.load_trace (file size)", "p50_ms, ops_per_s @ track", 1 / MIB),
    Layer("robust.validate_ms", "ms", "lower", "self", ("robust.validate",),
          "robust.validate.validate_trace", "p50_ms @ track"),
    Layer("clustering.frame_ms", "ms", "lower", "self", ("clustering.frame",),
          "clustering.frames.make_frame (self)", "p50_ms @ track (most), watch"),
    Layer("clustering.dbscan_ms", "ms", "lower", "self", ("clustering.dbscan",),
          "clustering.dbscan.DBSCAN.fit", "p50_ms @ track (most), watch"),
    Layer("clustering.points", "count", "lower", "count", ("clustering.points",),
          "clustering.dbscan.DBSCAN.fit (points)", "p50_ms @ track (most), watch"),
    Layer("clustering.from_labels_ms", "ms", "lower", "self", ("clustering.from_labels",),
          "clustering.frames.frame_from_labels", "p50_ms @ serve"),
    Layer("tracking.normalize_ms", "ms", "lower", "self", ("tracking.normalize",),
          "tracking.scaling.normalize_frames", "p50_ms @ track, serve"),
    Layer("tracking.displacement_ms", "ms", "lower", "self", ("tracking.displacement",),
          "tracking.evaluators.displacement_matrix", "p50_ms @ track, serve, watch"),
    Layer("tracking.simultaneity_ms", "ms", "lower", "self", ("tracking.simultaneity",),
          "tracking.evaluators.simultaneity_for_frame", "p50_ms @ track, serve, watch"),
    Layer("tracking.callstack_ms", "ms", "lower", "self", ("tracking.callstack",),
          "tracking.evaluators.callstack_matrix", "p50_ms @ track, serve, watch"),
    Layer("tracking.sequence_ms", "ms", "lower", "self", ("tracking.sequence",),
          "tracking.evaluators.sequence_matrix", "p50_ms @ track, serve, watch"),
    Layer("tracking.combine_ms", "ms", "lower", "self", ("tracking.combine",),
          "tracking.combine.combine_pair (self)", "p50_ms @ serve, watch"),
    Layer("tracking.pairs", "count", "lower", "count", ("tracking.pairs",),
          "tracking.combine.combine_pair (calls)", "p50_ms @ serve, watch"),
    Layer("tracking.chain_ms", "ms", "lower", "self", ("tracking.chain",),
          "tracking.tracker.chain_regions", "p90_ms @ watch"),
    Layer("tracking.chain_nodes", "count", "lower", "count", ("tracking.chain_nodes",),
          "tracking.tracker.chain_regions (frame clusters chained)", "p90_ms @ watch"),
    Layer("tracking.trends_ms", "ms", "lower", "self", ("tracking.trends",),
          "tracking.trends.compute_trends", "p50_ms @ track"),
    Layer("alignment.msa_ms", "ms", "lower", "self", ("alignment.msa",),
          "alignment.msa.star_align", "p50_ms @ track, serve"),
    Layer("alignment.nw_ms", "ms", "lower", "self", ("alignment.nw",),
          "alignment.pairwise.global_align", "p50_ms @ track, serve"),
    Layer("alignment.memo_hit_ratio", "ratio", "higher", "ratio",
          ("alignment.memo_hits", "alignment.memo_lookups"),
          "alignment.memo.align_memo_info (hits / memo lookups)", "p50_ms @ track, serve"),
    Layer("analysis.insights_ms", "ms", "lower", "self", ("analysis.insights",),
          "analysis.insights.diagnose", "p50_ms @ track"),
    Layer("stream.slice_ms", "ms", "lower", "self", ("stream.slice",),
          "stream.window.slice_trace", "ops_per_s @ watch"),
    Layer("stream.push_ms", "ms", "lower", "self", ("stream.push",),
          "stream.incremental.IncrementalTracker.push (self)", "p50_ms @ watch"),
    Layer("stream.ckpt_save_ms", "ms", "lower", "self", ("stream.ckpt_save",),
          "stream.checkpoint.save_checkpoint (self)", "p50_ms, p90_ms, ops_per_s @ watch"),
    Layer("stream.ckpt_kib", "KiB", "lower", "count", ("stream.ckpt_bytes",),
          "PipelineCache.put entry size under save_checkpoint",
          "p50_ms, p90_ms, ops_per_s @ watch", 1 / KIB),
    Layer("stream.ckpt_new_ratio", "ratio", "higher", "ratio",
          ("stream.ckpt_new_bytes", "stream.ckpt_bytes"),
          "checkpoint bytes the window added / bytes its save wrote",
          "p50_ms, p90_ms, ops_per_s @ watch"),
    Layer("forecast.observe_ms", "ms", "lower", "self", ("forecast.observe",),
          "stream.forecast.StreamMonitor.observe", "p50_ms @ watch"),
    Layer("cache.get_ms", "ms", "lower", "self", ("cache.get",),
          "parallel.cache.PipelineCache.get", "p50_ms @ serve"),
    Layer("cache.hit_ratio", "ratio", "higher", "ratio", ("cache.hits", "cache.gets"),
          "parallel.cache.PipelineCache.get (hits / gets)", "p50_ms @ serve"),
    Layer("cache.put_ms", "ms", "lower", "self", ("cache.put",),
          "parallel.cache.PipelineCache.put", "p90_ms @ watch"),
    Layer("cache.put_kib", "KiB", "lower", "count", ("cache.put_bytes",),
          "parallel.cache.PipelineCache.put (entry size)", "p90_ms @ watch", 1 / KIB),
    Layer("apps.simulate_ms", "ms", "lower", "self", ("apps.simulate",),
          "serve.runner.build_traces (in the worker)", "p50_ms @ serve"),
    Layer("obs.quality_ms", "ms", "lower", "self", ("obs.quality",),
          "obs.quality.quality_report", "p50_ms @ serve"),
    Layer("obs.report_ms", "ms", "lower", "self", ("obs.report",),
          "obs.report.write_report", "p50_ms @ serve"),
    Layer("obs.report_kib", "KiB", "lower", "count", ("obs.report_bytes",),
          "obs.report.write_report (file size)", "p50_ms @ serve", 1 / KIB),
    Layer("serve.submit_ms", "ms", "lower", "self", ("serve.submit",),
          "serve.client.JobClient.submit", "p50_ms @ serve"),
    Layer("serve.fetch_ms", "ms", "lower", "self", ("serve.fetch",),
          "serve.client.JobClient.result", "p50_ms @ serve"),
    Layer("serve.polls", "count", "lower", "count", ("serve.polls",),
          "serve.client.JobClient.status (calls per job)", "p50_ms @ serve"),
    Layer("serve.queue_ms", "ms", "lower", "count", ("serve.queue_ms",),
          "status record started_at - submitted_at", "p90_ms @ serve"),
    Layer("serve.worker_ms", "ms", "lower", "count", ("serve.worker_ms",),
          "status record finished_at - started_at", "p50_ms @ serve"),
    Layer("serve.spawn_ms", "ms", "lower", "count", ("serve.spawn_ms",),
          "worker_ms - run_job span", "p50_ms, ops_per_s @ serve"),
    Layer("serve.job_self_ms", "ms", "lower", "self", ("serve.run_job",),
          "serve.runner.run_job (self)", "p50_ms, ops_per_s @ serve"),
    Layer("serve.payload_ms", "ms", "lower", "self", ("serve.payload", "serve.payload_json"),
          "serve.runner.result_payload + canonical_json (self)", "p50_ms, ops_per_s @ serve"),
    Layer("serve.result_kib", "KiB", "lower", "count", ("serve.result_bytes",),
          "serve.client.JobClient.result (body size)", "p50_ms, ops_per_s @ serve", 1 / KIB),
    Layer("tracing.overhead_pct", "%", "lower", "overhead", (),
          "traced p50_ms vs untraced p50_ms of the same workload", "none (cost of tracing)"),
)
