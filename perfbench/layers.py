"""Per-layer metrics of a traced run.

Every metric is printed on every workload; a layer the workload does not
reach reads 0.  Seconds and counts are per timed operation (mean over
the traced operations) unless the name says otherwise:
``corpus.entities`` and the ``store.*`` gauges are end-of-run values, and
the ``serve.*`` counters cover the whole timed phase.

Which end-to-end metric each layer should move, on which workload, is
laid out in the docstring of ``perfbench/run.py``.

``self.<layer>_s`` is each layer's self time per operation;
``self.unattributed_s`` is the part of the operations no layer span
covers, so the ``self.*`` metrics add up to ``trace.op_s``.
``trace.overhead_s`` is the median traced operation time minus the
median untraced one, measured in the same run.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

__all__ = ["LAYERS", "PER_LAYER", "layer_metrics", "self_times_add_up"]

#: Span layers, in report order.
LAYERS = (
    "unattributed",
    "pipeline",
    "stage.prepare",
    "stage.candidates",
    "stage.scoring",
    "stage.matching",
    "stage.threshold",
    "core.history",
    "core.corpus",
    "lsh",
    "core.kernels",
    "core.score_cache",
    "core.streaming",
    "store",
    "store.snapshot",
    "serve",
    "trace",
)

_HIGHER = {"candidates.true_recall", "scoring.edge_yield", "store.chunk_hits"}

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("prepare.s", "s"),
    ("corpus.entities", "count"),
    ("candidates.s", "s"),
    ("lsh.index_build_s", "s"),
    ("lsh.signature_s", "s"),
    ("lsh.signatures", "count"),
    ("candidates.pairs", "count"),
    ("candidates.true_recall", "ratio"),
    ("scoring.s", "s"),
    ("kernels.batch_s", "s"),
    ("kernels.greedy_s", "s"),
    ("scoring.pairs", "count"),
    ("scoring.bin_comparisons", "count"),
    ("scoring.edge_yield", "ratio"),
    ("matching.s", "s"),
    ("threshold.s", "s"),
    ("exec.shard_s", "s"),
    ("exec.overhead_s", "s"),
    ("relink.rescored_ratio", "ratio"),
    ("score_cache.lookup_s", "s"),
    ("relink.dirty_entities", "count"),
    ("relink.outside_stages_s", "s"),
    ("store.chunk_hits", "count"),
    ("store.chunk_misses", "count"),
    ("store.resident_bytes", "bytes"),
    ("store.bytes_on_disk", "bytes"),
    ("snapshot.save_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.restore_s", "s"),
    ("serve.flush_wait_s", "s"),
    ("serve.queue_peak", "count"),
    ("serve.relinks", "count"),
    ("serve.generator_late_s", "s"),
    ("trace.op_s", "s"),
    ("trace.overhead_s", "s"),
] + [(f"self.{layer}_s", "s") for layer in LAYERS]


def better(name: str) -> str:
    return "higher" if name in _HIGHER else "lower"


def layer_metrics(phase, measured: Dict[str, float], op_name: str) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from a traced phase.

    ``measured`` holds the values the workload measured itself (store
    gauges, snapshot timings, serving counters); they override the
    span-derived defaults of 0.
    """
    tracer = phase.live
    values = {name: 0.0 for name, _ in PER_LAYER}
    roots = tracer.roots(op_name)
    ops = max(1, len(roots))
    reports = phase.reports

    def per_op(total: float) -> float:
        return total / ops

    def timing(stage: str) -> float:
        return per_op(sum(report["timings"].get(stage, 0.0) for report in reports))

    for stage in ("prepare", "candidates", "scoring", "matching", "threshold"):
        values[f"{stage}.s"] = timing(stage)
    candidate_pairs = sum(report["candidate_pairs"] for report in reports)
    present = sum(report["present"] for report in reports)
    relinks = phase.relinks
    values.update(
        {
            "corpus.entities": float(reports[-1]["entities"]) if reports else 0.0,
            "lsh.index_build_s": per_op(tracer.total("LshIndex.add_histories")),
            "lsh.signature_s": per_op(tracer.total("build_signature")),
            "lsh.signatures": per_op(tracer.count("build_signature")),
            "candidates.pairs": per_op(candidate_pairs),
            "candidates.true_recall": (
                sum(report["recalled"] for report in reports) / present
                if present
                else 0.0
            ),
            "kernels.batch_s": per_op(tracer.total("score_pairs_batch")),
            "kernels.greedy_s": per_op(tracer.total("greedy_select_batch")),
            "scoring.pairs": per_op(phase.kernel_pairs),
            "scoring.bin_comparisons": per_op(
                sum(report["bin_comparisons"] for report in reports)
            ),
            "scoring.edge_yield": (
                sum(report["edges"] for report in reports) / candidate_pairs
                if candidate_pairs
                else 0.0
            ),
            "exec.shard_s": per_op(sum(report["shard_s"] for report in reports)),
            "score_cache.lookup_s": per_op(tracer.total("ScoreCache.lookup_batch")),
            "relink.rescored_ratio": (
                sum(stats.pairs_rescored for stats in relinks)
                / max(1, sum(stats.candidate_pairs for stats in relinks))
            ),
            "relink.dirty_entities": per_op(
                sum(stats.dirty_left + stats.dirty_right for stats in relinks)
            ),
        }
    )
    values["exec.overhead_s"] = values["scoring.s"] - values["exec.shard_s"]
    if relinks:
        # Every pipeline run of a streaming workload is a relink.
        staged = sum(sum(report["timings"].values()) for report in reports)
        values["relink.outside_stages_s"] = per_op(
            tracer.total("StreamingLinker.relink") - staged
        )
    self_times = tracer.layer_self_times(op_name)
    for layer in LAYERS:
        values[f"self.{layer}_s"] = per_op(self_times.get(layer, 0.0))
    values["trace.op_s"] = per_op(sum(root.duration for root in roots))
    if phase.traced_op_s and phase.untraced_op_s:
        values["trace.overhead_s"] = statistics.median(
            phase.traced_op_s
        ) - statistics.median(phase.untraced_op_s)
    values.update(measured)
    return values


def self_times_add_up(phase, op_name: str) -> bool:
    """The layers' self times plus the unattributed remainder equal the
    traced operations' end-to-end time."""
    tracer = phase.live
    total = sum(root.duration for root in tracer.roots(op_name))
    parts = sum(tracer.layer_self_times(op_name).values())
    return abs(parts - total) <= 1e-9 + 1e-9 * total
