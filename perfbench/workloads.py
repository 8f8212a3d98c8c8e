"""The four workload runners: set-up, timed phase and output checks.

Each workload receives the generated inputs (records only; the ground
truth stays with the harness) and returns an :class:`Outcome`.  Every
operation and every output check counts as attempted; an operation that
raises or a check that does not hold counts as failed and is never
dropped.

A traced run (``--trace 1``) installs the layer wrappers
(:mod:`perfbench.tracing`) for every other operation and removes them
for the rest, so traced and untraced operations are spread evenly over
the timed phase; the difference of their median times is the tracing
overhead.
"""

from __future__ import annotations

import asyncio
import resource
import statistics
import subprocess
import sys
# repro-lint: timing-module -- the workload runners time set-up and operations
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.config import (
    SERVE_CACHE_CHUNKS,
    SERVE_CHUNK_ROWS,
    SERVE_PERIOD_S,
    SERVE_QUERY_RATE,
    SETUP_REPEATS,
    workload_config,
)
from perfbench.stats import describe, open_loop
from perfbench.tracing import NULL_TRACER, Tracer, install_layer_wrappers

__all__ = ["Outcome", "Phase", "run_workload", "f1_score"]

#: Fresh-interpreter set-up probe for the batch workloads: import the
#: library and construct the pipeline.
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
from perfbench.config import workload_config
from repro.pipeline import LinkagePipeline
LinkagePipeline(workload_config(sys.argv[1]))
print(repr(time.perf_counter() - start))
"""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: List[float] = field(default_factory=list)
    #: Latency of each timed operation (untraced ones only in a traced run).
    op_s: List[float] = field(default_factory=list)
    #: Records the timed operations processed, and their busy seconds.
    records: int = 0
    busy_s: float = 0.0
    links: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    executor: str = "unknown"
    layer: Dict[str, float] = field(default_factory=dict)

    def attempt(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))
        self.attempt(bool(ok))


class Phase:
    """The timed phase's tracing state.

    Untraced runs keep :data:`NULL_TRACER` throughout.  In a traced run
    :meth:`before_op` installs the layer wrappers for odd-numbered
    operations and removes them for even-numbered ones; spans of every
    traced operation accumulate in one live :class:`Tracer`.
    """

    def __init__(self, traced: bool, truth: Dict[str, str]) -> None:
        self.tracer = NULL_TRACER
        self.live: Optional[Tracer] = Tracer() if traced else None
        self.truth = truth
        self.reports: List[dict] = []
        self.relinks: List[object] = []
        self.last_corpora: Tuple[object, ...] = ()
        self.kernel_pairs = 0
        self.untraced_op_s: List[float] = []
        self.traced_op_s: List[float] = []

    def before_op(self, index: int) -> None:
        """Call between operations, when no program work is in flight."""
        if self.live is None:
            return
        if index % 2 and not self.tracer.enabled:
            install_layer_wrappers(
                self.live, self._on_report, self._on_relink, self._on_kernel
            )
            self.tracer = self.live
        elif not index % 2:
            self.stop_tracing()

    def stop_tracing(self) -> None:
        if self.tracer.enabled:
            self.live.uninstall()
        self.tracer = NULL_TRACER

    def record_op(self, index: int, seconds: float) -> None:
        """File operation ``index``'s time as traced or untraced.  A traced
        run leaves out its first operation, which alone pays the process's
        first-use costs and would bias the overhead estimate."""
        if self.live is None:
            self.untraced_op_s.append(seconds)
        elif index:
            (self.traced_op_s if index % 2 else self.untraced_op_s).append(seconds)

    def _on_relink(self, report) -> None:
        self.relinks.append(report.extras["relink"])

    def _on_kernel(self, pairs: Sequence) -> None:
        self.kernel_pairs += len(pairs)

    def _on_report(self, context, report) -> None:
        candidates = context.candidates or ()
        if not isinstance(candidates, (set, frozenset)):
            candidates = set(candidates)
        left, right = context.left_corpus, context.right_corpus
        left_ids = context.left_histories or {}
        right_ids = context.right_histories or {}
        present = [
            pair
            for pair in self.truth.items()
            if pair[0] in left_ids and pair[1] in right_ids
        ]
        self.reports.append(
            {
                "timings": dict(report.timings),
                "candidate_pairs": report.candidate_pairs,
                "recalled": sum(1 for pair in present if pair in candidates),
                "present": len(present),
                "shard_s": sum(report.shard_timings.get("scoring", ())),
                "bin_comparisons": report.stats.bin_comparisons,
                "edges": len(report.edges),
                "entities": (left.size if left is not None else 0)
                + (right.size if right is not None else 0),
            }
        )
        self.last_corpora = (left, right)


def f1_score(links: Dict[str, str], truth: Dict[str, str]) -> float:
    """F1 of ``links`` against the held-out ground truth."""
    hits = sum(1 for left, right in links.items() if truth.get(left) == right)
    if not hits:
        return 0.0
    precision = hits / len(links)
    recall = hits / len(truth)
    return 2 * precision * recall / (precision + recall)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _same_result(a, b) -> bool:
    """Bit-identical links and scores (the correctness oracles promise
    identity, not closeness)."""
    return a.links == b.links and a.link_scores == b.link_scores  # repro-lint: disable=float-score-eq -- bit-identity is the checked property


# ----------------------------------------------------------------------
# batch workloads: dense_brute, sparse_lsh
# ----------------------------------------------------------------------
def _batch(workload, inputs, seconds, phase, env, root) -> Outcome:
    from repro.pipeline import LinkagePipeline

    out = Outcome()
    for _ in range(SETUP_REPEATS[workload]):
        probe = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, workload],
            env=env,
            cwd=root,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        out.setup_s.append(float(probe.stdout.strip().splitlines()[-1]))
    pipeline = LinkagePipeline(workload_config(workload))
    left, right = inputs["left"], inputs["right"]
    records = left.num_records + right.num_records

    reports = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or (len(reports) < 2 and out.attempted < 4):
        index = out.attempted
        phase.before_op(index)
        with phase.tracer.op("link"):
            start = time.perf_counter()
            try:
                report = pipeline.run(left, right)
            except Exception as error:
                print(f"link failed: {error!r}", file=sys.stderr)
                report = None
            elapsed = time.perf_counter() - start
        out.attempt(report is not None)
        if report is None:
            continue
        phase.record_op(index, elapsed)
        reports.append(report)
        out.records += records
        out.busy_s += elapsed
    out.peak_rss_mb = _peak_rss_mb()
    phase.stop_tracing()

    first = reports[0]
    out.links = dict(first.links)
    out.executor = first.extras.get("executor", {}).get("name", "unknown")
    for index, report in enumerate(reports[1:], start=2):
        out.check(f"link {index} equals link 1", _same_result(report, first))
    out.notes.append(describe("link_s", phase.untraced_op_s))
    return out


# ----------------------------------------------------------------------
# delta_relink
# ----------------------------------------------------------------------
def _apply(linker, events) -> None:
    for side in ("left", "right"):
        records = [record for record_side, record in events if record_side == side]
        if records:
            linker.observe(side, records)


def _cold_pipeline(events, config):
    from repro.data import LocationDataset
    from repro.pipeline import LinkagePipeline

    sides = {
        side: LocationDataset.from_records(
            [record for record_side, record in events if record_side == side], side
        )
        for side in ("left", "right")
    }
    return LinkagePipeline(config).run(sides["left"], sides["right"])


def _delta(workload, inputs, seconds, phase, workdir) -> Outcome:
    from repro.core.streaming import StreamingLinker

    config = workload_config(workload)
    out = Outcome()
    linker = None
    for _ in range(SETUP_REPEATS[workload]):
        linker = None  # the previous set-up's linker must not add to the peak
        start = time.perf_counter()
        linker = StreamingLinker(inputs["origin"], config)
        _apply(linker, inputs["preload"])
        linker.relink()
        out.setup_s.append(time.perf_counter() - start)

    deltas = inputs["deltas"]
    holdout = deltas[-1]
    applied = list(inputs["preload"])
    next_delta = 0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end and next_delta < len(deltas) - 1:
        index = next_delta
        phase.before_op(index)
        events = deltas[index]
        next_delta += 1
        with phase.tracer.op("delta"):
            start = time.perf_counter()
            try:
                _apply(linker, events)
                report = linker.relink()
            except Exception as error:
                print(f"relink failed: {error!r}", file=sys.stderr)
                report = None
            elapsed = time.perf_counter() - start
        out.attempt(report is not None)
        applied.extend(events)
        if report is None:
            continue
        phase.record_op(index, elapsed)
        out.records += len(events)
        out.busy_s += elapsed
    out.peak_rss_mb = _peak_rss_mb()
    phase.stop_tracing()
    out.notes.append(describe("relink_s", phase.untraced_op_s))
    out.notes.append(
        f"deltas applied: {next_delta} of {len(deltas) - 1} "
        f"({out.records} records, ingest {out.records / out.busy_s:.6g} rec/s)"
    )

    # Catch up on the rest of the stream (untimed) and check the delta
    # relink against a cold batch run over exactly the same records.
    rest = [event for events in deltas[next_delta:-1] for event in events]
    _apply(linker, rest)
    applied.extend(rest)
    caught_up = linker.relink()
    out.executor = caught_up.extras.get("executor", {}).get("name", "unknown")
    out.check(
        "relink equals cold LinkagePipeline",
        _same_result(caught_up, _cold_pipeline(applied, config)),
    )

    start = time.perf_counter()
    linker.save(workdir / "delta-state")
    save_s = time.perf_counter() - start
    start = time.perf_counter()
    restored = StreamingLinker.restore(workdir / "delta-state", strict=True)
    restore_s = time.perf_counter() - start
    _apply(linker, holdout)
    _apply(restored, holdout)
    final = linker.relink()
    again = restored.relink()
    out.check(
        "restored relink equals never-restarted relink",
        _same_result(final, again)
        and restored.last_relink == linker.last_relink,
    )
    out.links = dict(final.links)
    out.notes.append(f"restore_s: {restore_s:.6g} s (n=1), save_s: {save_s:.6g} s (n=1)")
    out.layer.update(
        {
            "snapshot.save_s": save_s,
            "snapshot.restore_s": restore_s,
            "snapshot.bytes": _dir_bytes(workdir / "delta-state"),
        }
    )
    return out


def _dir_bytes(path: Path) -> float:
    return float(sum(item.stat().st_size for item in path.rglob("*") if item.is_file()))


# ----------------------------------------------------------------------
# serve_disk
# ----------------------------------------------------------------------
def _serve(workload, inputs, seconds, phase, workdir) -> Outcome:
    return asyncio.run(_serve_async(workload, inputs, seconds, phase, workdir))


async def _serve_async(workload, inputs, seconds, phase, workdir) -> Outcome:
    from repro.core.streaming import StreamingLinker
    from repro.serve import LinkageService

    config = workload_config(workload)
    out = Outcome()
    restore_s: List[float] = []
    service = None
    for repeat in range(SETUP_REPEATS[workload]):
        if service is not None:
            await service.stop()
        store_dir = workdir / f"store-{repeat}"
        state_dir = workdir / f"state-{repeat}"
        start = time.perf_counter()
        linker = StreamingLinker.restore(
            workdir / "seed",
            strict=True,
            storage="disk",
            store_dir=store_dir,
            store_chunk_rows=SERVE_CHUNK_ROWS,
            store_cache_chunks=SERVE_CACHE_CHUNKS,
        )
        restore_s.append(time.perf_counter() - start)
        # The state_dir is passed next to an explicit linker; the checks
        # below confirm every publish was checkpointed there.
        service = LinkageService(
            inputs["origin"],
            config,
            linker=linker,
            state_dir=state_dir,
            batch_records=10**9,
            max_staleness=3600.0,
        )
        await service.start()
        out.setup_s.append(time.perf_counter() - start)

    rounds = inputs["rounds"]
    entities = inputs["query_entities"]
    versions: List[int] = []
    query_versions: List[int] = []
    round_busy: List[float] = []

    async def publish_round(index: int) -> None:
        # Between rounds the relink worker is idle: the previous flush
        # returned only after its checkpoint was written.
        phase.before_op(index)
        left, right = rounds[index]
        tracer = phase.tracer
        with tracer.op("round", cross_thread=True):
            start = time.perf_counter()
            with tracer.span("LinkageService.submit", "serve"):
                await service.submit("left", left)
                await service.submit("right", right)
            with tracer.span("LinkageService.flush", "serve", cross_thread=True):
                snapshot = await service.flush()
            round_busy.append(time.perf_counter() - start)
        versions.append(snapshot.version)
        out.records += len(left) + len(right)

    async def query(index: int) -> None:
        with phase.tracer.op("query"):
            with phase.tracer.span("LinkageService.links_for", "serve"):
                answer = await service.links_for(entities[index % len(entities)])
        query_versions.append(answer.version)

    origin = time.perf_counter() + 0.01
    writes, reads = await asyncio.gather(
        open_loop(SERVE_PERIOD_S, len(rounds), publish_round, origin),
        open_loop(1.0 / SERVE_QUERY_RATE, int(seconds * SERVE_QUERY_RATE), query, origin),
    )
    out.peak_rss_mb = _peak_rss_mb()
    phase.stop_tracing()
    metrics = service.metrics()
    layer = out.layer
    caches = [
        corpus.chunk_cache.stats()
        for corpus in phase.last_corpora
        if corpus is not None and corpus.chunk_cache is not None
    ]
    layer["store.chunk_hits"] = float(sum(stats["hits"] for stats in caches))
    layer["store.chunk_misses"] = float(sum(stats["misses"] for stats in caches))
    layer["store.resident_bytes"] = float(
        sum(stats["resident_bytes"] for stats in caches)
    )
    layer["store.bytes_on_disk"] = _dir_bytes(store_dir)
    layer["serve.queue_peak"] = float(metrics["queue_peak"])
    layer["serve.relinks"] = float(metrics["relinks"])
    await service.stop()

    for sample in writes + reads:
        out.attempt(sample.ok)
    for index, sample in enumerate(writes):
        phase.record_op(index, sample.latency)
    out.op_s = list(phase.untraced_op_s)
    out.busy_s = sum(round_busy)
    late = max(sample.lateness for sample in writes)
    layer["serve.generator_late_s"] = late
    layer["snapshot.restore_s"] = statistics.median(restore_s)
    queries = [sample.latency for sample in reads]
    out.notes.append(describe("visible_s", [sample.latency for sample in writes]))
    out.notes.append(describe("query_s", queries))
    out.notes.append(
        f"generator lateness: max {late:.6g} s over {len(writes)} rounds, "
        f"query generator max {max(s.lateness for s in reads):.6g} s"
    )

    # Checks: one published version per round, one promoted snapshot per
    # published version, reads never go back in time, and the served
    # state equals an offline replay of the same records.
    out.check(
        "one published version per round",
        versions == list(range(1, len(rounds) + 1)),
    )
    snaps = sorted(path.name for path in state_dir.glob("snap-*"))
    pointer = state_dir / "CURRENT"
    current = pointer.read_text().strip() if pointer.exists() else ""
    expected = f"snap-{len(rounds):06d}"
    out.check(
        "one promoted snapshot per published version",
        snaps == [expected] and current == expected,
    )
    layer["snapshot.bytes"] = _dir_bytes(state_dir / expected) if snaps else 0.0
    out.check(
        "query versions never decrease",
        all(a <= b for a, b in zip(query_versions, query_versions[1:])),
    )
    served = service.snapshot()
    offline = StreamingLinker(inputs["origin"], config)
    for left, right in list(inputs["seeded"]) + list(rounds):
        offline.observe("left", left)
        offline.observe("right", right)
    replay = offline.relink()
    out.executor = replay.extras.get("executor", {}).get("name", "unknown")
    out.check(
        "served snapshot equals offline replay",
        dict(served.links) == replay.links
        and dict(served.link_scores) == replay.link_scores,  # repro-lint: disable=float-score-eq -- bit-identity is the checked property
    )
    resumed = StreamingLinker.restore(state_dir, strict=True).relink()
    out.check("final checkpoint equals offline replay", _same_result(resumed, replay))
    out.links = dict(served.links)
    tracer = phase.live
    if tracer is not None:
        # Relink and checkpoint nest under the flush span, so the flush's
        # self time is what it waited for the queue and the scheduler.
        own = tracer.self_times()
        ops = max(1, len(tracer.roots("round")))
        layer["snapshot.save_s"] = tracer.total("StreamingLinker.save", "round") / ops
        layer["serve.flush_wait_s"] = (
            sum(own[s.sid] for s in tracer.spans if s.name == "LinkageService.flush")
            / ops
        )
    return out


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def run_workload(
    workload: str,
    inputs: Dict[str, object],
    seconds: float,
    phase: Phase,
    workdir: Path,
    env: Dict[str, str],
    root: Path,
) -> Outcome:
    if workload in ("dense_brute", "sparse_lsh"):
        out = _batch(workload, inputs, seconds, phase, env, root)
    elif workload == "delta_relink":
        out = _delta(workload, inputs, seconds, phase, workdir)
    elif workload == "serve_disk":
        out = _serve(workload, inputs, seconds, phase, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if not out.op_s:
        out.op_s = list(phase.untraced_op_s)
    return out
