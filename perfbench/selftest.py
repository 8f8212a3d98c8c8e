"""Self-tests of the benchmark harness (not of the library).

Run all of them with either of::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

They cover the percentile rule, due-time accounting under a stall,
tracer self time with overlapping children, wrapper removal, the seed
contract of the input generator, and agreement between
``BENCHMARK.json`` and the metrics the harness prints.
"""

from __future__ import annotations

import asyncio
import json
import sys
import tempfile
# repro-lint: timing-module -- the due-time test stalls a fake service on the clock
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench.stats import MIN_BEYOND, describe, open_loop, percentile  # noqa: E402
from perfbench.tracing import Span, Tracer, covered_length  # noqa: E402


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    assert MIN_BEYOND == 10
    assert percentile(list(range(19)), 0.5) is None
    assert percentile(list(range(20)), 0.5) == 9
    assert percentile(list(range(999)), 0.99) is None
    assert percentile(list(range(1000)), 0.99) == 989
    assert percentile(list(range(99)), 0.9) is None
    assert percentile(list(range(100)), 0.9) == 89


def test_describe_reports_sample_count_and_highest_supported_percentile():
    assert describe("x", [1.0, 2.0, 3.0]) == "x: median of 3 repetitions 2 s (n=3)"
    line = describe("q", [float(v) for v in range(1000)])
    assert "p50 499 s" in line and "p99 989 s" in line and "(n=1000)" in line
    line = describe("r", [float(v) for v in range(100)])
    assert "p90 89 s" in line and "p99" not in line and "(n=100)" in line


# ----------------------------------------------------------------------
# due-time accounting
# ----------------------------------------------------------------------
class _StallingService:
    """A fake service running at capacity (each call takes one period)
    that stalls once for 200 ms."""

    def __init__(self, period: float, stall_at: int, stall: float) -> None:
        self.period = period
        self.stall_at = stall_at
        self.stall = stall
        self.stall_end = None

    async def call(self, index: int) -> None:
        time.sleep(self.period)
        if index == self.stall_at:
            time.sleep(self.stall)
            self.stall_end = time.perf_counter()


def test_a_stall_shows_in_every_later_sample_and_in_lateness():
    period, stall_at, stall = 0.02, 3, 0.2
    service = _StallingService(period, stall_at, stall)
    samples = asyncio.run(open_loop(period, 12, service.call))
    assert all(sample.ok for sample in samples)
    later = samples[stall_at + 1 :]
    assert later
    for sample in later:
        # Due before the stall ended, finished after it: the wait counts.
        assert sample.latency >= service.stall_end - sample.due + period - 1e-6
        assert sample.latency >= stall
        assert sample.lateness >= stall - 1e-6
    assert max(sample.lateness for sample in samples) >= stall - 1e-6
    assert all(sample.lateness < 0.05 for sample in samples[: stall_at + 1])


def test_a_failing_action_is_recorded_not_dropped():
    async def flaky(index: int) -> None:
        if index == 1:
            raise RuntimeError("refused")

    samples = asyncio.run(open_loop(0.001, 3, flaky))
    assert [sample.ok for sample in samples] == [True, False, True]


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(1, 5), (3, 7)]) == 6
    assert covered_length([(3, 7), (1, 5), (8, 9), (2, 4)]) == 7


def _span(sid, parent, start, end, layer="l", op=1, name=None):
    return Span(sid, name or f"s{sid}", layer, op, parent, 0, start, end)


def test_self_time_subtracts_the_union_of_overlapping_children():
    tracer = Tracer()
    tracer.spans = [
        _span(1, None, 0.0, 10.0, layer="unattributed", name="op"),
        _span(2, 1, 1.0, 5.0, layer="a"),
        _span(3, 1, 3.0, 7.0, layer="b"),  # overlaps span 2 (another thread)
        _span(4, 2, 2.0, 3.0, layer="c"),
    ]
    own = tracer.self_times()
    assert own == {1: 4.0, 2: 3.0, 3: 4.0, 4: 1.0}
    assert tracer.layer_self_times("op") == {
        "unattributed": 4.0,
        "a": 3.0,
        "b": 4.0,
        "c": 1.0,
    }


def test_nested_self_times_add_up_to_the_root():
    tracer = Tracer()
    with tracer.op("op"):
        with tracer.span("outer", "a"):
            with tracer.span("inner", "b"):
                time.sleep(0.002)
            time.sleep(0.001)
        with tracer.span("sibling", "c"):
            time.sleep(0.001)
    (root,) = tracer.roots("op")
    parts = tracer.layer_self_times("op")
    assert set(parts) == {"unattributed", "a", "b", "c"}
    assert abs(sum(parts.values()) - root.duration) < 1e-9
    assert all(span.op == root.sid for span in tracer.spans)


def test_cross_thread_spans_nest_under_the_marked_span():
    import threading

    tracer = Tracer()
    with tracer.op("op", cross_thread=True):
        with tracer.span("wait", "serve", cross_thread=True) as waiting:
            def work():
                with tracer.span("work", "w"):
                    time.sleep(0.001)

            worker = threading.Thread(target=work)
            worker.start()
            worker.join(timeout=5)
            assert not worker.is_alive()
    (work_span,) = [span for span in tracer.spans if span.name == "work"]
    assert work_span.parent == waiting.sid
    assert tracer.cross_thread_op is None


def test_wrappers_are_removed_by_uninstall():
    import repro.core.kernels as kernels
    import repro.lsh.index as lsh_index
    from repro.core.streaming import StreamingLinker
    from repro.pipeline.runner import LinkagePipeline
    from perfbench.tracing import install_layer_wrappers

    before = (
        kernels.score_pairs_batch,
        lsh_index.build_signature,
        vars(LinkagePipeline)["execute"],
        vars(StreamingLinker)["restore"],
    )
    tracer = Tracer()
    install_layer_wrappers(
        tracer, lambda context, report: None, lambda report: None, lambda pairs: None
    )
    assert kernels.score_pairs_batch is not before[0]
    assert isinstance(vars(StreamingLinker)["restore"], classmethod)
    tracer.uninstall()
    after = (
        kernels.score_pairs_batch,
        lsh_index.build_signature,
        vars(LinkagePipeline)["execute"],
        vars(StreamingLinker)["restore"],
    )
    assert all(a is b for a, b in zip(before, after))


def test_chrome_trace_export_is_trace_event_json():
    tracer = Tracer()
    with tracer.op("op"):
        with tracer.span("child", "a"):
            pass
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.json"
        tracer.write_chrome_trace(path)
        events = json.loads(path.read_text())["traceEvents"]
    complete = [event for event in events if event["ph"] == "X"]
    assert [event["name"] for event in complete] == ["op", "child"]
    assert complete[1]["args"]["parent"] == complete[0]["args"]["span"]
    assert "self time over 1 op operations" in tracer.self_time_table("op")


# ----------------------------------------------------------------------
# seeds and the benchmark definition
# ----------------------------------------------------------------------
def test_same_seed_same_inputs_other_seed_other_inputs():
    from perfbench.generate import generate

    blobs = []
    with tempfile.TemporaryDirectory() as tmp:
        for run, seed in enumerate((1, 1, 2)):
            out = Path(tmp) / str(run)
            out.mkdir()
            generate("delta_relink", seed, 10.0, out)
            blobs.append((out / "inputs.pkl").read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0] != blobs[2]


def test_benchmark_json_matches_the_harness():
    from perfbench.config import WORKLOADS
    from perfbench.layers import PER_LAYER, better
    from perfbench.run import END_TO_END

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert all(m["better"] == better(m["name"]) for m in spec["per_layer"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _main() -> int:
    tests = [
        (name, value)
        for name, value in sorted(globals().items())
        if name.startswith("test_") and callable(value)
    ]
    failures = 0
    for name, test in tests:
        try:
            test()
        except Exception as error:  # report every failing test, then exit 1
            failures += 1
            print(f"FAIL {name}: {error!r}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failures} passed, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(_main())
