"""The repository benchmark: four named workloads over the SLIM linker.

Run one workload with one seed from the root of a checkout::

    python3 perfbench/run.py --workload sparse_lsh --seed 3 --seconds 10 --trace 0

Inputs are generated from ``--seed`` in a separate process
(``perfbench/generate.py``) before anything is timed; the program
receives only the generated records.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines above it give every metric with its unit and sample count,
the checks, and the environment.  ``--trace 1`` is a separate run that
reports the per-layer metrics instead of the end-to-end ones, writes a
Chrome ``trace_event`` file (open it in Perfetto) and a per-layer
self-time table under ``.perfbench_out/``.

Every workload runs in one process on the ``serial`` executor; the
serving workload adds one relink worker thread (2 threads, ``nproc`` on
the reference machine).

Workloads
---------
``dense_brute``
    Cold ``LinkagePipeline.run`` on ``baseline_cab`` at scale 8 with
    brute-force candidates, greedy matching and the GMM stop threshold.
    Scoring (cell distances, greedy MNN/MFN pairing) is ~90% of a link
    and the LSH layer does no work.  Brute force, because the default
    ``LshConfig`` recalls only ~0.49 of the true links on this world.
``sparse_lsh``
    Cold run on ``checkin_baseline`` at scale 8 with ``LshConfig()``, the
    paper's SLIM configuration.  LSH signatures take ~2/3 of a link and
    corpus preparation ~1/5; scoring is ~10%.  The inverse of
    ``dense_brute``.
``delta_relink``
    ``StreamingLinker`` with the LSH configuration.  Set-up preloads the
    first 80% of a time-ordered ``checkin_baseline`` (scale 4) stream and
    cold-relinks once; the timed phase is a closed loop of 8-record
    deltas, one ``relink()`` after each.  Measures the relink costs that
    scale with the corpus (persistent LSH index, score-cache lookups,
    re-normalisation, the transaction checkpoint) against a small delta.
``serve_disk``
    ``LinkageService`` over a ``StreamingLinker(storage="disk")`` with a
    small chunk cache, restored from a seeded snapshot, checkpointing
    every publish to a ``state_dir``.  Open loop on ``baseline_cab``
    (scale 2): a round (submit, then ``flush()``) every 0.45 s and
    ``links_for`` queries at 200/s beside it, both timed from when they
    were due.  The only workload through ``serve/``, ``store/`` chunk
    I/O and a snapshot write per publish; every taxi is dirty every
    round, the large-delta counterpart of ``delta_relink``.

End-to-end metrics (every workload)
-----------------------------------
``setup_s``
    Median of several set-ups: import and pipeline construction in a
    fresh interpreter (batch), preload plus cold relink
    (``delta_relink``), snapshot restore plus ``start()``
    (``serve_disk``).
``op_p50_s``
    Median latency of the workload's operation: one cold link (batch,
    the median of the repetitions), one delta plus relink
    (``delta_relink``), a round from its due time to the return of the
    ``flush()`` that publishes it (``serve_disk``).
``capacity_rec_per_s``
    Records processed per second the operations were busy.
``f1``
    Final links against the held-out ground truth.
``peak_rss_mb``
    Peak resident set of the measuring process at the end of the timed
    phase (generation runs in its own process).

Failed or refused operations and failed output checks count into
``failed`` of the result line (``failed_frac`` = failed / attempted on
the report lines); a run with any failure is not ``correct``.  Tail
percentiles (relink p90, visible p50/p90, query p50/p99) are reported on
the report lines when at least ten samples lie beyond them.

Per-layer metrics (``--trace 1``) and what they should move
-----------------------------------------------------------
==========================================  ===================================
layer: metrics                              moves
==========================================  ===================================
pipeline.stages, core.corpus:               op_p50_s on both batch workloads
``prepare.s``, ``corpus.entities``          and on delta_relink
lsh: ``candidates.s``,                      op_p50_s on sparse_lsh; op_p50_s
``lsh.index_build_s``,                      and setup_s on delta_relink; no
``lsh.signature_s``, ``lsh.signatures``,    change expected on dense_brute
``candidates.pairs``,
``candidates.true_recall``
core.kernels: ``scoring.s``,                op_p50_s on dense_brute and on
``kernels.batch_s``, ``kernels.greedy_s``,  serve_disk; little effect on
``scoring.pairs``,                          sparse_lsh
``scoring.bin_comparisons``,
``scoring.edge_yield``
core.matching, core.threshold:              op_p50_s on sparse_lsh
``matching.s``, ``threshold.s``
exec: ``exec.shard_s``,                     op_p50_s on both batch workloads
``exec.overhead_s``
core.score_cache, core.streaming:           op_p50_s on delta_relink
``relink.rescored_ratio``,
``score_cache.lookup_s``,
``relink.dirty_entities``,
``relink.outside_stages_s``
store: ``store.chunk_hits``,                op_p50_s and peak_rss_mb on
``store.chunk_misses``,                     serve_disk
``store.resident_bytes``,
``store.bytes_on_disk``
store.snapshot: ``snapshot.save_s``,        op_p50_s and setup_s on
``snapshot.bytes``,                         serve_disk
``snapshot.restore_s``
serve: ``serve.flush_wait_s``,              op_p50_s on serve_disk
``serve.queue_peak``, ``serve.relinks``,
``serve.generator_late_s``
==========================================  ===================================

``self.<layer>_s`` are the layers' self times per operation and
``self.unattributed_s`` the remainder no layer span covers; together
they add up to ``trace.op_s``, which is checked on every traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench.config import WORKLOADS  # noqa: E402
from perfbench.stats import median  # noqa: E402

#: Environment variables a workload process must not inherit: a leaked
#: executor choice would silently benchmark another backend.
PINNED_ENV = {"REPRO_EXECUTOR": "serial", "REPRO_WORKERS": "1"}
CLEARED_ENV = ("REPRO_SCORE_BLOCK_SIZE",)
#: Fault injection and kill switches make a run meaningless.
REFUSED_ENV = ("REPRO_FAULTS", "REPRO_KILL_SWITCH")

#: End-to-end metrics and their units, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("capacity_rec_per_s", "1/s"),
    ("f1", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: The operation each workload times (root span name of a traced run).
OP_NAMES = {
    "dense_brute": "link",
    "sparse_lsh": "link",
    "delta_relink": "delta",
    "serve_disk": "round",
}


def _refuse(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    for name in CLEARED_ENV:
        env.pop(name, None)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _metric(value: float, unit: str, count: Optional[int] = None) -> Dict[str, object]:
    entry: Dict[str, object] = {"value": float(value), "unit": unit}
    if count is not None:
        entry["samples"] = count
    return entry


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="SLIM linkage benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _refuse("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _refuse(f"no library sources under {ROOT / 'src' / 'repro'}")
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        return _refuse(f"refusing to run with {', '.join(refused)} set")
    env = _child_env()
    os.environ.update(PINNED_ENV)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy

    from perfbench.layers import PER_LAYER, layer_metrics, self_times_add_up
    from perfbench.workloads import Phase, f1_score, run_workload

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        subprocess.run(
            [
                sys.executable,
                str(ROOT / "perfbench" / "generate.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--out", str(workdir),
            ],
            env=env,
            cwd=ROOT,
            timeout=300,
            check=True,
        )
        with open(workdir / "inputs.pkl", "rb") as handle:
            inputs = pickle.load(handle)  # written by our own generator child
        truth = inputs.pop("truth")
        phase = Phase(bool(args.trace), truth)
        out = run_workload(
            args.workload, inputs, args.seconds, phase, workdir, env, ROOT
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    op_name = OP_NAMES[args.workload]
    out.check("executor is serial", out.executor == "serial")
    f1 = f1_score(out.links, truth)
    print(
        f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace}"
    )
    print(
        f"# env: executor={out.executor} nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={numpy.__version__}"
    )
    for note in out.notes:
        print(f"# {note}")

    if args.trace:
        out.check("self times add up to the traced time", self_times_add_up(phase, op_name))
        values = layer_metrics(phase, out.layer, op_name)
        units = dict(PER_LAYER)
        metrics = {name: _metric(values[name], units[name]) for name, _ in PER_LAYER}
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        trace_path = out_dir / f"{stem}.trace.json"
        phase.live.write_chrome_trace(trace_path)
        table = phase.live.self_time_table(op_name)
        (out_dir / f"{stem}.selftime.txt").write_text(table + "\n")
        print(f"# chrome trace: {trace_path}")
        for line in table.splitlines():
            print(f"# {line}")
        print(
            f"# trace overhead: {values['trace.overhead_s']:.6g} s per {op_name} "
            f"(traced {len(phase.traced_op_s)}, untraced {len(phase.untraced_op_s)})"
        )
    else:
        values = {
            "setup_s": statistics.median(out.setup_s),
            "op_p50_s": median(out.op_s),
            "capacity_rec_per_s": out.records / out.busy_s,
            "f1": f1,
            "peak_rss_mb": out.peak_rss_mb,
        }
        counts = {
            "setup_s": len(out.setup_s),
            "op_p50_s": len(out.op_s),
            "capacity_rec_per_s": len(out.op_s),
            "f1": 1,
            "peak_rss_mb": 1,
        }
        metrics = {
            name: _metric(values[name], unit, counts[name]) for name, unit in END_TO_END
        }
    for name, entry in metrics.items():
        samples = f" (n={entry['samples']})" if "samples" in entry else ""
        print(f"# metric {name} = {entry['value']:.6g} {entry['unit']}{samples}")
    for name, ok in out.checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name}")
    print(
        f"# failed_frac = {out.failed / max(1, out.attempted):.6g} "
        f"({out.failed} of {out.attempted} operations and checks)"
    )
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
