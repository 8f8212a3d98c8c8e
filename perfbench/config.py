"""Workload constants shared by the generator and the workload runners.

Changing any value here changes the benchmark, not the program: a change
that claims a gain must leave this file alone.
"""

from __future__ import annotations

__all__ = [
    "WORKLOADS",
    "SCENARIOS",
    "SCALES",
    "SETUP_REPEATS",
    "DELTA_PRELOAD_SHARE",
    "DELTA_RECORDS",
    "SERVE_PERIOD_S",
    "SERVE_QUERY_RATE",
    "SERVE_CHUNK_ROWS",
    "SERVE_CACHE_CHUNKS",
    "workload_config",
]

WORKLOADS = ("dense_brute", "sparse_lsh", "delta_relink", "serve_disk")

#: Scenario (``repro.scenarios``) each workload's inputs come from.
SCENARIOS = {
    "dense_brute": "baseline_cab",
    "sparse_lsh": "checkin_baseline",
    "delta_relink": "checkin_baseline",
    "serve_disk": "baseline_cab",
}

#: Scenario scale: 8 puts ~144+144 taxis (dense) and ~1170+1170 check-in
#: users (sparse) into a batch link of a few seconds; 4 gives the delta
#: workload ~590+590 entities; 2 keeps a served round well inside its
#: period.
SCALES = {
    "dense_brute": 8.0,
    "sparse_lsh": 8.0,
    "delta_relink": 4.0,
    "serve_disk": 2.0,
}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = {
    "dense_brute": 3,
    "sparse_lsh": 3,
    "delta_relink": 3,
    "serve_disk": 9,
}

#: Share of the time-ordered check-in stream preloaded before timing.
DELTA_PRELOAD_SHARE = 0.8
#: Records per delta (one relink each).
DELTA_RECORDS = 8

#: Seconds between served rounds.  At scale 2 a round (submit, relink,
#: snapshot) takes ~0.25 s; a 0.25 s period fell behind, 0.5 s did not.
SERVE_PERIOD_S = 0.45
#: Snapshot queries per second, sent beside the rounds.
SERVE_QUERY_RATE = 200.0
#: Disk store geometry: small chunks and a small chunk cache, so column
#: reads go through the chunk LRU instead of one resident chunk.
SERVE_CHUNK_ROWS = 2048
SERVE_CACHE_CHUNKS = 4


def workload_config(workload: str):
    """The :class:`~repro.pipeline.LinkageConfig` a workload links with
    (always the ``serial`` executor)."""
    from repro.lsh import LshConfig
    from repro.pipeline import LinkageConfig

    if workload == "dense_brute":
        # Brute force: the default LshConfig recalls only ~0.49 of the
        # true links on the dense cab world.
        return LinkageConfig(executor="serial", workers=1, candidates="brute")
    if workload in ("sparse_lsh", "delta_relink"):
        return LinkageConfig(executor="serial", workers=1, lsh=LshConfig())
    if workload == "serve_disk":
        return LinkageConfig(executor="serial", workers=1)
    raise ValueError(f"unknown workload {workload!r}")
