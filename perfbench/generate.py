"""Input generation for the benchmark workloads, run in its own process.

``run.py`` starts this module as a child process before the program is
set up, so the world generator's memory never reaches the measured
process's peak RSS and no generation cost lands in a timed region.  The
child writes ``inputs.pkl`` (records and held-out ground truth) into the
work directory; for ``serve_disk`` it also seeds the snapshot the service
restores from (``seed/``).

Everything is a function of ``(workload, seed, seconds)``: the same
arguments give byte-identical inputs.

    python perfbench/generate.py --workload sparse_lsh --seed 3 \\
        --seconds 10 --out work/
"""

from __future__ import annotations

import argparse
import math
import pickle
import sys
from pathlib import Path
from typing import Dict, List, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.config import (  # noqa: E402
    DELTA_PRELOAD_SHARE,
    DELTA_RECORDS,
    SCALES,
    SCENARIOS,
    SERVE_PERIOD_S,
    workload_config,
)

__all__ = ["generate", "ordered_events", "serve_round_count"]


def ordered_events(pair) -> List[Tuple[str, object]]:
    """Both sides' records as one time-ordered ``(side, record)`` stream."""
    events = [("left", record) for record in pair.left.records()]
    events += [("right", record) for record in pair.right.records()]
    events.sort(key=lambda item: (item[1].timestamp, item[0], item[1].entity_id))
    return events


def serve_round_count(seconds: float) -> Tuple[int, int]:
    """``(total rounds, timed rounds)`` for ``serve_disk``: enough rounds
    due within ``seconds`` at the fixed period, preceded by as many
    rounds already folded into the seed snapshot."""
    timed = int(math.floor(seconds / SERVE_PERIOD_S)) + 1
    return 2 * timed, timed


def generate(workload: str, seed: int, seconds: float, out: Path) -> Dict[str, object]:
    """Build one workload's inputs and write them under ``out``."""
    from repro.scenarios import get_scenario

    pair = get_scenario(SCENARIOS[workload]).pair(seed=seed, scale=SCALES[workload])
    inputs: Dict[str, object] = {"truth": dict(pair.ground_truth)}
    if workload in ("dense_brute", "sparse_lsh"):
        inputs.update(left=pair.left, right=pair.right)
    elif workload == "delta_relink":
        events = ordered_events(pair)
        preload = int(len(events) * DELTA_PRELOAD_SHARE)
        inputs.update(
            origin=events[0][1].timestamp,
            preload=events[:preload],
            deltas=[
                events[start : start + DELTA_RECORDS]
                for start in range(preload, len(events), DELTA_RECORDS)
            ],
        )
    elif workload == "serve_disk":
        from repro.core.streaming import StreamingLinker
        from repro.scenarios.base import stream_rounds
        from repro.serve.replay import replay_origin

        total, timed = serve_round_count(seconds)
        rounds = stream_rounds(pair.left, pair.right, total)
        origin = replay_origin(rounds)
        seeded = rounds[: total - timed]
        linker = StreamingLinker(origin, workload_config(workload))
        for cell in seeded:
            linker.observe("left", cell.left)
            linker.observe("right", cell.right)
        linker.relink()
        linker.save(out / "seed")
        inputs.update(
            origin=origin,
            seeded=[(cell.left, cell.right) for cell in seeded],
            rounds=[(cell.left, cell.right) for cell in rounds[total - timed :]],
            query_entities=sorted(pair.left.entities),
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with open(out / "inputs.pkl", "wb") as handle:
        pickle.dump(inputs, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.seconds, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
