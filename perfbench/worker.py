"""One workload in one single-threaded interpreter; started by ``run.py``.

Modes:

* ``setup``   -- set up and report the set-up time, then exit;
* ``measure`` -- set up, then run untraced rounds for ``--seconds`` while
  sampling the host's speed (see ``workloads.Calibrator``);
* ``trace``   -- set up, run untraced rounds for half of ``--seconds``, then
  replay the same rounds with spans on;
* ``count``   -- set up, then run round 0 once with the call counters on.

Set-up is everything before the first timed round: interpreter start-up,
imports, fixtures and a warm-up round on the smoke-size inputs.  The worker
prints one JSON object on stdout.  It imports ``heckepieces`` from the
checkout's ``src`` and exits non-zero if that is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_ROUNDS = {"measure": 3, "trace": 2}
MAX_FAILURES_SHOWN = 5


def import_library() -> None:
    package = SRC / "heckepieces"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no heckepieces sources at {package}")
    sys.path.insert(0, str(SRC))
    import heckepieces
    if Path(heckepieces.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported heckepieces from {heckepieces.__file__}, not {package}")


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_rounds(workload, tracer, seconds: float, min_rounds: int,
                 calibrator=None) -> tuple[list, float]:
    """Rounds 0, 1, ... until ``seconds`` have passed and at least
    ``min_rounds`` ran.  Also returns the peak RSS after ``min_rounds``
    rounds: memory that a round leaves behind (``pieces._mu_on_basis`` pins
    every algebra) then counts the same in every run, however many rounds
    the host's speed allowed."""
    from workloads import run_round
    results, start, peak = [], time.perf_counter(), 0.0
    while len(results) < min_rounds or time.perf_counter() - start < seconds:
        results.append(run_round(workload, len(results), tracer, calibrator=calibrator))
        if len(results) == min_rounds:
            peak = peak_rss_mib()
    return results, peak


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "trace", "count"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent just before this process started")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    import_library()
    from tracing import Tracer
    from workloads import WORKLOADS, Calibrator, run_round

    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    workdir = Path(args.workdir)
    (workdir / "warm-up").mkdir(parents=True, exist_ok=True)
    cls = WORKLOADS[args.workload]
    warm = cls(args.seed, True, workdir / "warm-up", refs)
    warm.setup()
    results = [run_round(warm, 0, Tracer(False))]
    workload = cls(args.seed, args.smoke, workdir, refs)
    workload.setup()
    out: dict = {"setup_s": time.monotonic() - args.spawned}

    if args.mode == "measure":
        rounds, out["peak_rss_mib"] = timed_rounds(
            workload, Tracer(False), args.seconds, MIN_ROUNDS["measure"],
            Calibrator())
        results += rounds
        out["round_s"] = [r.seconds for r in rounds]
        out["calibration"] = [r.calibration for r in rounds]
    elif args.mode == "trace":
        rounds, _ = timed_rounds(workload, Tracer(False), args.seconds / 2, MIN_ROUNDS["trace"])
        tracer = Tracer(True)
        traced = []
        for index in range(len(rounds)):
            tracer.reset()
            result = run_round(workload, index, tracer)
            traced.append({"round_s": result.seconds, "spans": dict(tracer.totals),
                           "top_level_s": tracer.top_level})
        results += rounds
        out["round_s"] = [r.seconds for r in rounds]
        out["traced"] = traced
    elif args.mode == "count":
        counts: Counter = Counter()
        result = run_round(workload, 0, Tracer(False), counts)
        results.append(result)
        out["counts"] = dict(counts)
        out["work"] = dict(result.work)

    out["attempted"] = sum(r.attempted for r in results)
    out["failed"] = sum(r.failed for r in results)
    out["failures"] = [f for r in results for f in r.failures][:MAX_FAILURES_SHOWN]
    out.setdefault("peak_rss_mib", peak_rss_mib())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
