"""Benchmark entry point for heckepieces.

    python3 perfbench/run.py --workload kl-write --seed 1 --seconds 20 --trace 0

Runs one workload (or ``all`` of them, one after another), each in its own
interpreter (``worker.py``), and prints as its last stdout line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: the median of three set-ups
(two set-up-only interpreters plus the measuring one), the median round time
in units of a calibration loop timed beside each job, the measuring
process's peak RSS and the share of jobs that passed.
``--trace 1`` reports the per-layer metrics: span sums from a traced replay
of the measured rounds, and exact call and work counts from round 0 run in
two further interpreters, whose counts must agree.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("kl-write", "kl-read", "pieces", "hecke-weighted")
SETUP_RUNS = 3
DEADLINE_S = 170  # every process of one workload ends within this

END_TO_END_UNITS = {"setup_s": "s", "solve_rel": "Mstep", "peak_rss_mib": "MiB",
                    "ok_ratio": "ratio"}
SPAN_METRICS = (  # metric name -> the span name it sums is the name without "_s"
    "coxeter.group_s",
    "hecke.kl_table_s", "hecke.query_s", "hecke.inverse_kl_s", "hecke.algebra_s",
    "hecke.canonical_basis_s", "hecke.multiply_s", "hecke.bar_s",
    "pieces.piece_indices_s", "pieces.normalizer_s", "pieces.sequence_s",
    "pieces.dimension_s", "pieces.closure_s", "pieces.E_operator_s",
    "charsheaf_b4.build_context_s", "charsheaf_b4.report_s", "b4_example.checks_s",
    "cli.save_s", "cli.load_s",
)
WORK_UNITS = {"hecke.kl_pairs": "count", "hecke.kl_distinct": "count",
              "pieces.indices": "count", "pieces.covers": "count", "cli.cache_bytes": "bytes"}


class BenchError(Exception):
    pass


def git_revision() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ")[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Workers:
    """Starts worker interpreters and makes sure none outlives the run."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0
        self.started: list[subprocess.Popen] = []

    def start(self, mode: str, workload: str) -> subprocess.Popen:
        self.count += 1
        cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
               "--workload", workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds),
               "--workdir", str(self.workdir / f"{workload}-{mode}-{self.count}")]
        if self.args.smoke:
            cmd.append("--smoke")
        cmd += ["--spawned", repr(time.monotonic())]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        self.started.append(proc)
        return proc

    def finish(self, proc: subprocess.Popen) -> dict:
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker exceeded {DEADLINE_S} s: {proc.args}")
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}: {proc.args}")
        return json.loads(out.strip().splitlines()[-1])

    def run(self, mode: str, workload: str) -> dict:
        return self.finish(self.start(mode, workload))

    def stop_all(self) -> None:
        for proc in self.started:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def report_failures(name: str, reports: list[dict]) -> None:
    for report in reports:
        for failure in report["failures"]:
            print(f"[{name}] FAILED {failure}", file=sys.stderr)


def end_to_end(workers: Workers, name: str) -> tuple[dict, dict, dict]:
    probes = [workers.run("setup", name) for _ in range(SETUP_RUNS - 1)]
    measured = workers.run("measure", name)
    report_failures(name, probes + [measured])
    setups = [p["setup_s"] for p in probes] + [measured["setup_s"]]
    rounds = measured["round_s"]
    # round time in millions of calibration steps sampled during that round
    relative = [r * steps / seconds / 1e6
                for r, (steps, seconds) in zip(rounds, measured["calibration"])]
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_rel": statistics.median(relative),
        "peak_rss_mib": measured["peak_rss_mib"],
        "ok_ratio": 1 - measured["failed"] / measured["attempted"],
    }
    meta = {
        "setup_s_samples": setups,
        "solve_s": statistics.median(rounds),
        "solve_s_samples": len(rounds),
        "solve_s_quartiles": quartiles(rounds),
        "solve_rel_quartiles": quartiles(relative),
        "round_s": rounds,
        "calibration": measured["calibration"],
        "failed_ratio": measured["failed"] / measured["attempted"],
    }
    status = {"attempted": measured["attempted"], "failed": measured["failed"]}
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
            meta, status)


def per_layer(workers: Workers, name: str) -> tuple[dict, dict, dict]:
    from tracing import COUNT_METRICS

    traced = workers.run("trace", name)
    counters = [workers.start("count", name) for _ in range(2)]
    counted = [workers.finish(proc) for proc in counters]
    report_failures(name, [traced] + counted)
    rounds = traced["traced"]
    metrics = {}
    for metric in SPAN_METRICS:
        span = metric[:-len("_s")]
        metrics[metric] = (statistics.median(r["spans"].get(span, 0.0) for r in rounds), "s")
    for metric in COUNT_METRICS:
        metrics[metric] = (counted[0]["counts"].get(metric, 0), "count")
    for metric, unit in WORK_UNITS.items():
        metrics[metric] = (counted[0]["work"].get(metric, 0), unit)
    traced_s = statistics.median(r["round_s"] for r in rounds)
    metrics["trace.overhead"] = (traced_s / statistics.median(traced["round_s"]), "ratio")
    metrics["trace.span_share"] = (
        statistics.median(r["top_level_s"] / r["round_s"] for r in rounds), "ratio")
    identical = all(c["counts"] == counted[0]["counts"] and c["work"] == counted[0]["work"]
                    for c in counted)
    if not identical:
        print(f"[{name}] WARNING: call or work counts differ between two runs of round 0",
              file=sys.stderr)
    meta = {"traced_rounds": len(rounds), "counts_identical": identical}
    attempted = traced["attempted"] + sum(c["attempted"] for c in counted)
    failed = traced["failed"] + sum(c["failed"] for c in counted)
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            meta, {"attempted": attempted, "failed": failed})


def run_workload(args, name: str, workdir: Path) -> dict:
    workers = Workers(args, workdir)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, meta, status = measure(workers, name)
    finally:
        workers.stop_all()
    meta.update(workload=name, seed=args.seed, seconds=args.seconds, smoke=args.smoke,
                trace=args.trace, git_revision=git_revision(),
                python=sys.version.split()[0], nproc=os.cpu_count())
    print(json.dumps({"meta": meta}))
    for metric, m in metrics.items():
        print(f"{name:>14}  {metric:<30} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{name:>14}  {'solve_s':<30} {meta['solve_s']:.6g} s")
        print(f"{name:>14}  {'failed_ratio':<30} {meta['failed_ratio']:.6g} ratio")
    return {"correct": status["failed"] == 0, **status, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="B2/B3-sized inputs, for the benchmark's own tests")
    args = parser.parse_args()
    if not (ROOT / "src" / "heckepieces" / "__init__.py").is_file():
        print(f"error: no heckepieces sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        results = {name: run_workload(args, name, workdir) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
