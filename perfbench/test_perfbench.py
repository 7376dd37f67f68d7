"""Tests of the benchmark itself, on its smoke-size (B2/B3) inputs."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, run_round  # noqa: E402

REFERENCES = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_its_unit(trace):
    proc = run_bench("--workload", "all", "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for name in WORKLOADS:
        got = {k.split("/", 1)[1]: m["unit"] for k, m in result["metrics"].items()
               if k.startswith(name + "/")}
        assert got == want, name
    metas = [json.loads(line)["meta"] for line in lines if line.startswith('{"meta"')]
    assert len(metas) == len(WORKLOADS)
    if trace:
        assert all(meta["counts_identical"] for meta in metas)


@pytest.mark.parametrize("smoke", [True, False])
def test_every_drawable_input_has_a_reference(smoke, tmp_path):
    for cls in WORKLOADS.values():
        missing = cls(0, smoke, tmp_path, REFERENCES).reference_keys() - set(REFERENCES)
        assert not missing, (cls.name, missing)


class RecordingRefs(dict):
    def __init__(self, data):
        super().__init__(data)
        self.read: set[str] = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checks_fail_closed(name, tmp_path):
    refs = RecordingRefs(REFERENCES)
    workload = WORKLOADS[name](5, True, tmp_path, refs)
    workload.setup()
    clean = run_round(workload, 0, Tracer(False))
    assert clean.failed == 0, clean.failures
    assert refs.read
    for key in sorted(refs.read):
        for broken in ({**REFERENCES, key: "0" * 64},
                       {k: v for k, v in REFERENCES.items() if k != key}):
            workload.refs = broken
            assert run_round(workload, 0, Tracer(False)).failed > 0, key


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "kl-read", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
