"""The one-shot timing tool: rows run in-process and report the same
counts and digests on every machine."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "oneshot.py"


@pytest.fixture(scope="module")
def oneshot():
    spec = importlib.util.spec_from_file_location("oneshot", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sha256_file_reads_in_chunks(oneshot, tmp_path):
    """The file digest equals hashlib's digest of the whole content, for an
    empty file and for one just past a chunk boundary."""
    for size in (0, (1 << 20) + 3):
        data = bytes(i % 251 for i in range(size))
        path = tmp_path / f"f{size}"
        path.write_bytes(data)
        assert oneshot.sha256_file(str(path)) == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("row, expected", [
    ("covers_B5", {"covers": 24_612}),
    ("example_b4", {"exit": 0, "sha256": "15133641529513e3b880d2576c900a4f0987fb0bab131229c34744df76076254"}),
    ("sequences_B5_J2", {"indices": 1_920}),
    ("canonical_basis_B4_validated", {"coefficients": 40_249}),
])
def test_run_row_in_process(oneshot, row, expected):
    result = oneshot.run_row(row)
    assert {key: result[key] for key in expected} == expected
    assert result["wall_s"] >= 0 and result["peak_rss_mib"] > 0
