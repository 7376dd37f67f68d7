"""The one-shot timing tool: rows run in-process and report the same
counts and digests on every machine."""

import hashlib
import importlib.util
import json
import subprocess
import sys
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
    ("canonical_basis_B4_validated", {
        "coefficients": 40_249,
        "sha256": "42696ebb6667088da7c452c1cc672a2db1525db1ed77a2e6a1c7e96aa3446eb1"}),
    ("closure_hasse_B5_J2", {
        "covers": 11_088,
        "sha256": "cb7a006a1f78f3aa3a056cfa4ae761717aebfff191bba7038ed9a2a6267fd8dd"}),
    ("charsheaf_report_B5", {
        "pairs": 2_304, "ambiguous": [["1", "gefgeg"], ["g", "gefgeg"]],
        "sha256": "a1f194571f17f788e3fd848fcfdff6aa0523ccf30ac362954d520a761a8d4b82"}),
])
def test_run_row_in_process(oneshot, row, expected):
    result = oneshot.run_row(row)
    assert {key: result[key] for key in expected} == expected
    assert result["wall_s"] >= 0 and result["peak_rss_mib"] > 0


def test_revision_flags_only_changes_under_src(oneshot, tmp_path):
    """A side is dirty only while a tracked file under its ``src/`` has
    uncommitted changes, staged or not: edits elsewhere and untracked
    files leave it clean."""
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "code.py").write_text("x = 1\n")
    (tmp_path / "README").write_text("text\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "start")
    head = subprocess.run(["git", "-C", str(tmp_path), "rev-parse", "HEAD"],
                          check=True, capture_output=True, text=True).stdout.strip()
    assert oneshot.revision(tmp_path) == {"commit": head, "dirty": False}
    (tmp_path / "README").write_text("edited\n")
    (tmp_path / "src" / "new.py").write_text("y = 2\n")
    assert oneshot.revision(tmp_path) == {"commit": head, "dirty": False}
    (tmp_path / "src" / "code.py").write_text("x = 2\n")
    assert oneshot.revision(tmp_path) == {"commit": head, "dirty": True}
    git("add", "src/code.py")  # staged but not committed
    assert oneshot.revision(tmp_path) == {"commit": head, "dirty": True}


def test_named_rows_run_alone_in_table_order(tmp_path):
    """``--row`` runs only the rows named, each once per side, in the order
    of the row table rather than of the options."""
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(TOOL), "--side", f"here={TOOL.parents[1]}",
                    "--row", "covers_B5", "--row", "sequences_B5_J2", "--out", str(out)],
                   check=True, capture_output=True)
    rows = json.loads(out.read_text())["rows"]
    assert [(r["row"], r["side"]) for r in rows] == [("sequences_B5_J2", "here"),
                                                      ("covers_B5", "here")]
