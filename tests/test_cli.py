"""Command-line interface: output formats, cache handling, exit codes."""

import errno
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from heckepieces import cli
from heckepieces.cli import load_kl_cache, main, save_kl_cache
from heckepieces.coxeter import coxeter_group, type_b_matrix
from heckepieces.hecke import kl_table

B2_GROUP_TEXT = (
    "type: B2\n"
    "rank: 2\n"
    "order: 8\n"
    "longest element: 1212 (length 4)\n"
    "elements by length: 1 2 2 2 1\n"
)

B2_GROUP_CSV = (
    "word,length\n"
    "∅,0\n1,1\n2,1\n12,2\n21,2\n121,3\n212,3\n1212,4\n"
)

B2_KL_TEXT = (
    "type: B2\n"
    "order: 8\n"
    "stored_pairs: 33\n"
    "nontrivial_pairs: 0\n"
    "max_q_degree: 0\n"
)


@pytest.fixture()
def b2_cache(tmp_path):
    path = tmp_path / "b2.klcache"
    assert main(["kl", "--type", "B2", "--cache", str(path)]) == 0
    return path


# -- argument errors -----------------------------------------------------------

@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["group"],                                    # --type is required
    ["group", "--type", "Q9"],
    ["group", "--type", "B0"],
    ["group", "--type", "B12"],                   # rank cap for word output
    ["group", "--type", "B2", "--format", "yaml"],
    ["kl", "--type", "B2", "--pair", "7", "121"],
    ["kl", "--type", "B2", "--pair", "1x", "121"],
    ["kl", "--type", "B2", "--pair", "١", "١٢١"],     # Arabic-Indic digits
    ["kl", "--type", "B2", "--pair", "²", "121"],
    ["pieces", "--type", "B2", "--J", "0", ],
    ["pieces", "--type", "B2", "--J", "1,5"],
    ["pieces", "--type", "B2", "--J", "one"],
    ["pieces", "--type", "B2", "--J", "١"],
    ["pieces", "--type", "B2", "--J", "1,²"],
    ["pieces", "--type", "B2", "--J", "1", "--delta", "swap"],
    ["pieces", "--type", "B2", "--J", "1", "--delta", "perm:/no/such/file"],
    ["group", "--type", "matrix:/no/such/file.json"],
    ["group", "--type", "B٤"],     # Arabic-Indic digit
    ["group", "--type", "B４"],    # fullwidth digit
    ["group", "--type", "B²"],
])
def test_bad_arguments_exit_2(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()  # swallow usage/error text


def test_error_text_goes_to_stderr(capsys):
    assert main(["group", "--type", "Q9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# -- group ---------------------------------------------------------------------

def test_group_text_b2(capsys):
    assert main(["group", "--type", "B2"]) == 0
    assert capsys.readouterr().out == B2_GROUP_TEXT


def test_group_csv_b2(capsys):
    assert main(["group", "--type", "B2", "--format", "csv"]) == 0
    assert capsys.readouterr().out == B2_GROUP_CSV


def test_group_json_b4(capsys):
    assert main(["group", "--type", "B4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "type": "B4",
        "rank": 4,
        "order": 384,
        "longest_word": "1212321234321234",
        "longest_length": 16,
        "length_census": [1, 4, 9, 16, 24, 32, 39, 44, 46, 44, 39, 32,
                          24, 16, 9, 4, 1],
    }
    assert sum(payload["length_census"]) == 384


def test_group_matrix_file(tmp_path, capsys):
    path = tmp_path / "a3.json"
    path.write_text(json.dumps([[1, 3, 2], [3, 1, 3], [2, 3, 1]]))
    assert main(["group", "--type", f"matrix:{path}", "--format",
                 "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 24
    assert payload["longest_length"] == 6


def test_group_matrix_rejects_bad_content(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rows": 3}))
    assert main(["group", "--type", f"matrix:{path}"]) == 2
    path.write_text(json.dumps([[1, 3], [3, 1, 3]]))
    assert main(["group", "--type", f"matrix:{path}"]) == 2
    capsys.readouterr()


def test_matrix_rank_is_checked_before_enumerating(tmp_path, capsys, monkeypatch):
    """A rank-10 matrix (B5 × A1⁵, 122,880 elements) is refused from its
    size alone: words are digit strings, so ranks stop at 9."""
    def enumerate_nothing(spec):
        raise AssertionError("the group was built")

    monkeypatch.setattr(cli, "coxeter_group", enumerate_nothing)
    matrix = [[2] * 10 for _ in range(10)]
    for i, row in enumerate(type_b_matrix(5)):
        matrix[i][:5] = row
    for i in range(10):
        matrix[i][i] = 1
    path = tmp_path / "rank10.json"
    path.write_text(json.dumps(matrix))
    assert main(["group", "--type", f"matrix:{path}"]) == 2
    assert "ranks up to 9" in capsys.readouterr().err


# -- kl ------------------------------------------------------------------------

def test_kl_stats_text(capsys):
    assert main(["kl", "--type", "B2"]) == 0
    assert capsys.readouterr().out == B2_KL_TEXT


def test_kl_stats_json_b3(capsys):
    assert main(["kl", "--type", "B3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "type": "B3",
        "order": 48,
        "stored_pairs": 847,
        "nontrivial_pairs": 106,
        "max_q_degree": 2,
    }


def test_kl_pair_text(capsys):
    assert main(["kl", "--type", "B2", "--pair", "1", "121"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_kl_pair_incomparable(capsys):
    assert main(["kl", "--type", "B2", "--pair", "121", "1"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_kl_pair_json_csv(capsys):
    assert main(["kl", "--type", "B3", "--pair", "2", "12321",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["y"] == "2" and payload["w"] == "12321"
    assert payload["q_coefficients"][0] == 1
    assert main(["kl", "--type", "B2", "--pair", "1", "121",
                 "--format", "csv"]) == 0
    assert capsys.readouterr().out == "y,w,q_coefficients\n1,121,1\n"


# -- kl cache ---------------------------------------------------------------------

def test_cache_is_created_and_reused(b2_cache, capsys):
    text = b2_cache.read_text(encoding="utf-8")
    assert text.startswith("klcache v1 B2\n")
    assert text.endswith("\n")
    assert len(text.splitlines()) == 1 + 33
    before = b2_cache.read_bytes()
    assert main(["kl", "--type", "B2", "--cache", str(b2_cache)]) == 0
    assert capsys.readouterr().out == B2_KL_TEXT
    assert b2_cache.read_bytes() == before  # loading does not rewrite


def kl_entries(table):
    """{(y, w): P_{y,w}} over the comparable pairs of a KL table."""
    return {(y, w): table.get(y, w) for y, w in table.pairs()}


def test_cache_round_trip_is_exact(b2_cache, b2, tmp_path):
    loaded = load_kl_cache(str(b2_cache), b2)
    from heckepieces.hecke import kl_table
    assert kl_entries(loaded) == kl_entries(kl_table(b2))
    again = tmp_path / "again.klcache"
    save_kl_cache(loaded, str(again))
    assert again.read_bytes() == b2_cache.read_bytes()


def reference_save_kl_cache(table, path):
    """The writer that preceded the streamed one: every stored pair as a
    string triple, sorted, and the whole file joined into one string.  An
    oracle for the bytes of ``save_kl_cache``."""
    group = table.group
    records = []
    for y, w in table.pairs():
        p = table.get(y, w)
        coeffs = ",".join(str(p.coeff(e)) for e in range(0, p.max_exp() + 1, 2))
        records.append((group.word_str(w), group.word_str(y), coeffs))
    records.sort()
    lines = [cli._cache_header(group)]
    lines.extend(f"{y}\t{w}\t{coeffs}" for w, y, coeffs in records)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


CACHE_GROUPS = {
    "B2": "B2",
    "B3": "B3",
    "B4": "B4",
    "matrix:H3": [[1, 5, 2], [5, 1, 3], [2, 3, 1]],
    "matrix:D4": [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]],
    "matrix:I2(5)": [[1, 5], [5, 1]],
}


@pytest.mark.parametrize("label", CACHE_GROUPS)
def test_cache_matches_the_sorting_writer_and_round_trips(label, b4_kl, tmp_path):
    spec = CACHE_GROUPS[label]
    table = b4_kl if label == "B4" else kl_table(coxeter_group(spec))
    streamed, joined, again = (tmp_path / name for name in ("s", "j", "a"))
    save_kl_cache(table, str(streamed))
    reference_save_kl_cache(table, str(joined))
    assert streamed.read_bytes() == joined.read_bytes()
    loaded = load_kl_cache(str(streamed), coxeter_group(spec))
    assert kl_entries(loaded) == kl_entries(table)
    save_kl_cache(loaded, str(again))
    assert again.read_bytes() == streamed.read_bytes()


def test_cache_write_is_streamed(b4_kl, tmp_path):
    """Writing the B4 cache allocates less at its peak than the file it
    writes: records go out as the walk yields them."""
    path = tmp_path / "b4.klcache"
    tracemalloc.start()
    try:
        save_kl_cache(b4_kl, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size == 841_525


def test_cache_rejects_wrong_group(b2_cache, capsys):
    assert main(["kl", "--type", "B3", "--cache", str(b2_cache)]) == 2
    assert "bad cache header" in capsys.readouterr().err


def test_matrix_cache_names_its_matrix(tmp_path, capsys):
    a2 = tmp_path / "a2.json"
    a2.write_text("[[1, 3], [3, 1]]", encoding="utf-8")
    i25 = tmp_path / "i25.json"
    i25.write_text("[[1, 5], [5, 1]]", encoding="utf-8")
    cache = tmp_path / "a2.klcache"
    assert main(["kl", "--type", f"matrix:{a2}", "--cache", str(cache)]) == 0
    assert cache.read_text(encoding="utf-8").startswith(
        "klcache v1 matrix [[1,3],[3,1]]\n")
    assert main(["kl", "--type", f"matrix:{a2}", "--cache", str(cache),
                 "--pair", "∅", "121"]) == 0
    capsys.readouterr()
    argv = ["kl", "--type", f"matrix:{i25}", "--pair", "∅", "12121"]
    assert main(argv + ["--cache", str(cache)]) == 2
    assert "bad cache header" in capsys.readouterr().err
    assert main(argv) == 0
    assert capsys.readouterr().out == "1\n"


def _edit_b3_cache(tmp_path, edit):
    """A B3 cache whose record lines went through ``edit``, re-sorted."""
    path = tmp_path / "b3.klcache"
    assert main(["kl", "--type", "B3", "--cache", str(path)]) == 0
    header, *records = path.read_text(encoding="utf-8").splitlines()
    records = sorted(edit(records), key=lambda r: r.split("\t")[1::-1])
    path.write_text("\n".join([header, *records]) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("edit,pair,value,message", [
    (lambda rs: [r for r in rs if r != "12\t2123\t1"], ("12", "2123"), "1\n",
     "missing records"),
    (lambda rs: rs + ["3\t12\t1"], ("3", "12"), "0\n", "not a Bruhat pair"),
], ids=["missing record", "incomparable pair"])
def test_cache_must_hold_exactly_the_bruhat_pairs(tmp_path, capsys, edit, pair, value,
                                                  message):
    path = _edit_b3_cache(tmp_path, edit)
    argv = ["kl", "--type", "B3", "--pair", *pair]
    assert main(argv + ["--cache", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert main(argv) == 0
    assert capsys.readouterr().out == value


@pytest.mark.parametrize("gap_of_target", [1, 2])
def test_cache_checks_each_record_against_its_own_length_gap(tmp_path, capsys,
                                                             gap_of_target):
    """"1,1" is P_{y,w} for pairs with l(w) - l(y) >= 3.  Written on a pair
    of gap 1 or 2 after a valid "1,1" record, it must still be refused: a
    loader that kept each string's verdict instead of its bound would
    accept it."""
    b3 = coxeter_group("B3")
    path = tmp_path / "b3.klcache"
    assert main(["kl", "--type", "B3", "--cache", str(path)]) == 0
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)

    def gap(line):
        y, w, _ = line.split("\t")
        return b3.length(b3.parse_word(w)) - b3.length(b3.parse_word(y))

    first = next(i for i, line in enumerate(lines) if line.endswith("\t1,1\n"))
    target = next(i for i in range(first + 1, len(lines))
                  if gap(lines[i]) == gap_of_target and lines[i].endswith("\t1\n"))
    lines[target] = lines[target][:-2] + "1,1\n"
    path.write_text("".join(lines), encoding="utf-8")
    assert main(["kl", "--type", "B3", "--cache", str(path)]) == 2
    assert f"invariant violation in {lines[target][:-1]!r}" in capsys.readouterr().err


class _DiskFullHandle:
    """A file handle that writes half of what it is given, then fails."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[: len(text) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_cache_write_leaves_no_file(tmp_path, b2, monkeypatch):
    from heckepieces.hecke import kl_table
    table = kl_table(b2)
    good = tmp_path / "good.klcache"
    save_kl_cache(table, str(good))
    before = good.read_bytes()
    monkeypatch.setattr(cli, "open", lambda *a, **k: _DiskFullHandle(open(*a, **k)),
                        raising=False)
    for target in (tmp_path / "new.klcache", good):
        with pytest.raises(cli.CliError, match="cannot write cache"):
            save_kl_cache(table, str(target))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["good.klcache"]
    assert good.read_bytes() == before


def test_cache_write_error_is_deterministic(tmp_path):
    """The same failing ``kl --cache`` in two processes writes the same
    error: the target and the OS reason, not the temporary file, whose
    name holds the process id."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "heckepieces.cli",
            "kl", "--type", "B2", "--cache", str(tmp_path / "missing" / "c")]
    runs = [subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
            for _ in range(2)]
    assert [run.returncode for run in runs] == [2, 2]
    assert runs[0].stderr == runs[1].stderr
    assert runs[0].stderr.startswith("error: cannot write cache ")
    assert ".tmp" not in runs[0].stderr


@pytest.mark.parametrize("mangle,message", [
    (lambda t: t.rstrip("\n"), "truncated"),
    (lambda t: "", "empty"),
    (lambda t: "\n", "bad cache header"),
    (lambda t: t.replace("klcache v1", "klcache v2"), "bad cache header"),
    (lambda t: _swap_records(t), "not sorted"),
    (lambda t: t.replace("∅\t1\t1\n", "∅\t1\t1,1\n"), "invariant violation"),
    (lambda t: t.replace("∅\t∅\t1\n", "∅\t∅\t2\n"), "bad diagonal"),
    (lambda t: t.replace("∅\t1\t1\n", "∅\t1\tx\n"), "bad coefficients"),
    (lambda t: t.replace("∅\t1\t1\n", "∅\t1\t1,0\n"), "trailing zero"),
    (lambda t: t.replace("∅\t1\t1\n", "∅\t1\n"), "malformed record"),
    (lambda t: t.replace("1\t121\t1\n", "11\t121\t1\n"), "non-canonical"),
    (lambda t: t.replace("21\t1212\t1\n", "12\t1212\t1\n"), "not sorted"),
    (lambda t: t.replace("1\t121\t1\n", "3\t121\t1\n"), "bad word"),
])
def test_corrupt_caches_fail_closed(b2_cache, capsys, mangle, message):
    text = b2_cache.read_text(encoding="utf-8")
    mangled = mangle(text)
    assert mangled != text
    b2_cache.write_text(mangled, encoding="utf-8")
    assert main(["kl", "--type", "B2", "--cache", str(b2_cache)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("mangle,message", [
    (lambda t: t[:t.rindex("\n", 0, -1) + 1], "missing records"),
    (lambda t: t + "∅\t∅\t1\n", "follows the last pair"),
    (lambda t: t.replace("B2\n1\t1\t1\n", "B2\n3\t1\t1\n"), "bad word"),
], ids=["last record dropped", "record appended", "bad first word"])
def test_cache_ends_fail_closed(b2_cache, capsys, mangle, message):
    test_corrupt_caches_fail_closed(b2_cache, capsys, mangle, message)


@pytest.mark.parametrize("text", ["01", "+1", " 1"])
def test_cache_refuses_non_canonical_coefficients(b2_cache, capsys, text):
    """``int`` reads each of these as 1, but the writer only writes "1"."""
    test_corrupt_caches_fail_closed(
        b2_cache, capsys, lambda t: t.replace("∅\t1\t1\n", f"∅\t1\t{text}\n"),
        "non-canonical coefficients")


def test_cache_that_is_not_utf8_fails_closed(b2_cache, capsys):
    b2_cache.write_bytes(b2_cache.read_bytes() + b"\xff\n")
    assert main(["kl", "--type", "B2", "--cache", str(b2_cache)]) == 2
    assert "cannot read cache" in capsys.readouterr().err


def _bump_top(text):
    """``1,0,1`` -> ``1,0,2``: a different, well-formed coefficient string."""
    *rest, top = text.split(",")
    return ",".join([*rest, str(int(top) + 1)])


def test_cache_refuses_every_coefficient_edit(b3, tmp_path):
    """Each of B3's 847 records, edited in turn to another well-formed
    polynomial, is refused: by the invariants where they catch it, and as a
    wrong polynomial where they do not (106 of the edits keep them)."""
    source, path = tmp_path / "b3.klcache", tmp_path / "edited.klcache"
    save_kl_cache(kl_table(b3), str(source))
    header, *records = source.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(records) == 847
    for k, record in enumerate(records):
        y, w, text = record[:-1].split("\t")
        edited = f"{y}\t{w}\t{_bump_top(text)}"
        if text != "1":
            expected = "wrong polynomial in"
        else:
            expected = "bad diagonal record" if y == w else "invariant violation in"
        path.write_text("".join([header, *records[:k], edited + "\n", *records[k + 1:]]),
                        encoding="utf-8")
        with pytest.raises(cli.CliError) as refused:
            load_kl_cache(str(path), b3)
        assert str(refused.value) == f"{expected} {edited!r}"


@pytest.mark.parametrize("record,edited", [
    ("1\t12132\t1,1", "1\t12132\t1,2"),
    ("213\t12132123\t1,1", "213\t12132123\t1,0,1"),
])
def test_cache_refuses_a_wrong_polynomial_that_keeps_the_invariants(tmp_path, capsys, record,
                                                                   edited):
    """Both edits keep constant term 1 and the degree bound of their pair."""
    path = _edit_b3_cache(tmp_path, lambda rs: [edited if r == record else r for r in rs])
    assert edited in path.read_text(encoding="utf-8").splitlines()
    capsys.readouterr()
    assert main(["kl", "--type", "B3", "--cache", str(path), "--pair", *edited.split("\t")[:2]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: wrong polynomial in {edited!r}\n"


@pytest.mark.parametrize("mangle,message", [
    (lambda t: t.replace("\n", "\r\n"), "bad cache header 'klcache v1 B2\\r'"),
    (lambda t: t.replace("\n", "\r"), "truncated"),
    (lambda t: t.replace("∅\t1\t1\n", "∅\t1\t1\r\n"), "non-canonical coefficients in '∅\\t1\\t1\\r'"),
], ids=["CRLF", "CR", "one CRLF record"])
def test_cache_with_rewritten_line_endings_fails_closed(b2_cache, capsys, mangle, message):
    """The writer ends every line with a line feed alone; a loader reading
    with universal newlines would take these files for the cache."""
    b2_cache.write_bytes(mangle(b2_cache.read_text(encoding="utf-8")).encode("utf-8"))
    assert main(["kl", "--type", "B2", "--cache", str(b2_cache)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("content,message", [
    (None, "bad cache header 'klcache v1 B2'"),
    ("", "cache is empty"),
    ("klcache v2 B3\n", "bad cache header 'klcache v2 B3'"),
], ids=["B2 cache read as B3", "empty", "v2 header"])
def test_cache_header_is_checked_before_the_table_is_built(b2_cache, capsys, monkeypatch,
                                                           content, message):
    def build_nothing(group):
        raise AssertionError("the KL table was built")

    monkeypatch.setattr(cli, "kl_table", build_nothing)
    if content is not None:
        b2_cache.write_text(content, encoding="utf-8")
    assert main(["kl", "--type", "B3", "--cache", str(b2_cache)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# -- file errors -------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["group", "--type", "B2"],
    ["kl", "--type", "B2"],
    ["pieces", "--type", "B2", "--J", "1"],
    ["example-b4"],
], ids=lambda argv: argv[0])
def test_unwritable_output_exits_2(argv, tmp_path, capsys):
    """An --out path that cannot be opened is bad input (exit 2), not a
    failed check (exit 1) and not a traceback."""
    for out in (tmp_path / "no" / "such" / "dir" / "x", tmp_path):
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write output {out}: ")
        assert captured.out == ""


@pytest.mark.parametrize("argv,message", [
    (["group", "--type", "matrix:{path}"], "cannot read matrix file"),
    (["pieces", "--type", "B2", "--J", "1", "--delta", "perm:{path}"],
     "cannot read permutation file"),
], ids=["matrix", "perm"])
def test_input_file_that_is_not_utf8_exits_2(argv, message, tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"[[1, 3], [3, 1]] \xff\n")
    assert main([arg.format(path=path) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message} {path}: ")


@pytest.mark.parametrize("entry", [3.5, "3", True, None])
def test_matrix_entries_that_are_not_integers_exit_2(entry, tmp_path, capsys):
    """3.5 used to read as 3 (building A2), "3" as 3, true as 1, and null
    raised a TypeError."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[1, entry], [entry, 1]]))
    assert main(["group", "--type", f"matrix:{path}"]) == 2
    assert "Coxeter matrix entries must be integers" in capsys.readouterr().err


def _swap_records(text: str) -> str:
    lines = text.splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    return "\n".join(lines) + "\n"


# -- pieces ----------------------------------------------------------------------

def test_pieces_json_b4(capsys):
    assert main(["pieces", "--type", "B4", "--J", "1,2",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "B4" and payload["J"] == [1, 2]
    assert len(payload["piece_indices"]) == 48
    assert payload["normalizer"] == [
        "∅", "4", "32123", "321234", "432123", "4321234",
        "32123432123", "321234321234",
    ]
    assert len(payload["closure_covers"]) == 116
    first = payload["piece_indices"][0]
    assert first == {
        "word": "∅", "n0": 0, "index_sets": [[1, 2]],
        "coset_minima": ["∅"], "stable_set": [1, 2],
        "stable_minimum": "∅", "dimension": 24,
    }
    by_word = {e["word"]: e for e in payload["piece_indices"]}
    assert by_word["4"]["dimension"] == 25
    assert by_word["32"]["n0"] == 2
    assert by_word["32"]["index_sets"] == [[1, 2], [1], []]
    assert by_word["32"]["coset_minima"] == ["3", "32", "32"]


def test_pieces_json_b5_digest(capsys):
    """The whole B5 pieces payload for J = {2}, closure covers included,
    pinned by digest (1,194,352 bytes)."""
    assert main(["pieces", "--type", "B5", "--J", "2", "--format", "json"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 1_194_352
    assert hashlib.sha256(out).hexdigest() == \
        "a3ccd3160d4bd4602243e7c862185bb1e14a8b1912398d19ccc3dbb4f22ed9fa"


def test_pieces_dot_b4(capsys):
    assert main(["pieces", "--type", "B4", "--J", "1,2",
                 "--format", "dot"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 166  # 48 nodes + 116 edges + braces
    assert lines[0] == "digraph closure {"
    assert lines[-1] == "}"
    assert '  "∅";' in lines
    assert sum(1 for ln in lines if " -> " in ln) == 116


def test_pieces_csv_b2(capsys):
    assert main(["pieces", "--type", "B2", "--J", "1",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "word,n0,stable_set,stable_minimum,dimension"
    assert "∅,0,1,∅,7" in out.splitlines()


def test_pieces_text_b2(capsys):
    assert main(["pieces", "--type", "B2", "--J", "1"]) == 0
    out = capsys.readouterr().out
    assert "piece indices (4):" in out
    assert "normalizer (2): ∅ 212" in out


def test_pieces_delta_perm_file(tmp_path, capsys):
    matrix = tmp_path / "a3.json"
    matrix.write_text(json.dumps([[1, 3, 2], [3, 1, 3], [2, 3, 1]]))
    perm = tmp_path / "swap.json"
    perm.write_text(json.dumps([3, 2, 1]))
    assert main(["pieces", "--type", f"matrix:{matrix}", "--J", "1",
                 "--delta", f"perm:{perm}", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["normalizer"] == ["2132", "12132"]
    # pieces of a non-type-B group carry no dimension field
    assert all("dimension" not in e for e in payload["piece_indices"])


def test_pieces_rejects_invalid_perm(tmp_path, capsys):
    matrix = tmp_path / "a3.json"
    matrix.write_text(json.dumps([[1, 3, 2], [3, 1, 3], [2, 3, 1]]))
    perm = tmp_path / "notauto.json"
    # not a diagram symmetry; true would otherwise read as generator 1
    for images in ([2, 1, 3], [True, 2, 3]):
        perm.write_text(json.dumps(images))
        assert main(["pieces", "--type", f"matrix:{matrix}", "--J", "1",
                     "--delta", f"perm:{perm}"]) == 2
    capsys.readouterr()


# -- determinism ------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["group", "--type", "B3", "--format", "json"],
    ["group", "--type", "B3", "--format", "csv"],
    ["kl", "--type", "B2", "--format", "json"],
    ["pieces", "--type", "B4", "--J", "1,2", "--format", "json"],
    ["pieces", "--type", "B4", "--J", "1,2", "--format", "dot"],
])
def test_output_is_byte_identical(argv, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes()  # nonempty


# -- example-b4 -------------------------------------------------------------------

def test_example_b4_json(capsys):
    assert main(["example-b4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["all_pass"] is True
    assert [c["name"] for c in payload["checks"]] == [
        "group facts", "restriction tables", "transition patterns",
        "scalars and conjectures",
    ]
    assert all(c["passed"] for c in payload["checks"])
    report = payload["report"]
    assert report["all_pass"] is True
    assert len(report["pairs"]) == 64
    assert report["checks"] == {
        "all_unique": True,
        "cuspidal_pattern": True,
        "block_nondegenerate": True,
        "canonical_basis_match": True,
    }
    assert report["weights"] == {"1": 0, "e": 1, "f": 3, "fe": 4,
                                 "ef": 4, "efe": 5, "fef": 7, "efef": 8}


@pytest.mark.parametrize("argv, digest", [
    ([], "fc6308e25764cacd48cf6cb40b7d20654c445acb6e8f8e936d72195474e0e240"),
    (["--format", "json"], "15133641529513e3b880d2576c900a4f0987fb0bab131229c34744df76076254"),
])
def test_example_b4_digest(argv, digest, capsys):
    """The whole example-b4 output, text and JSON, pinned by digest."""
    assert main(["example-b4", *argv]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def test_example_b4_text_to_file(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["example-b4", "--out", str(out)]) == 0
    echoed = capsys.readouterr().out
    assert "all checks pass" in echoed          # verdict still on stdout
    text = out.read_text(encoding="utf-8")
    assert "PASS group facts" in text
    assert "PASS restriction tables" in text
    assert "PASS transition patterns" in text
    assert "PASS scalars and conjectures" in text
    assert text.rstrip().endswith("all checks pass")
    assert "FAIL" not in text


def test_example_b4_takes_no_cache(tmp_path, capsys):
    """``kl --type B4 --cache F`` is the one cache command; example-b4
    refuses the option and creates no file."""
    path = tmp_path / "b4.klcache"
    assert main(["example-b4", "--cache", str(path)]) == 2
    assert "unrecognized arguments: --cache" in capsys.readouterr().err
    assert not path.exists()


# -- help pages ------------------------------------------------------------------

@pytest.mark.parametrize("command, formats", [
    ("group", "{text,json,csv}"),
    ("kl", "{text,json,csv}"),
    ("pieces", "{text,json,csv,dot}"),
    ("example-b4", "{text,json}"),
])
def test_help_lists_the_shared_options(command, formats, capsys, monkeypatch):
    """Every subcommand's --help shows --format with its choices and --out
    with its help; all but example-b4 show --type with its help."""
    monkeypatch.setenv("COLUMNS", "200")  # one option per line, unwrapped
    assert main([command, "--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.split() == ["--format", formats] for line in lines)
    assert any(line.split() == ["--out", "OUT", "write", "output", "here"] for line in lines)
    typed = [line for line in lines if line.split()[:2] == ["--type", "TYPE"]]
    if command == "example-b4":
        assert not any("--type" in line for line in lines)
    else:
        assert [line.split(None, 2)[2] for line in typed] == [
            "B<rank> or matrix:FILE (JSON Coxeter matrix)"]
