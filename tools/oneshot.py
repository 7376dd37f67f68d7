#!/usr/bin/env python3
"""One-shot timings of the Bruhat-order and Kazhdan-Lusztig layers, side by
side for several checkouts, written to one JSON file.

    python3 tools/oneshot.py --side parent=../parent --side change=. --out BENCH_<n>.json

Each ``--side NAME=DIR`` names a checkout whose ``src/`` holds the package.
Every row runs once per side, each run in a fresh interpreter with that
``src/`` first on ``sys.path``, and reports its wall time and the peak RSS
of its own process (``resource.getrusage``, ``ru_maxrss``).  Sides take
turns going first, row by row.  The rows:

- ``masks_B5``, ``masks_B6``: every ``bruhat_mask`` of a freshly built group
  (the group build is not timed); ``pairs`` is the total of their bits.
- ``closure_hasse_B5_J2``: ``closure_hasse`` on a fresh B5 with J = {2}.
- ``pieces_B5_J2``: ``pieces --type B5 --J 2 --format json`` through
  ``cli.main``, the import of the CLI included; ``sha256`` is its output's.
- ``sequences_B5_J2``: ``bedard_sequence`` and then ``bedard_inverse`` of
  its steps for every piece index of a fresh B5 with J = {2}, the indices
  listed before the timer starts; ``indices`` is their number.
- ``covers_B5``, ``covers_B6``: the coatom table of a fresh group and its
  total.
- ``kl_table_B5``: ``kl_table`` on a fresh B5 whose masks are built before
  the timer starts; ``pool`` is the number of distinct polynomials and
  ``extremal`` the table's count of pairs that ran the recursion.
- ``kl_cache_B5``: ``save_kl_cache`` of that table and then
  ``load_kl_cache`` of the file, in a temporary directory; ``save_s`` and
  ``load_s`` time each, ``wall_s`` is their sum, and ``sha256`` is the
  file's.
- ``canonical_basis_B5``: ``canonical_basis`` with ``validate=False`` of the
  weighted algebra of a fresh B5 with L = (2, 1, 1, 1, 1), its masks built
  before the timer starts; ``coefficients`` is the number of nonzero
  p(t, z), the top terms included.
- ``example_b4``: ``example-b4 --format json`` through ``cli.main``, the
  import of the CLI and the B4 KL table included; ``sha256`` is its
  output's.

The file also records each side's git revision (with a flag for
uncommitted changes), the Python version and ``nproc``.  Standard library
only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def _masks(rank: int) -> tuple[float, dict]:
    from heckepieces.coxeter import coxeter_group
    group = coxeter_group(f"B{rank}")
    start = time.perf_counter()
    masks = [group.bruhat_mask(w) for w in group.elements()]
    wall = time.perf_counter() - start
    return wall, {"pairs": sum(m.bit_count() for m in masks)}


def _closure() -> tuple[float, dict]:
    from heckepieces.coxeter import coxeter_group
    from heckepieces.pieces import closure_hasse
    group = coxeter_group("B5")
    start = time.perf_counter()
    covers = closure_hasse(group, {2}, group.automorphism())
    return time.perf_counter() - start, {"covers": len(covers)}


def _cli(*argv: str) -> tuple[float, dict]:
    """``cli.main(argv)`` in this interpreter, the CLI import included."""
    out = io.StringIO()
    start = time.perf_counter()
    from heckepieces.cli import main
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    wall = time.perf_counter() - start
    text = out.getvalue().encode()
    return wall, {"exit": code, "bytes": len(text), "sha256": hashlib.sha256(text).hexdigest()}


def _sequences() -> tuple[float, dict]:
    from heckepieces.coxeter import coxeter_group
    from heckepieces.pieces import bedard_inverse, bedard_sequence, piece_indices
    group = coxeter_group("B5")
    delta = group.automorphism()
    indices = piece_indices(group, {2}, delta)
    start = time.perf_counter()
    for w in indices:
        if bedard_inverse(group, {2}, delta, bedard_sequence(group, {2}, delta, w).steps) != w:
            raise AssertionError(f"bedard_inverse does not invert the sequence of {w}")
    return time.perf_counter() - start, {"indices": len(indices)}


def _covers(rank: int) -> tuple[float, dict]:
    from heckepieces.coxeter import coxeter_group
    group = coxeter_group(f"B{rank}")
    start = time.perf_counter()
    coatoms = group._coatoms()
    return time.perf_counter() - start, {"covers": sum(map(len, coatoms))}


def _b5_with_masks():
    """A fresh B5 with every Bruhat mask built."""
    from heckepieces.coxeter import coxeter_group
    group = coxeter_group("B5")
    for w in group.elements():
        group.bruhat_mask(w)
    return group


def _b5_table() -> tuple[float, object]:
    """A fresh B5's KL table, its masks built before the timer starts."""
    from heckepieces.hecke import kl_table
    group = _b5_with_masks()
    start = time.perf_counter()
    table = kl_table(group)
    return time.perf_counter() - start, table


def _kl_table() -> tuple[float, dict]:
    wall, table = _b5_table()
    return wall, {"pool": len(table.pool), "extremal": table.extremal}


def _kl_cache() -> tuple[float, dict]:
    from heckepieces.cli import load_kl_cache, save_kl_cache
    _, table = _b5_table()
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "B5.klcache")
        start = time.perf_counter()
        save_kl_cache(table, path)
        saved = time.perf_counter()
        load_kl_cache(path, table.group)
        loaded = time.perf_counter()
        with open(path, "rb") as handle:  # in chunks: the B5 file is about 95 MB
            digest = hashlib.file_digest(handle, "sha256").hexdigest()
        size = os.path.getsize(path)
    return loaded - start, {"save_s": round(saved - start, 4), "load_s": round(loaded - saved, 4),
                            "bytes": size, "sha256": digest}


def _canonical_basis() -> tuple[float, dict]:
    from heckepieces.hecke import HeckeAlgebra, WeightFunction, canonical_basis
    group = _b5_with_masks()
    weight = WeightFunction(group, {1: 2, 2: 1, 3: 1, 4: 1, 5: 1})
    algebra = HeckeAlgebra(group, "weighted", weight)
    start = time.perf_counter()
    basis = canonical_basis(algebra, validate=False)
    wall = time.perf_counter() - start
    return wall, {"coefficients": sum(len(c.terms) for c in basis.vectors.values())}


ROWS = {  # row name -> its run, in the order the rows are written
    "masks_B5": lambda: _masks(5),
    "masks_B6": lambda: _masks(6),
    "closure_hasse_B5_J2": _closure,
    "pieces_B5_J2": lambda: _cli("pieces", "--type", "B5", "--J", "2", "--format", "json"),
    "sequences_B5_J2": _sequences,
    "covers_B5": lambda: _covers(5),
    "covers_B6": lambda: _covers(6),
    "kl_table_B5": _kl_table,
    "kl_cache_B5": _kl_cache,
    "canonical_basis_B5": _canonical_basis,
    "example_b4": lambda: _cli("example-b4", "--format", "json"),
}


def run_row(row: str) -> dict:
    """Run one row in this interpreter and return its result."""
    wall, extra = ROWS[row]()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return {"wall_s": round(wall, 4), "peak_rss_mib": round(peak, 1), **extra}


def revision(root: Path) -> dict:
    """The checkout's commit and whether it has uncommitted changes."""
    def git(*args: str) -> str:
        done = subprocess.run(["git", "-C", str(root), *args],
                              capture_output=True, text=True, check=False)
        return done.stdout.strip() if done.returncode == 0 else ""
    return {"commit": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def main() -> int:
    if sys.argv[1:2] == ["--worker"]:  # one row, in a fresh interpreter
        print(json.dumps(run_row(sys.argv[2])))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", action="append", default=[], metavar="NAME=DIR",
                        help="a checkout to time; give it once per side")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = parser.parse_args()

    sides = {}
    for spec in args.side:
        name, sep, directory = spec.partition("=")
        root = Path(directory).resolve()
        if not sep or not (root / "src" / "heckepieces").is_dir():
            parser.error(f"--side {spec!r}: expected NAME=DIR with DIR/src/heckepieces")
        sides[name] = root
    if not sides:
        parser.error("give at least one --side")

    results = []
    for i, row in enumerate(ROWS):
        order = list(sides.items())
        if i % 2:
            order.reverse()
        for name, root in order:
            env = dict(os.environ, PYTHONPATH=str(root / "src"))
            done = subprocess.run([sys.executable, __file__, "--worker", row],
                                  env=env, capture_output=True, text=True, check=True)
            result = {"row": row, "side": name, **json.loads(done.stdout)}
            print(json.dumps(result), file=sys.stderr)
            results.append(result)

    report = {
        "tool": "tools/oneshot.py",
        "sides": {name: revision(root) for name, root in sides.items()},
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "rows": results,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
