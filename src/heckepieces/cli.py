"""Command-line driver: group facts, cached Kazhdan-Lusztig tables, piece
data, and the worked rank-4 example as a regression gate.

Subcommands
-----------

``group``
    Order, rank and element census of a Coxeter group.
``kl``
    Build (or load from a cache file) the full Kazhdan-Lusztig table and
    print statistics or a single polynomial.
``pieces``
    Piece indices, the twisted normalizer, the index sequences and the
    closure order, as text, JSON, CSV or a DOT digraph.
``example-b4``
    Run every frozen check of the rank-4 example; exit 0 only if all of
    them pass.

Exit codes: 0 success, 1 a check failed, 2 bad arguments, unreadable or
unwritable files, or corrupt input.  All output is deterministic: identical
invocations produce byte-identical bytes.

Cache format
------------

A Kazhdan-Lusztig cache is a UTF-8 text file.  The first line is
``klcache v1 <type_tag>``, followed for ``matrix`` groups by the Coxeter
matrix as JSON without spaces (``klcache v1 matrix [[1,3],[3,1]]``); every
further line is one stored polynomial::

    <y-word> TAB <w-word> TAB <comma-separated q-coefficients>

with coefficients ascending from the constant term and no trailing
zeros: one record per Bruhat pair y <= w, sorted by (w-word, y-word), and
every line ends in a line feed alone.  One renderer spells this text, a
header line and then one block of records per w.  The writer streams its
blocks to a temporary file renamed over the target, so an interrupted
write leaves no partial file.  The loader checks the header, rebuilds the
table with ``kl_table`` and compares the file with the same blocks,
refusing any difference with the first check the differing line fails.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from typing import Iterator, NoReturn

from .b4_example import run_example
from .charsheaf_b4 import report_as_dict, report_text
from .coxeter import CoxeterGroup, DiagramAutomorphism, coxeter_group, mask_bits
from .laurent import Laurent, ONE, ZERO
from .hecke import KLTable, kl_table
from .pieces import (
    bedard_sequence,
    closure_hasse,
    piece_dimension,
    piece_indices,
    twisted_normalizer,
)

CACHE_MAGIC = "klcache"
CACHE_VERSION = "v1"


class CliError(Exception):
    """Bad arguments, unreadable files, or corrupt cache content."""


# --------------------------------------------------------------------------
# Kazhdan-Lusztig cache
# --------------------------------------------------------------------------

def _q_coefficients(p: Laurent) -> list[int]:
    """Coefficients of a polynomial in q = v^2, ascending from q^0."""
    if p == ZERO:
        return [0]
    coeffs = [p.coeff(e) for e in range(p.max_exp() + 1)]
    if p.min_exp() < 0 or any(coeffs[1::2]):
        raise CliError("polynomial is not a polynomial in q = v^2")
    return coeffs[::2]


def _coefficient_text(coeffs: list[int]) -> str:
    """``1,0,2``: the one spelling of a coefficient list that caches and
    CSV output use, and the only one the cache loader accepts.

    >>> _coefficient_text([1, 0, 2])
    '1,0,2'
    """
    return ",".join(map(str, coeffs))


def _cache_header(group: CoxeterGroup) -> str:
    """``klcache v1 <type_tag>``; a ``matrix`` tag says nothing about the
    group, so the Coxeter matrix follows it as compact JSON.

    >>> _cache_header(coxeter_group("B2"))
    'klcache v1 B2'
    >>> _cache_header(coxeter_group([[1, 4], [4, 1]]))
    'klcache v1 matrix [[1,4],[4,1]]'
    """
    header = f"{CACHE_MAGIC} {CACHE_VERSION} {group.type_tag}"
    if group.type_tag == "matrix":
        header += " " + json.dumps(group.matrix, separators=(",", ":"))
    return header


def _cache_blocks(table: KLTable) -> Iterator[str]:
    """The text of ``table``'s cache: the header line, then one block of
    records per w by w-word, each block's records by y-word.  The one place
    that spells the record format and decides its order; each pool
    polynomial is rendered once and each record picks its text by pool
    index.  Each block's records are sorted as text, which is y-word order:
    they differ first in their distinct y-words, and the tab after a word
    sorts below every character a word holds (the digits 1-9 and "∅")."""
    group = table.group
    words = group._word_strs()
    texts = [_coefficient_text(_q_coefficients(p)) for p in table.pool]
    yield _cache_header(group) + "\n"
    for w in sorted(group.elements(), key=words.__getitem__):
        tail = f"\t{words[w]}\t"
        yield "".join(sorted([f"{words[y]}{tail}{texts[i]}\n" for y, i in
                              zip(mask_bits(group.bruhat_mask(w)), table.columns[w])]))


def save_kl_cache(table: KLTable, path: str) -> None:
    """Stream every P_{y,w} with y <= w, one column block at a time, to a
    temporary file beside ``path``, then move it into place, so a failed
    write never leaves a partial cache behind."""
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8", newline="\n") as handle:
            for block in _cache_blocks(table):
                handle.write(block)
        os.replace(temporary, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(temporary)
        if isinstance(exc, OSError):
            # the OS reason alone: the exception's text names the temporary
            # file, whose pid would make the error differ from run to run
            raise CliError(f"cannot write cache {path}: {exc.strerror or exc}") from exc
        raise


def _refuse_cache(handle: io.TextIOBase, group: CoxeterGroup, table: KLTable | None) -> NoReturn:
    """Raise at the first line of the open cache ``handle`` that differs
    from the text ``_cache_blocks(table)`` renders, naming the first check
    the line fails; ``table`` may be None only if the header is wrong.  A
    record that passes every check holds a wrong polynomial."""
    def read() -> str | None:  # the next line without its newline; None at the end
        line = handle.readline()
        if line and line[-1] != "\n":
            raise CliError("cache is truncated (missing final newline)")
        return line[:-1] if line else None

    handle.seek(0)
    header = read()
    if header is None:
        raise CliError("cache is empty")
    if header != _cache_header(group):
        raise CliError(f"bad cache header {header!r}")
    blocks = _cache_blocks(table)
    next(blocks)  # the header line
    before = None  # the last record read
    for want in (record for block in blocks for record in block[:-1].split("\n")):
        line = read()
        if line == want:
            before = want
            continue
        y_word, w_word, _ = want.split("\t")
        missing = CliError(f"missing records: none for y = {y_word} <= w = {w_word}")
        if line is None:
            raise missing
        fields = line.split("\t")
        if len(fields) != 3:
            raise CliError(f"malformed record {line!r}")
        y, w, text = fields
        if (y, w) != (y_word, w_word):
            after = read()
            if before is not None and [w, y] <= before.split("\t")[1::-1]:
                raise CliError("cache records are not sorted")
            for word in (y, w):
                try:
                    canonical = group.word_str(group.parse_word(word)) == word
                except ValueError as exc:
                    raise CliError(f"bad word {word!r} in cache") from exc
                if not canonical:
                    raise CliError(f"non-canonical word {word!r} in cache")
            if not group.bruhat_leq(group.parse_word(y), group.parse_word(w)):
                raise CliError(f"record ({y}, {w}) is not a Bruhat pair y <= w")
            if after is not None and after.split("\t")[1::-1] < [w, y]:
                raise CliError("cache records are not sorted")
            raise missing
        try:
            coeffs = [int(c) for c in text.split(",")]
        except ValueError as exc:
            raise CliError(f"bad coefficients in {line!r}") from exc
        if len(coeffs) > 1 and coeffs[-1] == 0:
            raise CliError(f"trailing zero coefficient in {line!r}")
        if _coefficient_text(coeffs) != text:  # "01", "+1", " 1"
            raise CliError(f"non-canonical coefficients in {line!r}")
        if y == w:
            if coeffs != [1]:
                raise CliError(f"bad diagonal record {line!r}")
        elif coeffs[0] != 1 or (group.length(group.parse_word(w))
                                - group.length(group.parse_word(y)) < 2 * len(coeffs) - 1):
            # P_{y,w} has constant term 1 and degree below (l(w) - l(y)) / 2 in q
            raise CliError(f"invariant violation in {line!r}")
        raise CliError(f"wrong polynomial in {line!r}")
    raise CliError(f"record {read()!r} follows the last pair")


def load_kl_cache(path: str, group: CoxeterGroup) -> KLTable:
    """Load a cache written by ``save_kl_cache``, failing closed: the
    header must name this group, and the rest of the file must be exactly
    the text the writer renders for ``kl_table(group)``.

    The header is checked before the table is built, so a cache for
    another group is refused at once.  The loader then builds the table and
    compares the file with the writer's blocks; only on a mismatch does it
    walk the lines again to say which record is wrong and why.  A load is
    therefore a build plus a compare, never faster than ``kl_table``."""
    try:
        with open(path, "r", encoding="utf-8", newline="\n") as handle:
            if handle.readline() != _cache_header(group) + "\n":
                _refuse_cache(handle, group, None)
            table = kl_table(group)
            handle.seek(0)
            if (not all(handle.read(len(block)) == block for block in _cache_blocks(table))
                    or handle.read(1)):
                _refuse_cache(handle, group, table)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read cache {path}: {exc}") from exc
    return table


# --------------------------------------------------------------------------
# argument handling
# --------------------------------------------------------------------------

def _read_json(path: str, what: str):
    """The JSON value in the UTF-8 file ``path``; ``what`` names the file in errors."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {what} file {path}: {exc}") from exc


def _make_group(type_spec: str) -> CoxeterGroup:
    if type_spec.startswith("matrix:"):
        spec = _read_json(type_spec[len("matrix:"):], "matrix")
        if not isinstance(spec, list) or not all(isinstance(row, list) for row in spec):
            raise CliError("matrix file must hold a JSON array of arrays")
        if len(spec) > 9:
            raise CliError("word serialization supports ranks up to 9")
    else:
        spec = type_spec
    try:
        return coxeter_group(spec)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _parse_J(text: str, group: CoxeterGroup) -> frozenset:
    parts = [part.strip() for part in text.split(",")]
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise CliError(f"bad index set {text!r}")
    indices = frozenset(map(int, parts))
    if not indices or not all(1 <= i <= group.rank for i in indices):
        raise CliError(f"index set {text!r} out of range")
    return indices


def _parse_delta(text: str, group: CoxeterGroup) -> DiagramAutomorphism:
    if text == "id":
        return group.automorphism()
    if not text.startswith("perm:"):
        raise CliError("--delta must be 'id' or 'perm:FILE'")
    images = _read_json(text[len("perm:"):], "permutation")
    if not isinstance(images, list) or len(images) != group.rank:
        raise CliError("permutation file must hold a JSON array of "
                       f"{group.rank} generator indices")
    try:
        return group.automorphism(
            {i + 1: image for i, image in enumerate(images)})
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise CliError(f"cannot write output {out}: {exc}") from exc


def _as_json(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=True) + "\n"


def _as_csv(rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_group(args: argparse.Namespace) -> int:
    group = _make_group(args.type)
    elements = group.elements()
    longest = elements[-1]
    census = [group._length.count(k) for k in range(group.length(longest) + 1)]
    if args.format == "json":
        payload = {
            "type": group.type_tag,
            "rank": group.rank,
            "order": len(elements),
            "longest_word": group.word_str(longest),
            "longest_length": group.length(longest),
            "length_census": census,
        }
        _emit(_as_json(payload), args.out)
    elif args.format == "csv":
        rows = [["word", "length"]]
        rows.extend([group.word_str(w), group.length(w)] for w in elements)
        _emit(_as_csv(rows), args.out)
    else:
        lines = [
            f"type: {group.type_tag}",
            f"rank: {group.rank}",
            f"order: {len(elements)}",
            f"longest element: {group.word_str(longest)} "
            f"(length {group.length(longest)})",
            "elements by length: " + " ".join(map(str, census)),
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _kl_stats(table: KLTable) -> dict:
    """Counts read from the pool indices: every pool entry is stored at
    some pair, and ONE is in the pool at most once."""
    group = table.group
    ones = [i for i, p in enumerate(table.pool) if p == ONE]
    stored = sum(map(len, table.columns))
    trivial = sum(column.count(i) for column in table.columns for i in ones)
    return {
        "type": group.type_tag,
        "order": len(group.elements()),
        "stored_pairs": stored,
        "nontrivial_pairs": stored - trivial,
        "max_q_degree": max((p.max_exp() // 2 for p in table.pool if p != ONE), default=0),
    }


def _cmd_kl(args: argparse.Namespace) -> int:
    group = _make_group(args.type)
    if args.cache is not None and os.path.isfile(args.cache):
        table = load_kl_cache(args.cache, group)
    else:
        table = kl_table(group)
        if args.cache is not None:
            save_kl_cache(table, args.cache)
    if args.pair is not None:
        try:
            y, w = (group.parse_word(word) for word in args.pair)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        p = table.get(y, w)
        if args.format == "json":
            payload = {
                "y": group.word_str(y),
                "w": group.word_str(w),
                "q_coefficients": _q_coefficients(p),
                "text": p.text(),
            }
            _emit(_as_json(payload), args.out)
        elif args.format == "csv":
            rows = [["y", "w", "q_coefficients"],
                    [group.word_str(y), group.word_str(w),
                     _coefficient_text(_q_coefficients(p))]]
            _emit(_as_csv(rows), args.out)
        else:
            _emit(p.text() + "\n", args.out)
        return 0
    stats = _kl_stats(table)
    if args.format == "json":
        _emit(_as_json(stats), args.out)
    elif args.format == "csv":
        rows = [["statistic", "value"]]
        rows.extend([k, v] for k, v in stats.items())
        _emit(_as_csv(rows), args.out)
    else:
        _emit("".join(f"{k}: {v}\n" for k, v in stats.items()), args.out)
    return 0


def _piece_payload(group: CoxeterGroup, J: frozenset,
                   delta: DiagramAutomorphism) -> dict:
    indices = piece_indices(group, J, delta)
    normalizer = twisted_normalizer(group, J, delta)
    dims_available = group.type_tag.startswith("B")
    words = group._word_strs()  # every element below is from the group's tables
    entries = []
    for w in indices:
        data = bedard_sequence(group, J, delta, w)
        entry = {
            "word": words[w],
            "n0": data.n0,
            "index_sets": [sorted(Jn) for Jn, _ in data.steps],
            "coset_minima": [words[wn] for _, wn in data.steps],
            "stable_set": sorted(data.J_infinity),
            "stable_minimum": words[data.w_infinity],
        }
        if dims_available:
            entry["dimension"] = piece_dimension(group, J, w, delta)
        entries.append(entry)
    hasse = [[words[a], words[b]] for a, b in closure_hasse(group, J, delta)]
    return {
        "type": group.type_tag,
        "J": sorted(J),
        "piece_indices": entries,
        "normalizer": [words[w] for w in normalizer],
        "closure_covers": hasse,
    }


def _cmd_pieces(args: argparse.Namespace) -> int:
    group = _make_group(args.type)
    J = _parse_J(args.J, group)
    delta = _parse_delta(args.delta, group)
    payload = _piece_payload(group, J, delta)
    if args.format == "json":
        _emit(_as_json(payload), args.out)
    elif args.format == "csv":
        rows = [["word", "n0", "stable_set", "stable_minimum", "dimension"]]
        for entry in payload["piece_indices"]:
            rows.append([
                entry["word"], entry["n0"],
                " ".join(str(i) for i in entry["stable_set"]),
                entry["stable_minimum"], entry.get("dimension", ""),
            ])
        _emit(_as_csv(rows), args.out)
    elif args.format == "dot":
        lines = ["digraph closure {"]
        for entry in payload["piece_indices"]:
            lines.append(f'  "{entry["word"]}";')
        for a, b in payload["closure_covers"]:
            lines.append(f'  "{a}" -> "{b}";')
        lines.append("}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"type: {payload['type']}",
                 f"J: {' '.join(str(i) for i in payload['J'])}",
                 f"piece indices ({len(payload['piece_indices'])}):"]
        for entry in payload["piece_indices"]:
            dim = (f"  dim {entry['dimension']}"
                   if "dimension" in entry else "")
            lines.append(
                f"  {entry['word']:<14} n0 {entry['n0']}  stable set "
                f"{{{' '.join(str(i) for i in entry['stable_set'])}}}"
                f"{dim}")
        lines.append(f"normalizer ({len(payload['normalizer'])}): "
                     + " ".join(payload["normalizer"]))
        lines.append(f"closure covers ({len(payload['closure_covers'])}):")
        for a, b in payload["closure_covers"]:
            lines.append(f"  {a} -> {b}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_example_b4(args: argparse.Namespace) -> int:
    outcome = run_example()
    ctx = outcome.context
    check_lines = [
        f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.summary}"
        for c in outcome.checks
    ]
    for check in outcome.checks:
        check_lines.extend(f"     {f}" for f in check.failures)
    verdict = "all checks pass" if outcome.all_pass else "CHECKS FAILED"
    if args.format == "json":
        payload = {
            "schema": 1,
            "checks": [
                {"name": c.name, "passed": c.passed, "summary": c.summary,
                 "failures": list(c.failures)}
                for c in outcome.checks
            ],
            "report": report_as_dict(ctx, outcome.report),
            "all_pass": outcome.all_pass,
        }
        _emit(_as_json(payload), args.out)
    else:
        body = (report_text(ctx, outcome.report) + "\n"
                + "\n".join(check_lines) + f"\n{verdict}\n")
        _emit(body, args.out)
    if args.out is not None:
        sys.stdout.write("\n".join(check_lines) + f"\n{verdict}\n")
    return 0 if outcome.all_pass else 1


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckepieces",
        description="Exact Coxeter/Hecke-algebra combinatorics: pieces, "
                    "Kazhdan-Lusztig tables, and the rank-4 example gate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, formats=("text", "json", "csv"), typed=True):
        """A subcommand with the options every subcommand shares."""
        p = sub.add_parser(name, help=summary)
        if typed:
            p.add_argument("--type", required=True,
                           help="B<rank> or matrix:FILE (JSON Coxeter matrix)")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", default=None, help="write output here")
        p.set_defaults(func=func)
        return p

    command("group", _cmd_group, "order and element census")
    p_kl = command("kl", _cmd_kl, "Kazhdan-Lusztig table")
    p_kl.add_argument("--cache", default=None,
                      help="cache file: loaded if present, created if not")
    p_kl.add_argument("--pair", nargs=2, metavar=("Y", "W"), default=None,
                      help="print the single polynomial for words Y, W")
    p_pieces = command("pieces", _cmd_pieces, "piece indices, normalizer, closure order",
                       formats=("text", "json", "csv", "dot"))
    p_pieces.add_argument("--J", required=True,
                          help="comma-separated generator indices")
    p_pieces.add_argument("--delta", default="id",
                          help="'id' or perm:FILE (JSON list of images)")
    command("example-b4", _cmd_example_b4, "run all frozen checks of the rank-4 example",
            formats=("text", "json"), typed=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
