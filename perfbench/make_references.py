"""Write ``references.json``: the digests the benchmark's checks compare with.

    PYTHONPATH=src python3 perfbench/make_references.py

Every digest is of an output that no seed changes, for every input some seed
can draw.  Cache bytes, the ``example-b4`` report and the pieces payloads are
taken from the CLI's own output; KL multisets, inverse KL tables and
canonical bases from the library.  The signed and matrix backends must give
the same KL multiset, or this script stops.

The committed file was written from the commit that introduced the
benchmark.  A later change must not regenerate it to make its own output
pass: a changed reference is a changed answer.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from heckepieces.cli import main as cli_main  # noqa: E402
from heckepieces.coxeter import coxeter_group  # noqa: E402
from heckepieces.hecke import (  # noqa: E402
    HeckeAlgebra,
    WeightFunction,
    canonical_basis,
    inverse_kl,
    kl_table,
)

from workloads import (  # noqa: E402
    MATRICES,
    WORKLOADS,
    canonical_basis_rows,
    digest,
    group_of,
    inverse_kl_rows,
    kl_multiset,
    short_name,
)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli(*argv: str) -> None:
    code = cli_main(list(argv))
    if code != 0:
        raise SystemExit(f"heckepieces {' '.join(argv)} exited with {code}")


def cli_type(label: str, scratch: Path) -> str:
    if not label.startswith("matrix:"):
        return label
    path = scratch / f"{short_name(label)}.json"
    path.write_text(json.dumps(MATRICES[short_name(label)]))
    return f"matrix:{path}"


def main() -> None:
    scratch = HERE.parent / ".perfbench_work" / "references"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        refs = compute(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another run's files are still there
            pass
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def compute(scratch: Path) -> dict[str, str]:
    refs: dict[str, str] = {}
    for smoke in (False, True):
        keys = set()
        for cls in WORKLOADS.values():
            keys |= cls(0, smoke, scratch, {}).reference_keys()

        for key in sorted(k for k in keys if k.startswith("kl.multiset.")):
            name = key[len("kl.multiset."):]
            labels = [f"matrix:{name}"] if name in MATRICES else []
            if name.startswith("B"):
                labels.append(name)
            found = {digest(kl_multiset(kl_table(group_of(label)))) for label in labels}
            if len(found) != 1:
                raise SystemExit(f"{name}: signed and matrix backends disagree")
            refs[key] = found.pop()

        for key in sorted(k for k in keys if k.startswith("kl.cache.")):
            path = scratch / "cache.klcache"
            path.unlink(missing_ok=True)
            cli("kl", "--type", key[len("kl.cache."):], "--cache", str(path))
            refs[key] = sha256_file(path)

        for key in sorted(k for k in keys if k.startswith("inverse_kl.")):
            _, label, J = key.split(".")
            group = coxeter_group(label)
            subset = [int(i) for i in J[len("J="):].split(",")]
            ikl = inverse_kl(kl_table(group), group.parabolic_elements(subset))
            refs[key] = digest(inverse_kl_rows(group, ikl))

        if "example_b4.json" in keys:
            path = scratch / "example.json"
            cli("example-b4", "--format", "json", "--out", str(path))
            refs["example_b4.json"] = sha256_file(path)

        pieces = WORKLOADS["pieces"](0, smoke, scratch, {})
        for label, J, delta in pieces.specs(None):
            argv = ["pieces", "--type", cli_type(label, scratch),
                    "--J", ",".join(map(str, sorted(J))), "--format", "json"]
            if delta is not None:
                perm = scratch / "delta.json"
                perm.write_text(json.dumps([delta[i] for i in sorted(delta)]))
                argv += ["--delta", f"perm:{perm}"]
            path = scratch / "pieces.json"
            cli(*argv, "--out", str(path))
            refs[pieces.reference_key(label, J, delta)] = sha256_file(path)

        hecke = WORKLOADS["hecke-weighted"](0, smoke, scratch, {})
        for label in (hecke.validated_label, hecke.unvalidated_label):
            group = coxeter_group(label)
            for a, b in hecke.weights():
                key = hecke.reference_key(label, (a, b))
                if key in refs:
                    continue
                values = {i: a if i == 1 else b for i in group.generators()}
                algebra = HeckeAlgebra(group, "weighted", WeightFunction(group, values))
                basis = canonical_basis(algebra, validate=label != "B4")
                refs[key] = digest(canonical_basis_rows(basis))

        missing = keys - set(refs)
        if missing:
            raise SystemExit(f"no reference computed for {sorted(missing)}")
        print(f"{'smoke' if smoke else 'full'}: {len(keys)} references", file=sys.stderr)
    return refs


if __name__ == "__main__":
    main()
