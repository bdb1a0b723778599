"""Output checks for every benchmark operation.

The references are never the code under test: ``golden.json`` holds the
published tables and the sha256 of every file that ``report`` and the
single-stage subcommands emitted on the bundled corpus when the benchmark
was defined.
Each check returns the names of the checks that failed; an empty list
means the operation's output is correct.
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().with_name("golden.json")
UNHASHED = frozenset({"run_manifest.json"})


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def file_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every emitted file except the run manifest."""
    if not out_dir.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())
            if p.is_file() and p.name not in UNHASHED}


def csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def jsonl_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_golden_files(out_dir: Path, names, golden: dict) -> list[str]:
    """The emitted files are exactly ``names``, each byte-identical to golden."""
    digests = file_digests(out_dir)
    return [f"golden_sha256:{name}"
            for name in sorted(set(names) | set(digests))
            if name not in names or digests.get(name) != golden["files"][name]]


def check_translatability(out_dir: Path, golden: dict) -> list[str]:
    expected = golden["published"]["translatability"]
    got = {r["ontology"]: [int(r["cq_count"]), int(r["translated"])]
           for r in csv_rows(out_dir / "translatability.csv")}
    return [] if got == expected else ["published_translatability"]


def check_keywords(out_dir: Path, golden: dict) -> list[str]:
    expected = golden["published"]["keywords"]
    got = {}
    for r in csv_rows(out_dir / "keywords.csv"):
        kw = r.pop("keyword")
        total = int(r.pop("total"))
        got[kw] = [total, {o: int(c) for o, c in r.items() if int(c)}]
    return [] if got == expected else ["published_keywords"]


def signature_counts(out_dir: Path) -> dict[str, int]:
    return {g["skeleton"]: g["count"]
            for g in jsonl_rows(out_dir / "signature_inventory.jsonl")}


def canonicalized_share(out_dir: Path) -> tuple[int, int]:
    """(queries given a signature, queries attempted) of one run's output."""
    signed = sum(signature_counts(out_dir).values())
    skipped = len(csv_rows(out_dir / "signatures_skipped.csv"))
    return signed, signed + skipped


def check_operation(kind: str, returncode: int, out_dir: Path, stderr: str,
                    golden: dict) -> list[str]:
    """Checks of one CLI operation; ``kind`` is its subcommand."""
    if returncode != 0:
        return ["exit_status"]
    try:
        if kind == "report":
            return (check_golden_files(out_dir, golden["files"], golden)
                    + check_translatability(out_dir, golden)
                    + check_keywords(out_dir, golden))
        failures = check_golden_files(out_dir, golden["subcommands"][kind], golden)
        if kind == "validate" and golden["validate_summary"] not in stderr:
            failures.append("validate_summary")
        return failures
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable_output:{type(exc).__name__}"]
