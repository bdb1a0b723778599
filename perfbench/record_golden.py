"""Record ``golden.json``, the fixed reference of the output checks.

Run once, from the repository root, at the commit that defines the
benchmark:

    python3 perfbench/record_golden.py

It runs ``report`` and each single-stage subcommand on the bundled corpus
and stores the sha256 of every emitted file, the file set of each
subcommand, ``validate``'s summary line, and the published translatability
and keyword tables.

Re-recording it later would make the checks compare the program with
itself, so a change that alters any output must not do so.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
from run import CORPUS, ROOT, SUBCOMMAND_MIX


def run_cli(command: str, out: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "cqowl.cli", command, "--corpus", str(CORPUS),
         "--out", str(out), "--paper-calibration", "--emit", "csv,md"],
        env=env, capture_output=True, text=True, check=True)
    return proc.stderr


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from cqowl import reference

    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report"
        run_cli("report", report)
        golden = {"files": checks.file_digests(report), "subcommands": {}}
        for sub in SUBCOMMAND_MIX:
            out = Path(tmp) / sub
            stderr = run_cli(sub, out)
            golden["subcommands"][sub] = sorted(checks.file_digests(out))
            if sub == "validate":
                golden["validate_summary"] = stderr.strip().splitlines()[-1]
    golden["published"] = {
        "translatability": {k: list(v) for k, v in reference.TRANSLATABILITY.items()},
        "keywords": {k: [total, per] for k, (total, per) in reference.KEYWORD_USAGE.items()},
    }
    checks.GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
