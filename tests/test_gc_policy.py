"""The ``cqowl`` process runs with the cyclic collector off and freezes its
heap before exit (``cli.main`` with ``argv=None``); ``main(argv)`` called
in-process leaves the collector as it found it.  The policy is safe only
while a run makes no cycles that grow with the corpus and closes every file
it writes, which these tests pin."""
from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys

import pytest

from cqowl.cli import main
from tests.conftest import CORPUS_PATH, REPO_ROOT

GOLDEN_PATH = REPO_ROOT / "perfbench" / "golden.json"
# what the ``cqowl`` console script runs
ENTRY = "import sys; from cqowl.cli import main; sys.exit(main())"


def _digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "run_manifest.json"}


def test_program_entry_report_is_byte_identical_to_golden(tmp_path):
    # a file left to a finalizer would lose its buffered data here, since
    # the frozen heap is never collected at exit
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["files"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY, "report", "--corpus", str(CORPUS_PATH),
         "--paper-calibration", "--emit", "csv,md", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _digests(tmp_path) == golden


@pytest.mark.parametrize("enabled", [True, False])
def test_in_process_main_leaves_the_collector_alone(tmp_path, enabled):
    was_enabled = gc.isenabled()
    frozen = gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["validate", "--corpus", str(CORPUS_PATH),
                     "--out", str(tmp_path)]) == 0
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_program_main_restores_the_collector_and_freezes(tmp_path, monkeypatch,
                                                          enabled):
    was_enabled = gc.isenabled()
    monkeypatch.setattr(sys, "argv", ["cqowl", "validate", "--corpus",
                                      str(CORPUS_PATH), "--out", str(tmp_path)])
    (gc.enable if enabled else gc.disable)()
    try:
        assert main() == 0
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
        (gc.enable if was_enabled else gc.disable)()


def _replicas(path, copies: int, broken: int = -1):
    """The bundled corpus ``copies`` times over, each copy's ids suffixed;
    every query of copy ``broken`` fails to parse."""
    lines = CORPUS_PATH.read_text(encoding="utf-8").splitlines()
    with path.open("w", encoding="utf-8") as out:
        for copy in range(copies):
            for line in lines:
                record = json.loads(line)
                record["id"] += f"_r{copy}"
                if copy == broken and "query" in record:
                    record["query"] += " {"
                out.write(json.dumps(record) + "\n")
    return path


def _garbage_after_report(corpus, out) -> int:
    """Unreachable objects a ``report`` leaves for the cyclic collector."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert main(["report", "--corpus", str(corpus), "--out", str(out),
                     "--paper-calibration"]) == 0
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def test_report_cycles_do_not_grow_with_the_corpus(tmp_path):
    one = _replicas(tmp_path / "x1.jsonl", 1)
    four = _replicas(tmp_path / "x4.jsonl", 4, broken=3)
    _garbage_after_report(one, tmp_path / "warm")  # first-run imports and caches
    assert (_garbage_after_report(one, tmp_path / "out1")
            == _garbage_after_report(four, tmp_path / "out4"))
