"""Benchmark of the cqowl toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see README.md for why each):

- ``bundled-report``: ``cqowl report`` on the bundled 234-CQ corpus;
- ``subcommand-mix``: ``validate``, ``chunk``, ``keywords``, ``parse`` and
  ``signatures`` in rotation on the bundled corpus;
- ``canon-adversarial``: ``group_by_signature`` on seeded symmetric queries.

One client runs one operation at a time (a closed loop), in whole rounds,
for about ``--seconds``.  Every operation's output is checked.  With
``--trace 0`` the end-to-end metrics are measured; with ``--trace 1`` a
separate in-process run records spans around each layer and reports
per-layer metrics and the tracing overhead.  The last line of standard
output is the result as one JSON object.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import checks
import gen
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "data" / "cq_sparql_owl.jsonl"
WORK = HERE / ".work"

# what the ``cqowl`` console script runs, plus a last stderr line with the
# process's peak resident set (see worker.peak_rss_kib)
CLI_ENTRY = ("import sys\n"
             "from cqowl.cli import main\n"
             "code = main()\n"
             "with open('/proc/self/status') as status:\n"
             "    peak = [line.split()[1] for line in status if line.startswith('VmHWM:')]\n"
             f"print({worker.PEAK_MARK!r}, *peak, file=sys.stderr)\n"
             "sys.exit(code)")
CLI_FLAGS = ["--paper-calibration", "--emit", "csv,md"]
SUBCOMMAND_MIX = ("validate", "chunk", "keywords", "parse", "signatures")
SETUP_MIN_SAMPLES = 7
SETUP_EVERY_S = 1.5
CHILD_TIMEOUT_S = 150

WORKLOADS = ("bundled-report", "subcommand-mix", "canon-adversarial")

UNITS = {
    "setup_s": "s",
    "op_cost_mean": "ref",
    "op_cost_p90": "ref",
    "peak_rss_mb": "MB",
    "canonicalized_frac": "ratio",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "items_per_s": "1/s",
    "ref_s_mean": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run here."""


def spawn(argv, env, stderr=subprocess.DEVNULL):
    """Run a child to completion: (wall seconds from spawn to exit, exit
    code).  A child still running after CHILD_TIMEOUT_S is killed."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status = os.waitpid(proc.pid, 0)  # blocking: no polling delay in the timing
    finally:
        watchdog.cancel()
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def preflight(env) -> None:
    """Refuse to run anywhere but a checkout that holds the program."""
    for needed in (SRC / "cqowl" / "cli.py", CORPUS):
        if not needed.is_file():
            raise BenchmarkError(f"missing {needed.relative_to(ROOT)}")
    # the first import also writes the bytecode cache, as a user's first run does
    proc = subprocess.run(
        [sys.executable, "-c", "import cqowl.cli; print(cqowl.cli.__file__)"],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"cannot import cqowl: {proc.stderr.strip()}")
    if Path(proc.stdout.strip()).resolve() != SRC / "cqowl" / "cli.py":
        raise BenchmarkError(f"imported cqowl from {proc.stdout.strip()}, not {SRC}")


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------
# Workload set-up


class Workload:
    """Generated inputs and operation rotation of one workload run."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.work = work
        if name == "canon-adversarial":
            self.queries = work / "adversarial.json"
            self.queries.write_text(json.dumps(gen.adversarial_set(seed)), encoding="utf-8")
            return
        with open(CORPUS, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        queries = sum(1 for r in records if r.get("query") is not None)
        subcommands = SUBCOMMAND_MIX if name == "subcommand-mix" else ("report",)
        self.rotation = [(sub, [sub, "--corpus", str(CORPUS)] + CLI_FLAGS)
                         for sub in subcommands]
        self.queries_per_round = queries * len(self.rotation)
        self.cqs = len(records)

    def setup_command(self) -> list[str]:
        """A fresh interpreter that stops once ready for the first operation."""
        if self.name == "canon-adversarial":
            return self.worker_command(setup_only=True)
        return [sys.executable, "-c", "import cqowl.cli"]

    def worker_command(self, **spec) -> list[str]:
        if self.name == "canon-adversarial":
            spec.update(mode="canon", queries=str(self.queries))
        else:
            spec.update(mode="cli", rotation=self.rotation, out=str(self.work / "out"),
                        queries_per_round=self.queries_per_round)
        path = self.work / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return [sys.executable, str(HERE / "worker.py"), str(path), str(self.result_path)]

    @property
    def result_path(self) -> Path:
        return self.work / "result.json"


def run_worker(workload: Workload, env, **spec):
    """Run worker.py and return its result."""
    log = workload.work / "worker.log"
    with open(log, "w") as err:
        _, code = spawn(workload.worker_command(**spec), env, stderr=err)
    if code != 0:
        raise BenchmarkError(f"worker exited {code}: {log.read_text()[-2000:]}")
    return json.loads(workload.result_path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Measurement


class Tally:
    """Outcomes of the operations of one untraced run."""

    def __init__(self):
        self.op_seconds: list[float] = []
        self.ref_seconds: list[float] = []
        self.items = 0
        self.failed = 0
        self.failures = Counter()
        self.peak_kib = 0
        self.signed = 0
        self.signable = 0

    def check(self, failures) -> None:
        if failures:
            self.failed += 1
            self.failures.update(failures)


def cli_round(workload: Workload, env, golden: dict, tally: Tally) -> None:
    """Each command of the rotation as a subprocess, timed from spawn to exit."""
    out = workload.work / "out"
    for kind, args in workload.rotation:
        shutil.rmtree(out, ignore_errors=True)
        with open(workload.work / "stderr.txt", "w+", encoding="utf-8") as err:
            wall, code = spawn(
                [sys.executable, "-c", CLI_ENTRY] + args + ["--out", str(out)],
                env, stderr=err)
            err.seek(0)
            stderr, mark, peak = err.read().rpartition(worker.PEAK_MARK)
        tally.ref_seconds.append(worker.reference_seconds())
        tally.op_seconds.append(wall)
        tally.items += workload.cqs
        if mark:
            tally.peak_kib = max(tally.peak_kib, int(peak))
        else:
            stderr = peak
        failures = checks.check_operation(kind, code, out, stderr, golden)
        tally.check(failures)
        if not failures and kind in ("report", "signatures"):
            signed, signable = checks.canonicalized_share(out)
            tally.signed += signed
            tally.signable += signable


def canon_round(workload: Workload, env, index: int, tally: Tally) -> None:
    """One pass over the adversarial queries in a fresh worker process."""
    result = run_worker(workload, env, trace=False, round=index)
    ops = len(result["op_seconds"])
    tally.op_seconds += result["op_seconds"]
    tally.ref_seconds += result["ref_seconds"]
    tally.items += ops
    tally.peak_kib = max(tally.peak_kib, result["peak_kib"])
    tally.failed += result["failed"]
    tally.failures.update(result["failures"])
    tally.signed += ops - result["skipped"]
    tally.signable += ops


def end_to_end(workload: Workload, env, seconds: float, golden: dict):
    """Closed loop of whole rounds for about ``seconds``.  Set-up samples
    are spread over the run, so they see the same machine as the operations."""
    tally = Tally()
    setup: list[float] = []
    last_setup = float("-inf")

    def sample_setup() -> None:
        nonlocal last_setup
        wall, code = spawn(workload.setup_command(), env)
        if code != 0:
            raise BenchmarkError(f"set-up command exited {code}")
        setup.append(wall)
        last_setup = time.perf_counter()

    def run_round(index: int, traced: bool) -> None:
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            sample_setup()
        if workload.name == "canon-adversarial":
            canon_round(workload, env, index, tally)
        else:
            cli_round(workload, env, golden, tally)

    worker.repeat_rounds(run_round, seconds)
    while len(setup) < SETUP_MIN_SAMPLES:
        sample_setup()
    if workload.name == "canon-adversarial":
        # the small queries' skeletons against a brute-force minimum, untimed
        result = run_worker(workload, env, trace=False, check_minimum=True)
        tally.failed += result["failed"]
        tally.failures.update(result["failures"])
    times = tally.op_seconds
    costs = [op / ref for op, ref in zip(times, tally.ref_seconds)]
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "op_cost_mean": (sum(times) / sum(tally.ref_seconds), len(times)),
        "op_cost_p90": (p90(costs), len(times)),
        "peak_rss_mb": (tally.peak_kib / 1024.0, len(times)),
        "canonicalized_frac": (tally.signed / tally.signable if tally.signable else 0.0,
                               tally.signable),
    }
    # raw wall times: shown, but left out of the result, as they drift with the machine
    shown = {
        "op_s_p50": (statistics.median(times), len(times)),
        "op_s_p90": (p90(times), len(times)),
        "items_per_s": (tally.items / sum(times), len(times)),
        "ref_s_mean": (statistics.fmean(tally.ref_seconds), len(tally.ref_seconds)),
    }
    result = {"attempted": len(times), "failed": tally.failed,
              "failures": dict(tally.failures), "shown": shown}
    return metrics, result


def per_layer(workload: Workload, env, seconds: float):
    result = run_worker(workload, env, trace=True, seconds=seconds, check_minimum=True)
    rounds = result["rounds"]
    n = len(rounds["traced"])
    metrics = {name: (statistics.median(r[name] for r in rounds["layers"]), n)
               for name in rounds["layers"][0]}
    traced = statistics.median(rounds["traced"])
    untraced = statistics.median(rounds["untraced"])
    metrics["trace.round_s"] = (traced, n)
    metrics["trace.untraced_round_s"] = (untraced, n)
    metrics["trace.overhead_frac"] = ((traced - untraced) / untraced, n)
    metrics["trace.span_cover_frac"] = (statistics.median(rounds["cover"]), n)
    metrics["trace.sites_missing"] = (float(len(result["missing_sites"])), n)
    return metrics, result


LAYER_UNITS = {"self_s": "s", "round_s": "s", "untraced_round_s": "s",
               "overhead_frac": "ratio", "span_cover_frac": "ratio",
               "calls_per_query": "ratio"}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return LAYER_UNITS.get(metric.rsplit(".", 1)[1], "count")


# ---------------------------------------------------------------------------
# Run record


def git_sha() -> str | None:
    """HEAD of the checkout, when the checkout is itself a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(args, load) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "src_sha256": source_sha256(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load = list(os.getloadavg())
    env = child_env()
    try:
        preflight(env)
        WORK.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
        try:
            workload = Workload(args.workload, args.seed, work)
            if args.trace:
                metrics, result = per_layer(workload, env, args.seconds)
            else:
                metrics, result = end_to_end(workload, env, args.seconds,
                                             checks.load_golden())
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"{args.workload}: {result['attempted']} operations, "
          f"{result['failed']} failed {result['failures'] or ''}")
    for name, (value, samples) in metrics.items():
        print(f"  {name:<45} {value:>14.6g} {unit_of(name):<6} n={samples}")
    for name, (value, samples) in result.get("shown", {}).items():
        print(f"  ({name:<43} {value:>14.6g} {unit_of(name):<6} n={samples}, not bounded)")
    print("record " + json.dumps(run_record(args, load), sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
