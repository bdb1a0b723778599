"""Child process of the benchmark that calls into ``cqowl`` in-process.

    python3 perfbench/worker.py SPEC.json RESULT.json

``SPEC.json`` names the mode:

- ``canon``: parse the generated adversarial queries (the set-up), then
  call ``cqowl.signatures.group_by_signature`` on one query at a time, in
  a pass over every query, and check each result;
- ``cli``: call ``cqowl.cli.main(argv)`` for a rotation of commands and
  check each command's output files.

With ``"trace": true`` every round is run twice, untraced and then with
the span wrappers of ``spans.py`` installed, so the two can be compared.
The worker writes its measurements to ``RESULT.json``.
"""
from __future__ import annotations

import io
import json
import shutil
import sys
import time
from collections import Counter
from contextlib import redirect_stderr
from pathlib import Path

import checks
import gen
import spans


PEAK_MARK = "perfbench-peak-rss-kib"


def peak_rss_kib() -> int:
    """This process's peak resident set since its exec (VmHWM).

    ``ru_maxrss`` is no use here: after a fork and exec it also counts the
    parent's peak, so the harness's own memory would show up in it.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def reference_seconds() -> float:
    """Wall time of a fixed piece of pure-Python work.

    The machine is shared and its speed drifts by tens of percent within
    minutes.  Timed next to every operation, this work, made of the dict,
    tuple, string and sort operations the program itself spends its time
    in, measures how fast the machine ran at that moment; operation costs
    are reported as multiples of it.
    """
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(6000):
        key = ("k", i % 997, str(i))
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: kv[0][2])
    "|".join(k[2] for k, _ in ranked[:2000])
    return time.perf_counter() - t0


def repeat_rounds(run_round, seconds: float, traced: bool = False) -> None:
    """Run whole rounds while the next one is expected to end in time.

    A round is one pass over a workload's operations, so every run covers
    the same mix; at least one round always runs.  With ``traced`` each
    round runs untraced and then traced.
    """
    start = time.perf_counter()
    longest = 0.0
    index = 0
    while True:
        began = time.perf_counter()
        run_round(index, False)
        if traced:
            run_round(index, True)
        longest = max(longest, time.perf_counter() - began)
        index += 1
        if time.perf_counter() - start + longest > seconds:
            return


class Recorder:
    """Collects operation outcomes and, when tracing, per-round layer numbers."""

    def __init__(self, traced: bool, queries_per_round: int):
        self.tracer = spans.Tracer() if traced else None
        self.queries_per_round = queries_per_round
        self.op_seconds: list[float] = []
        self.ref_seconds: list[float] = []
        self.failures: Counter = Counter()
        self.failed_ops = 0
        self.rounds = {"untraced": [], "traced": [], "layers": [], "cover": []}

    def op(self, seconds: float, failures) -> None:
        self.op_seconds.append(seconds)
        self.check(failures)

    def check(self, failures) -> None:
        if failures:
            self.failed_ops += 1
            self.failures.update(failures)

    def begin(self, traced: bool) -> None:
        if traced:
            self.tracer.install()

    def end(self, traced: bool, wall: float) -> None:
        if not traced:
            self.rounds["untraced"].append(wall)
            return
        self.tracer.uninstall()
        recorded = self.tracer.take()
        self.rounds["traced"].append(wall)
        self.rounds["layers"].append(spans.layer_metrics(recorded, self.queries_per_round))
        self.rounds["cover"].append(spans.root_cover(recorded) / wall)

    def result(self, **extra) -> dict:
        out = {"attempted": len(self.op_seconds), "failed": self.failed_ops,
               "failures": dict(self.failures), "op_seconds": self.op_seconds,
               "ref_seconds": self.ref_seconds,
               "rounds": self.rounds,
               "missing_sites": self.tracer.missing if self.tracer else []}
        out.update(extra)
        return out


def run_canon(spec: dict) -> dict:
    """One pass (``round``), or with ``trace`` paired passes for ``seconds``."""
    from cqowl import signatures
    from cqowl.queryparse import parse_query

    passes = json.loads(Path(spec["queries"]).read_text(encoding="utf-8"))
    parsed = [[(q, parse_query(q["text"])) for q in queries] for queries in passes]
    if spec.get("setup_only"):
        return {}

    rec = Recorder(spec["trace"], queries_per_round=0)
    outcomes = []  # (query, skeleton or None if skipped, error or None)

    def run_round(index: int, traced: bool) -> None:
        wall = 0.0
        rec.begin(traced)
        try:
            for q, ast in parsed[index % len(parsed)]:
                skeleton = error = None
                rec.ref_seconds.append(reference_seconds())
                t0 = time.perf_counter()
                try:
                    groups, skips = signatures.group_by_signature(
                        [(q["id"], ast)], max_triples=gen.MAX_PARTS)
                    if not skips:
                        skeleton = groups[0].signature.skeleton
                except Exception as exc:  # a crash is a failed operation
                    error = f"exception:{type(exc).__name__}"
                seconds = time.perf_counter() - t0
                wall += seconds
                rec.op_seconds.append(seconds)
                outcomes.append((q, skeleton, error))
        finally:
            rec.end(traced, wall)

    if spec["trace"]:
        repeat_rounds(run_round, spec["seconds"], traced=True)
    elif "round" in spec:
        run_round(spec["round"], False)

    skipped = 0
    for q, skeleton, error in outcomes:
        if error is not None:
            rec.check([error])
        elif skeleton is None:
            skipped += 1
        else:
            rec.check([] if skeleton == q["expected"] else ["expected_skeleton"])
    if spec.get("check_minimum"):
        for q in passes[0]:
            if q["n"] <= 5:
                rec.check([] if _brute_force_minimum(q, parse_query) == q["expected"]
                          else ["bruteforce_minimum"])
    return rec.result(skipped=skipped, peak_kib=peak_rss_kib())


def _brute_force_minimum(query: dict, parse_query) -> str:
    """Minimum of the source-order rendering over every order of the
    query's parts, which the canonical skeleton must equal."""
    from cqowl.signatures import render_in_source_order

    return min(render_in_source_order(parse_query(text), gen.MAX_PARTS)
               for text in gen.brute_force_variants(query))


def run_cli(spec: dict) -> dict:
    import cqowl.cli

    golden = checks.load_golden()
    out = Path(spec["out"])
    rec = Recorder(spec["trace"], queries_per_round=spec["queries_per_round"])

    def run_round(index: int, traced: bool) -> None:
        wall = 0.0
        rec.begin(traced)
        try:
            for kind, argv in spec["rotation"]:
                shutil.rmtree(out, ignore_errors=True)
                err = io.StringIO()
                with redirect_stderr(err):
                    t0 = time.perf_counter()
                    code = cqowl.cli.main(argv + ["--out", str(out)])
                    seconds = time.perf_counter() - t0
                wall += seconds
                rec.op(seconds, checks.check_operation(
                    kind, code, out, err.getvalue(), golden))
        finally:
            rec.end(traced, wall)

    repeat_rounds(run_round, spec["seconds"], spec["trace"])
    return rec.result()


def main(argv) -> int:
    spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    runners = {"canon": run_canon, "cli": run_cli}
    result = runners[spec["mode"]](spec)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
