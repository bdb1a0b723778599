"""Command-line front end: one subcommand per analysis, plus ``report``.

All data outputs are deterministic files under ``--out``; diagnostics go to
standard error.  Exit codes: 0 success, 1 validation/input error, 2
internal error.

Only the modules that ``validate`` runs are imported at the top; every
other module is imported by the step that first needs it, so a process
loads (and compiles) only the stages of its subcommand.
"""
from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .corpus import (
    AnnotationError,
    Corpus,
    CorpusError,
    load_corpus,
    translatability_report,
)
from .queryparse import DEFAULT_MAX_TRIPLES, keyword_report, serialize_query
from .reporting import Table, write_jsonl

if TYPE_CHECKING:
    from .correspondence import SignalRule
    from .patterns import CqFeatures
    from .pipeline import AnalysisBundle


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqowl",
        description="Corpus analytics for competency questions and their "
                    "SPARQL-OWL translations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=SUBCOMMANDS,
                        help="the stage to run; report runs all of them")
    parser.add_argument("--corpus", required=True, help="corpus path")
    parser.add_argument("--format", choices=("jsonl", "dataset_dir"),
                        default="jsonl", help="corpus format")
    parser.add_argument("--tagger", choices=("builtin", "conllu"),
                        default="builtin", help="annotation source")
    parser.add_argument("--conllu-dir", type=Path, default=None,
                        help="directory of <cq id>.conllu files")
    parser.add_argument("--overrides", type=Path, default=None,
                        help="JSON file mapping cq id to corrected candidate")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory")
    parser.add_argument("--emit", default="csv,md",
                        help="comma-separated report formats (csv, md)")
    parser.add_argument("--max-triples", type=int, default=DEFAULT_MAX_TRIPLES,
                        help="canonicalization bound per BGP")
    parser.add_argument("--stoplist", type=Path, default=None,
                        help="newline-separated stopword file for discovery")
    parser.add_argument("--min-support", type=int, default=2,
                        help="minimum subgroup size for discovered signals")
    parser.add_argument("--rules", type=Path, default=None,
                        help="JSON signal-rule file (default: built-in rules)")
    parser.add_argument("--paper-calibration", action="store_true",
                        help="emit delta tables against the published "
                             "reference values")
    return parser


# ``run_pipeline`` and ``classify_cq`` are looked up as attributes of this
# module, instead of being imported where they are used, only because
# perfbench's tracer wraps them here (``perfbench/spans.py``); they become
# plain local imports once the program records its own spans (ROADMAP
# item 1).
def run_pipeline(corpus: Corpus, **options) -> AnalysisBundle:
    from .pipeline import AnalysisBundle
    return AnalysisBundle(corpus, **options)


def classify_cq(text: str) -> CqFeatures:
    from .patterns import classify_cq
    return classify_cq(text)


class FlagError(ValueError):
    """A flag value that cannot be used; the message names the flag."""


def main(argv=None) -> int:
    if argv is not None:  # called in-process: leave the collector alone
        return _main(argv)
    # As the program, a run makes no reference cycles that grow with the
    # corpus and closes every file it writes, so cyclic collections during
    # the stages free next to nothing, and the one at exit would walk every
    # module and code object again.  The collector is off for the run, and
    # freezing the heap keeps it out of the exit collection.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        gc.freeze()
        if enabled:
            gc.enable()


def _main(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error
        if exc.code == 2:
            return 1
        raise
    try:
        return _dispatch(args)
    except (AnnotationError, CorpusError, FlagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    started = time.perf_counter()
    formats = _check_flags(args)
    corpus = load_corpus(Path(args.corpus), format=args.format)

    if args.command == "validate":
        return _cmd_validate(corpus)

    bundle = run_pipeline(
        corpus, tagger=args.tagger, conllu_dir=args.conllu_dir,
        overrides=args.overrides, max_triples=args.max_triples,
    )

    def emit(name: str, columns: list[str], rows) -> None:
        table = Table(name, columns)
        for row in rows:
            table.add(*row)
        table.write(args.out, formats)

    steps = STEPS.values() if args.command == "report" else [STEPS[args.command]]
    for step in steps:
        step(bundle, emit, args)
    _write_manifest(args.out, args, started)
    return 0


def _check_flags(args) -> list[str]:
    """Reject unusable flag values before anything is loaded.

    Returns the report formats, and replaces the ``--overrides``,
    ``--rules`` and ``--stoplist`` paths on ``args`` with the parsed
    contents of those files.
    """
    formats = [f.strip() for f in args.emit.split(",") if f.strip()]
    if not formats:
        raise FlagError(f"--emit: no format in {args.emit!r}, expected csv or md")
    for fmt in formats:
        if fmt not in ("csv", "md"):
            raise FlagError(f"--emit: unknown format {fmt!r}, expected csv or md")
    for flag, value, least in (("--min-support", args.min_support, 2),
                               ("--max-triples", args.max_triples, 1)):
        if value < least:
            raise FlagError(f"{flag} must be at least {least}, got {value}")
    args.overrides = _read_flag_file("--overrides", args.overrides, _load_overrides)
    args.rules = _read_flag_file("--rules", args.rules, _load_rules)
    args.stoplist = _read_flag_file("--stoplist", args.stoplist, _load_stoplist)
    return formats


def _read_flag_file(flag: str, path, load):
    if path is None:
        return None
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise FlagError(f"{flag}: {exc}") from exc


def _load_overrides(path: Path) -> dict[str, str]:
    overrides = json.loads(path.read_text(encoding="utf-8"))
    if not (isinstance(overrides, dict)
            and all(isinstance(v, str) for v in overrides.values())):
        raise ValueError(f"{path}: expected a JSON object mapping CQ ids "
                         f"to candidate strings")
    return overrides


def _load_rules(path: Path) -> list[SignalRule]:
    from .correspondence import load_rules
    return load_rules(path)


def _load_stoplist(path: Path) -> frozenset[str]:
    return frozenset(
        w.strip().lower()
        for w in path.read_text(encoding="utf-8").splitlines()
        if w.strip()
    )


def _cmd_validate(corpus: Corpus) -> int:
    # corpus structural invariants were enforced during loading; report
    # remaining data-quality findings (unparseable queries) and summarize
    rows, errors = translatability_report(corpus)
    for cq_id, message in errors:
        print(f"warning: query of {cq_id} does not parse: {message}",
              file=sys.stderr)
    total = rows[-1]
    print(
        f"corpus OK: {total.cq_count} CQs across "
        f"{len(corpus.ontologies)} ontologies, "
        f"{total.translated_count} with parseable queries",
        file=sys.stderr,
    )
    return 0


def _cmd_chunk(bundle: AnalysisBundle, emit, args) -> None:
    emit("chunks", ["cq_id", "ontology", "chunks", "candidate"], (
        (c.cq_id, c.ontology,
         "; ".join(f"{chunk.label}={chunk.surface_text}"
                   for chunk in bundle.sentences[c.cq_id].chunks),
         c.text)
        for c in bundle.candidates
    ))


def _cmd_patterns(bundle: AnalysisBundle, emit, args) -> None:
    from .patterns import (
        CoverageRow,
        avg_cqs_per_pattern,
        coverage_stats,
        cross_set_reuse,
    )

    order = bundle.corpus.ontology_names()
    rows = coverage_stats(bundle.candidates, bundle.patterns, bundle.higher,
                          ontology_order=order)
    emit("pattern_coverage", list(CoverageRow._fields),
         (r._astuple() for r in rows))

    for level, inventory in (("pattern", bundle.patterns),
                             ("higher", bundle.higher)):
        emit(f"shared_{level}s", ["pattern", "ontologies"],
             cross_set_reuse(inventory))
        emit(f"avg_cqs_per_{level}", ["ontology", "average"],
             avg_cqs_per_pattern(bundle.candidates, inventory,
                                 ontology_order=order))

    write_jsonl(args.out / "pattern_inventory.jsonl", (
        {"text": p.text, "level": p.level, "support": p.support,
         "ontologies": sorted(p.ontologies)}
        for p in list(bundle.patterns) + list(bundle.higher)
    ))

    emit("rejected_candidates", ["cq_id", "ontology", "candidate", "reason"],
         ((r.cq_id, r.ontology, r.text, r.reason) for r in bundle.rejected))

    if args.paper_calibration:
        from . import reference

        calib = []
        for r in rows:
            ref = reference.PATTERN_COVERAGE.get(r.ontology)
            if ref is not None:
                calib.append((r.ontology, r.distinct_patterns, ref[2],
                              r.distinct_higher, ref[6]))
        emit("pattern_coverage_calibration", [
            "ontology", "computed_distinct", "reference_distinct",
            "computed_higher", "reference_higher",
        ], calib)


def _cmd_classify(bundle: AnalysisBundle, emit, args) -> None:
    rows = []
    for c in bundle.candidates:
        features = classify_cq(c.text)
        rows.append((c.cq_id, c.ontology, features.question_type,
                     features.polarity, features.modifier, features.dinde))
    emit("cq_features", [
        "cq_id", "ontology", "question_type", "polarity", "modifier", "dinde",
    ], rows)


def _cmd_parse(bundle: AnalysisBundle, emit, args) -> None:
    errors = dict(bundle.parse_errors)
    emit("parse_report", ["cq_id", "ontology", "status", "detail"], (
        (q.id, q.ontology, "ok", "") if q.id in bundle.asts
        else (q.id, q.ontology, "error", errors[q.id])
        for q in bundle.corpus.questions if q.query_text is not None
    ))
    write_jsonl(args.out / "parsed_queries.jsonl", (
        {"cq_id": qid, "canonical_text": serialize_query(ast)}
        for qid, ast in sorted(bundle.asts.items())
    ))

    rows, errors = translatability_report(bundle.corpus)
    emit("translatability", ["ontology", "cq_count", "translated"],
         (r._astuple() for r in rows))
    if errors:
        emit("untranslatable_queries", ["cq_id", "error"], errors)
    if args.paper_calibration:
        from . import reference

        emit("translatability_calibration", [
            "ontology", "computed_cqs", "computed_translated",
            "reference_cqs", "reference_translated",
        ], (
            (r.ontology, r.cq_count, r.translated_count,
             *reference.TRANSLATABILITY.get(r.ontology, (0, 0)))
            for r in rows
        ))


def _cmd_keywords(bundle: AnalysisBundle, emit, args) -> None:
    rows, errors = keyword_report(bundle.corpus)
    onto_names = bundle.corpus.ontology_names()
    emit("keywords", ["keyword", "total", *onto_names], (
        (r["keyword"], r["total"],
         *[r["per_ontology"].get(o, 0) for o in onto_names])
        for r in rows
    ))
    if errors:
        emit("keywords_excluded", ["cq_id", "error"], errors)
    if args.paper_calibration:
        from . import reference

        calib = []
        for r in rows:
            ref = reference.KEYWORD_USAGE.get(r["keyword"], (0, {}))[0]
            calib.append((r["keyword"], r["total"], ref, r["total"] - ref))
        emit("keywords_calibration",
             ["keyword", "computed", "reference", "delta"], calib)


def _cmd_signatures(bundle: AnalysisBundle, emit, args) -> None:
    from .signatures import coverage_table

    rows = coverage_table(bundle.signature_groups)
    emit("signatures", [
        "rank", "verb", "distinct", "count", "cumulative_pct", "members",
        "skeleton",
    ], (
        (r["rank"], r["verb"], r["distinct"], r["count"],
         r["cumulative_pct"], r["members"], r["skeleton"].replace("\n", " "))
        for r in rows
    ))
    write_jsonl(args.out / "signature_inventory.jsonl", (
        {"skeleton": g.signature.skeleton, "verb": g.signature.verb,
         "distinct": g.signature.distinct, "members": g.member_ids,
         "count": g.count}
        for g in bundle.signature_groups
    ))
    emit("signatures_skipped", ["cq_id", "reason"], bundle.signature_skipped)
    if args.paper_calibration:
        from . import reference

        computed = len(bundle.signature_groups)
        top9 = rows[min(8, len(rows) - 1)]["cumulative_pct"] if rows else 0.0
        emit("signatures_calibration",
             ["metric", "computed", "reference", "delta"], [
                 ("distinct signatures", computed, reference.SIGNATURE_COUNT,
                  computed - reference.SIGNATURE_COUNT),
                 ("top-9 coverage pct", top9,
                  reference.TOP9_SIGNATURE_COVERAGE_PCT,
                  round(top9 - reference.TOP9_SIGNATURE_COVERAGE_PCT, 1)),
             ])


def _cmd_map(bundle: AnalysisBundle, emit, args) -> None:
    from .pipeline import mapping_for

    for level in ("pattern", "higher"):
        edges, summary = mapping_for(bundle, level=level)
        emit(f"mapping_{level}", ["pattern", "signature", "witnesses"], (
            (e.pattern_text, e.signature_skeleton.replace("\n", " "),
             e.witness_cq_ids)
            for e in edges
        ))
        emit(f"mapping_{level}_summary", ["metric", "value"], [
            ("edges", summary.edges),
            ("patterns with 2+ signatures",
             summary.patterns_with_multiple_signatures),
            ("signatures with 2+ patterns",
             summary.signatures_with_multiple_patterns),
            ("pattern degree histogram",
             _fmt_hist(summary.pattern_degree_histogram)),
            ("signature degree histogram",
             _fmt_hist(summary.signature_degree_histogram)),
        ])


def _fmt_hist(hist) -> str:
    return "; ".join(f"degree {d}: {n}" for d, n in hist)


def _cmd_signals(bundle: AnalysisBundle, emit, args) -> None:
    from .pipeline import discovery_for, signals_for

    rows = signals_for(bundle, args.rules)
    emit("signals", ["rule", "signal", "target", "support", "non_evidential"], (
        (r.rule_id, r.signal, r.target.replace("\n", " "), r.fraction,
         r.non_evidential)
        for r in rows
    ))

    discovered = discovery_for(bundle, min_support=args.min_support,
                               stoplist=args.stoplist)
    emit("discovered_signals", [
        "ngram", "group_size", "subgroup_size", "ratio_pct", "skeleton",
    ], (
        (" ".join(d.ngram), d.group_size, d.subgroup_size,
         round(100.0 * d.ratio, 1), d.skeleton.replace("\n", " "))
        for d in discovered
    ))

    if args.paper_calibration:
        from . import reference

        calib = []
        for r in rows:
            ref = reference.SIGNAL_SUPPORT.get(r.rule_id)
            if ref is not None:
                calib.append((r.rule_id, f"{r.numerator}/{r.denominator}",
                              f"{ref[0]}/{ref[1]}", r.numerator - ref[0],
                              r.denominator - ref[1]))
        emit("signals_calibration", [
            "rule", "computed", "reference", "delta_numerator",
            "delta_denominator",
        ], calib)


# The table-writing steps, in the order ``report`` runs them; each writes
# its tables through ``emit(name, columns, rows)``.
STEPS = {
    "chunk": _cmd_chunk,
    "patterns": _cmd_patterns,
    "classify": _cmd_classify,
    "parse": _cmd_parse,
    "keywords": _cmd_keywords,
    "signatures": _cmd_signatures,
    "map": _cmd_map,
    "signals": _cmd_signals,
}
SUBCOMMANDS = ("validate", *STEPS, "report")


def _write_manifest(out: Path, args, started: float) -> None:
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool": "cqowl",
        "version": __version__,
        "command": args.command,
        "corpus": str(args.corpus),
        "format": args.format,
        "tagger": args.tagger,
        "max_triples": args.max_triples,
        "min_support": args.min_support,
        "elapsed_seconds": round(time.perf_counter() - started, 3),
    }
    (out / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    sys.exit(main())
