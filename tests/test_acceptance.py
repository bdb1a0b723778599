"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all;
a failing criterion also fails its test).  Criteria 1-4 are exact checks on
the shipped corpus; 5 and 6 are calibration bands around the published
reference values; 7-9 are dataset-independent property suites.
"""
from __future__ import annotations

import random

from cqowl import reference
from cqowl.corpus import translatability_report
from cqowl.patterns import (
    CandidateRecord,
    coverage_stats,
    filter_candidates,
    normalize_text,
)
from cqowl.pipeline import signals_for
from cqowl.queryparse import keyword_report, parse_query, serialize_query
from cqowl.signatures import canonicalize
from tests.strategies import oracle_minimum, rename_terms
from tests.test_signatures import _random_ast


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. translatability, exact


def test_criterion_1_translatability(corpus):
    rows, errors = translatability_report(corpus)
    got = {r.ontology: (r.cq_count, r.translated_count) for r in rows}
    ok = errors == [] and got == reference.TRANSLATABILITY
    report("criterion 1 (translatability)", ok,
           f"total {got.get('Total')} vs {reference.TRANSLATABILITY['Total']}, "
           f"{len(errors)} parse failures")


# ---------------------------------------------------------------------------
# 2. keyword table, exact on at least 18 of 21 rows (we require all 21)


def test_criterion_2_keyword_table(corpus):
    rows, errors = keyword_report(corpus)
    got = {r["keyword"]: (r["total"], dict(r["per_ontology"])) for r in rows}
    mismatches = [
        kw for kw, expected in reference.KEYWORD_USAGE.items()
        if got.get(kw) != expected
    ]
    extra = set(got) - set(reference.KEYWORD_USAGE)
    ok = not errors and not extra and len(mismatches) <= 3 and len(got) == 21
    detail = (f"{21 - len(mismatches)}/21 rows exact"
              + (f", deviating: {mismatches}" if mismatches else ""))
    report("criterion 2 (keyword usage)", ok, detail)
    assert mismatches == [], f"rows deviating from the published table: {mismatches}"


# ---------------------------------------------------------------------------
# 3. signal verb/word rules


def test_criterion_3_signal_rules(bundle):
    rows = {r.rule_id: (r.numerator, r.denominator) for r in signals_for(bundle)}
    wh = rows["wh-select"]
    ask = rows["binary-ask"]
    ok = (
        abs(wh[0] - 107) <= 2 and abs(wh[1] - 107) <= 2 and wh[0] == wh[1]
        and abs(ask[0] - 16) <= 2 and abs(ask[1] - 18) <= 2
        and rows["or-union"] == (2, 9)
        and rows["and-intersection"] == (2, 11)
    )
    report("criterion 3 (signal word rules)", ok,
           f"wh-select {wh[0]}/{wh[1]}, binary-ask {ask[0]}/{ask[1]}, "
           f"or {rows['or-union'][0]}/{rows['or-union'][1]}, "
           f"and {rows['and-intersection'][0]}/{rows['and-intersection'][1]}")


# ---------------------------------------------------------------------------
# 4. parser totality + round-trip on all 131 queries


def test_criterion_4_parser_totality_roundtrip(corpus):
    asts, errors = corpus.parse_queries()
    bad = []
    for qid, ast in asts.items():
        prefixes = corpus.ontology(corpus.question(qid).ontology).prefixes()
        if parse_query(serialize_query(ast), prefixes) != ast:
            bad.append(qid)
    ok = len(asts) == 131 and errors == [] and bad == []
    report("criterion 4 (parser totality & round-trip)", ok,
           f"{len(asts)}/131 parsed, {len(bad)} round-trip failures")


# ---------------------------------------------------------------------------
# 5. signature calibration: count in [40, 55], top-9 coverage 63.1 +/- 8pp,
#    delta report listing every group


def test_criterion_5_signature_calibration(bundle, corpus):
    groups = bundle.signature_groups
    count = len(groups)
    total = sum(g.count for g in groups)
    top9 = sum(g.count for g in groups[:9])
    pct = 100.0 * top9 / total
    ok = (40 <= count <= 55) and abs(pct - 63.1) <= 8.0 \
        and bundle.signature_skipped == [] and total == 131
    report("criterion 5 (signatures)", ok,
           f"{count} signatures (reference {reference.SIGNATURE_COUNT}, "
           f"delta {count - reference.SIGNATURE_COUNT:+d}); top-9 coverage "
           f"{pct:.1f}% (reference {reference.TOP9_SIGNATURE_COVERAGE_PCT}%)")
    # the delta report: every group with members
    for g in groups:
        assert g.member_ids, "signature group without members"
    print(f"     delta report: {count} groups, sizes "
          f"{[g.count for g in groups]}")


# ---------------------------------------------------------------------------
# 6. pattern inventory calibration + the worked chunking examples


def test_criterion_6_pattern_inventory(bundle, corpus):
    rows = coverage_stats(bundle.candidates, bundle.patterns, bundle.higher,
                          ontology_order=corpus.ontology_names())
    total = rows[-1]
    ok_counts = (
        abs(total.distinct_patterns - 106) <= 0.15 * 106
        and abs(total.distinct_higher - 81) <= 0.15 * 81
    )
    report("criterion 6a (inventory sizes)", ok_counts,
           f"distinct {total.distinct_patterns} (reference 106 +/-15%), "
           f"higher {total.distinct_higher} (reference 81 +/-15%)")

    candidate = {c.cq_id: c.text for c in bundle.candidates}
    worked = {
        "awo_6": "Which EC1 PC1 EC2",
        "awo_4": "PC1 EC1 PC1 EC2 or EC3",
        "DemCare_CQ_51": "What EC1 PC1 EC2 in EC3",
    }
    chunk_ok = all(candidate[k] == v for k, v in worked.items())
    report("criterion 6b (worked chunking examples)", chunk_ok,
           "; ".join(f"{k} -> {candidate[k]}" for k in worked))

    is_there = ["Are there EC1 in EC2", "Is there EC1 for EC2",
                "Is there EC1 with EC2"]
    what_is = ["What is EC1", "What is EC1 of EC2", "What are EC1",
               "Which are EC1 of EC2", "What is EC1 of EC2 for EC3",
               "What are EC1 for EC2", "What is EC1 for EC2"]
    norm_ok = all(normalize_text(t) == "Is there EC1" for t in is_there) and \
        all(normalize_text(t) == "What is EC1" for t in what_is)
    report("criterion 6c (worked normalization families)", norm_ok,
           "'Is there EC1' and 'What is EC1' families normalize exactly")


# ---------------------------------------------------------------------------
# 7. signature invariance: 1000 randomized trials + brute-force minimum


def test_criterion_7_signature_invariance():
    rng = random.Random(424242)
    failures = 0
    for _ in range(1000):
        ast = _random_ast(rng)
        mutated = rename_terms(ast, rng)
        if canonicalize(ast).skeleton != canonicalize(mutated).skeleton:
            failures += 1
    report("criterion 7a (invariance, 1000 trials)", failures == 0,
           f"{1000 - failures}/1000 byte-identical")

    checked = 0
    mismatches = 0
    oracle_rng = random.Random(777)
    while checked < 40:
        ast = _random_ast(oracle_rng)
        if len(ast.where.items[0].triples) > 4:
            continue
        checked += 1
        if canonicalize(ast).skeleton != oracle_minimum(ast):
            mismatches += 1
    report("criterion 7b (brute-force minimum, <=4 triples)", mismatches == 0,
           f"{checked - mismatches}/{checked} equal to the enumerated minimum")


# ---------------------------------------------------------------------------
# 8. normalization idempotence and EC monotonicity, 1000 random patterns


_GRAMMAR_POOL = (
    ["EC1", "EC2", "EC3", "EC4", "EC5", "PC1", "PC2"]
    + "are is any did we does which of kind has have will possible".split()
    + "there what the for in with from to and or main types who".split()
)


def test_criterion_8_normalization_properties():
    rng = random.Random(515151)
    bad = 0
    for _ in range(1000):
        tokens = [rng.choice(_GRAMMAR_POOL) for _ in range(rng.randint(1, 12))]
        text = " ".join(tokens)
        once = normalize_text(text)
        ec_in = sum(1 for t in tokens if t.startswith("EC"))
        ec_out = sum(1 for t in once.split() if t.startswith("EC"))
        if normalize_text(once) != once or ec_out > ec_in:
            bad += 1
    report("criterion 8 (normalize idempotent & EC-monotone)", bad == 0,
           f"{1000 - bad}/1000 trials")


# ---------------------------------------------------------------------------
# 9. filtering vs a brute-force reference on random corpora


def _reference_filter(records):
    groups = {}
    for r in records:
        groups.setdefault(r.text[0].upper() + r.text[1:], []).append(r)
    out = {}
    for text, group in groups.items():
        kept = sorted(r.cq_id for r in group
                      if r.dematerialized or len(group) >= 2)
        if kept:
            out[text] = kept
    return out


def test_criterion_9_filter_rules_and_monotonicity():
    rng = random.Random(909090)
    texts = [f"Shape {i} EC1 PC1" for i in range(10)]
    mismatches = 0
    regressions = 0
    for _ in range(150):
        records = [
            CandidateRecord(f"q{i}", rng.choice("ABC"), rng.random() < 0.5,
                            rng.choice(texts))
            for i in range(rng.randint(0, 50))
        ]
        got = {p.text: p.support for p in filter_candidates(records)[0]}
        if got != _reference_filter(records):
            mismatches += 1
        extra = [
            CandidateRecord(f"n{i}", "D", rng.random() < 0.5, rng.choice(texts))
            for i in range(rng.randint(0, 10))
        ]
        before = {p.text for p in filter_candidates(records)[0]}
        after = {p.text for p in filter_candidates(records + extra)[0]}
        if not before <= after:
            regressions += 1
    report("criterion 9 (filtering vs brute force)",
           mismatches == 0 and regressions == 0,
           f"{150 - mismatches}/150 equal to reference; "
           f"{150 - regressions}/150 monotone under growth")
