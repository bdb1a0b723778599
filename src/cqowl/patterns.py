"""Pattern inventories over CQ chunk templates.

A pattern candidate (one per CQ) becomes a pattern when it recurs: every
candidate from a dematerialized CQ counts by itself, while a candidate from
a materialized CQ needs a second CQ (from any ontology's set) producing the
same text.  Accepted patterns can be normalized further into higher-level
patterns by rewriting word variants into common forms and collapsing
preposition-joined entity chunks.
"""
from __future__ import annotations

import re
from typing import Optional, Sequence

from .linguistics import _EDGE_MARKS, is_number
from .records import Factory, Record


class CandidateRecord(Record):
    """One CQ's pattern candidate, ready for filtering."""

    cq_id: str
    ontology: str
    dematerialized: bool
    text: str


class Pattern(Record, frozen=False):
    text: str
    level: str
    support: list[str] = Factory(list)
    ontologies: set[str] = Factory(set)


class RejectedCandidate(Record):
    cq_id: str
    ontology: str
    text: str
    reason: str


class CqFeatures(Record):
    question_type: str  # Selection | Binary | Count
    polarity: str  # Positive | Negative | Both
    modifier: str  # None | Numeric | Superlative | Comparative | Difference | Extent
    dinde: frozenset[str]  # subset of Time/Location/Person/Period/Procedure


def canonical_text(text: str) -> str:
    """Pattern texts compare with the sentence-initial capital normalized."""
    text = text.strip()
    if not text:
        return text
    return text[0].upper() + text[1:]


def slot_kind(token: str) -> Optional[str]:
    """``"EC"`` or ``"PC"`` for a numbered chunk slot such as ``EC3``, else None."""
    kind = token[:2]
    return kind if kind in ("EC", "PC") and token[2:].isdecimal() else None


def cq_words(text: str) -> list[str]:
    """The lowercased words of CQ or pattern text, with the quote marks and
    punctuation the tokenizer strips taken off both edges."""
    words = (t.strip(_EDGE_MARKS).lower() for t in text.split())
    return [w for w in words if w]


# ---------------------------------------------------------------------------
# Candidate filtering


def filter_candidates(
    candidates: Sequence[CandidateRecord],
    overrides: Optional[dict[str, str]] = None,
) -> tuple[list[Pattern], list[RejectedCandidate]]:
    """Promote recurring candidates to patterns.

    There is one candidate per CQ: ``Corpus`` checks that CQ ids are
    unique.  ``overrides`` maps cq id to a hand-corrected candidate string
    and is applied before any grouping, mirroring a manual validation step.
    """
    overrides = overrides or {}
    by_text: dict[str, list[CandidateRecord]] = {}
    for record in candidates:
        text = canonical_text(overrides.get(record.cq_id, record.text))
        by_text.setdefault(text, []).append(record)

    patterns: list[Pattern] = []
    rejected: list[RejectedCandidate] = []
    for text, group in by_text.items():
        recurs = len(group) >= 2
        accepted = []
        for r in group:
            if r.dematerialized or recurs:
                accepted.append(r)
            else:
                rejected.append(
                    RejectedCandidate(
                        r.cq_id, r.ontology, text,
                        "materialized CQ with a unique candidate",
                    )
                )
        if accepted:
            patterns.append(
                Pattern(
                    text,
                    "pattern",
                    sorted(r.cq_id for r in accepted),
                    {r.ontology for r in accepted},
                )
            )
    patterns.sort(key=lambda p: p.text)
    rejected.sort(key=lambda r: r.cq_id)
    return patterns, rejected


# ---------------------------------------------------------------------------
# Higher-level normalization

# word rewrites; at each position the first rule in this order that matches
# there (case-insensitively) fires, and the sentence-initial capital survives
_WORD_REWRITES: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = (
    (("are",), ("is",)),
    (("any",), ()),
    (("did",), ("do",)),
    (("we",), ("I",)),
    (("does",), ("do",)),
    (("which", "of"), ("which",)),
    (("has",), ("have",)),
    (("which", "kind"), ("what", "kind")),
    (("will",), ("is",)),
    (("possible",), ()),
)
_REWRITES_BY_FIRST_WORD: dict[str, list[tuple[tuple[str, ...], tuple[str, ...]]]] = {}
for _rule in _WORD_REWRITES:
    _REWRITES_BY_FIRST_WORD.setdefault(_rule[0][0], []).append(_rule)

_MERGE_PREPOSITIONS = {"for", "of", "in", "with", "from"}


def _rewrite_words(tokens: list[str]) -> list[str]:
    lowers = [t.lower() for t in tokens]
    out: list[str] = []
    i = 0
    while i < len(tokens):
        for words, replacement in _REWRITES_BY_FIRST_WORD.get(lowers[i], ()):
            if tuple(lowers[i:i + len(words)]) == words:
                out.extend(replacement)
                i += len(words)
                break
        else:
            out.append(tokens[i])
            i += 1
    # sentence-initial "Which" becomes "What" (after the word rules, so that
    # "which of"/"which kind" firings are not masked)
    if out and out[0].lower() == "which":
        out[0] = "What"
    return out


def _merge_ec_chains(tokens: list[str]) -> list[str]:
    # "EC prep EC" keeps its first EC; a merge cannot create a match to its
    # left, so one left-to-right pass finds every chain
    out: list[str] = []
    i = 0
    while i < len(tokens):
        if (out and slot_kind(out[-1]) == "EC" and i + 1 < len(tokens)
                and tokens[i].lower() in _MERGE_PREPOSITIONS
                and slot_kind(tokens[i + 1]) == "EC"):
            i += 2
        else:
            out.append(tokens[i])
            i += 1
    return out


def _recompact_ordinals(tokens: list[str]) -> list[str]:
    mapping: dict[str, str] = {}
    counters = {"EC": 0, "PC": 0}
    out = []
    for tok in tokens:
        kind = slot_kind(tok)
        if kind is None:
            out.append(tok)
            continue
        if tok not in mapping:
            counters[kind] += 1
            mapping[tok] = f"{kind}{counters[kind]}"
        out.append(mapping[tok])
    return out


def normalize_text(text: str) -> str:
    """Fixpoint of the word-rewrite and EC-merge rules, ordinals recompacted."""
    tokens = text.split()
    while True:
        before = list(tokens)
        tokens = _rewrite_words(tokens)
        tokens = _merge_ec_chains(tokens)
        if tokens == before:
            break
    tokens = _recompact_ordinals(tokens)
    return canonical_text(" ".join(tokens))


def higher_level_inventory(patterns: Sequence[Pattern]) -> list[Pattern]:
    """Normalize accepted patterns and merge the ones that coincide."""
    merged: dict[str, Pattern] = {}
    for p in patterns:
        text = normalize_text(p.text)
        existing = merged.get(text)
        if existing is None:
            merged[text] = Pattern(text, "higher", list(p.support), set(p.ontologies))
        else:
            existing.support = sorted(set(existing.support) | set(p.support))
            existing.ontologies |= p.ontologies
    return sorted(merged.values(), key=lambda p: p.text)


# ---------------------------------------------------------------------------
# Tables


class CoverageRow(Record):
    ontology: str
    candidates: int
    patterns: int
    distinct_patterns: int
    coverage_pct: float
    materialized: int
    dematerialized: int
    distinct_higher: int


def coverage_stats(
    candidates: Sequence[CandidateRecord],
    patterns: Sequence[Pattern],
    higher: Sequence[Pattern],
    ontology_order: Sequence[str],
) -> list[CoverageRow]:
    """Per-ontology pattern statistics plus a Total row."""
    covered_ids = {cq_id for p in patterns for cq_id in p.support}
    rows = []
    for onto in ontology_order:
        mine = [c for c in candidates if c.ontology == onto]
        covered = [c for c in mine if c.cq_id in covered_ids]
        distinct = sum(1 for p in patterns if onto in p.ontologies)
        distinct_higher = sum(1 for p in higher if onto in p.ontologies)
        rows.append(
            CoverageRow(
                onto,
                len(mine),
                len(covered),
                distinct,
                _pct(len(covered), len(mine)),
                sum(1 for c in mine if not c.dematerialized),
                sum(1 for c in mine if c.dematerialized),
                distinct_higher,
            )
        )
    total_covered = sum(r.patterns for r in rows)
    total = sum(r.candidates for r in rows)
    rows.append(
        CoverageRow(
            "Total",
            total,
            total_covered,
            len(patterns),
            _pct(total_covered, total),
            sum(r.materialized for r in rows),
            sum(r.dematerialized for r in rows),
            len(higher),
        )
    )
    return rows


def _pct(part: int, whole: int) -> float:
    if whole == 0:
        return 0.0
    return round(100.0 * part / whole, 1)


def cross_set_reuse(patterns: Sequence[Pattern]) -> list[tuple[str, frozenset[str]]]:
    """Patterns whose support spans at least two ontology CQ sets."""
    rows = [
        (p.text, frozenset(p.ontologies))
        for p in patterns
        if len(p.ontologies) >= 2
    ]
    rows.sort(key=lambda r: (-len(r[1]), r[0]))
    return rows


def avg_cqs_per_pattern(
    candidates: Sequence[CandidateRecord],
    patterns: Sequence[Pattern],
    ontology_order: Sequence[str],
) -> list[tuple[str, float]]:
    """CQs covered per distinct pattern, by ontology (0 when no patterns)."""
    home = {c.cq_id: c.ontology for c in candidates}
    out = []
    for onto in ontology_order:
        covered = {cq for p in patterns for cq in p.support if home.get(cq) == onto}
        distinct = sum(1 for p in patterns if onto in p.ontologies)
        out.append((onto, round(len(covered) / distinct, 2) if distinct else 0.0))
    return out


# ---------------------------------------------------------------------------
# Ren-style CQ feature classification (surface heuristics)

_BINARY_INITIAL = {"is", "are", "does", "do", "can", "did", "has", "have", "will"}
_SUPERLATIVE_BLOCK = {
    "interest", "test", "rest", "best", "forest", "request", "west",
    "harvest", "guest", "latest",
}
_MORE_THAN = re.compile(r"\bmore\b.*\bthan\b")
_DIFFERENCE_BETWEEN = re.compile(r"\bdifferences?\s+between\b")
_HOW_DO_I = re.compile(r"how (do|can) i\b")


def classify_cq(text: str) -> CqFeatures:
    """Question type, polarity, modifier and domain-independent elements.

    Works on either raw CQ text or pattern-level text (where numbers appear
    as the NUM token).  These are heuristics; borderline wording can diverge
    from a human judgment and reports should be read accordingly.
    """
    tokens = cq_words(text)
    if not tokens:
        raise ValueError("no words in CQ text")
    lower = " ".join(tokens)
    first = tokens[0]

    if first in _BINARY_INITIAL:
        qtype = "Binary"
    elif lower.startswith("how many") or lower.startswith("how much"):
        qtype = "Count"
    else:
        qtype = "Selection"

    if "or not" in lower:
        polarity = "Both"
    elif "never" in tokens or "not" in tokens:
        polarity = "Negative"
    else:
        polarity = "Positive"

    modifier = "None"
    has_num = any(t == "num" or is_number(t) for t in tokens)
    superlative = "best" in tokens or any(
        t.endswith("est") and len(t) > 4 and t not in _SUPERLATIVE_BLOCK
        for t in tokens
    )
    if has_num or "exactly" in tokens:
        modifier = "Numeric"
    elif superlative:
        modifier = "Superlative"
    elif "better" in tokens or "worse" in tokens \
            or _MORE_THAN.search(lower):
        modifier = "Comparative"
    elif _DIFFERENCE_BETWEEN.search(lower):
        modifier = "Difference"
    elif lower.startswith("to what extent"):
        modifier = "Extent"

    dinde: set[str] = set()
    if first == "when" or lower.startswith("at what point") \
            or lower.startswith("how long"):
        dinde.add("Time")
    if first == "where" or lower.startswith("in which"):
        dinde.add("Location")
    if first == "who":
        dinde.add("Person")
    if lower.startswith("how long") or "period" in tokens:
        dinde.add("Period")
    if _HOW_DO_I.match(lower):
        dinde.add("Procedure")
    return CqFeatures(qtype, polarity, modifier, frozenset(dinde))
