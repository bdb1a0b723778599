"""Pattern-to-signature mapping and signal word/phrase mining.

The mapping between CQ patterns and query signatures is many-to-many; this
module materializes it as a bipartite edge list with witness CQs.  Signal
rules test whether a surface cue in the CQ (its first word, a word it
contains, or a phrase over its pattern-level text) co-occurs with a query
feature (the query verb, a keyword, or a whole signature skeleton), and
report co-occurrence fractions over the translated CQs.

Only CQs with a parsed translation take part: a CQ without a query cannot
witness anything about query structure.
"""
from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .patterns import Pattern, cq_words, slot_kind
from .queryparse import QueryAst, keyword_presence, parse_query
from .records import Record
from .signatures import CanonicalizationLimitExceeded, canonicalize

# ---------------------------------------------------------------------------
# Mapping


class MappingEdge(Record):
    pattern_text: str
    pattern_level: str
    signature_skeleton: str
    witness_cq_ids: tuple[str, ...]


class MappingSummary(Record):
    edges: int
    patterns_with_multiple_signatures: int
    signatures_with_multiple_patterns: int
    pattern_degree_histogram: tuple[tuple[int, int], ...]
    signature_degree_histogram: tuple[tuple[int, int], ...]


def build_mapping(
    patterns: Sequence[Pattern],
    skeleton_by_cq: dict[str, str],
) -> tuple[list[MappingEdge], MappingSummary]:
    """Bipartite pattern/signature edges witnessed by individual CQs."""
    edges: dict[tuple[str, str, str], list[str]] = {}
    for p in patterns:
        for cq_id in p.support:
            skeleton = skeleton_by_cq.get(cq_id)
            if skeleton is None:
                continue
            edges.setdefault((p.text, p.level, skeleton), []).append(cq_id)
    edge_list = [
        MappingEdge(text, level, skeleton, tuple(sorted(ids)))
        for (text, level, skeleton), ids in sorted(edges.items())
    ]
    pattern_degree: dict[str, int] = {}
    signature_degree: dict[str, int] = {}
    for e in edge_list:
        pattern_degree[e.pattern_text] = pattern_degree.get(e.pattern_text, 0) + 1
        signature_degree[e.signature_skeleton] = (
            signature_degree.get(e.signature_skeleton, 0) + 1
        )
    summary = MappingSummary(
        len(edge_list),
        sum(1 for d in pattern_degree.values() if d >= 2),
        sum(1 for d in signature_degree.values() if d >= 2),
        _histogram(pattern_degree.values()),
        _histogram(signature_degree.values()),
    )
    return edge_list, summary


def _histogram(degrees: Iterable[int]) -> tuple[tuple[int, int], ...]:
    counts: dict[int, int] = {}
    for d in degrees:
        counts[d] = counts.get(d, 0) + 1
    return tuple(sorted(counts.items()))


# ---------------------------------------------------------------------------
# Signal rules


_WORD_MATCHER_KINDS = ("initial_word_class", "contains_word")  # read the raw text
_MATCHER_KINDS = _WORD_MATCHER_KINDS + ("contains_phrase",)
_TARGET_KINDS = ("verb", "keyword", "skeleton")


class SignalRule(Record):
    """A surface cue paired with an expected query feature.

    ``matcher_kind``: ``initial_word_class`` (raw text, first word in the
    set), ``contains_word`` (raw text, whole token), or ``contains_phrase``
    (pattern-level text; EC/PC/NUM act as slot wildcards and ``a/b`` tokens
    are alternations).  ``target_kind``: ``verb``, ``keyword`` or
    ``skeleton``; a skeleton target carries an exemplar query whose
    canonical form defines the expected signature.  A rule checks its own
    fields when it is made, so the matchers below trust them.
    """

    id: str
    matcher_kind: str
    matcher_value: tuple[str, ...]  # words of the class, or phrase tokens
    target_kind: str
    target_value: str

    def __post_init__(self):
        words = self.matcher_value
        if not (isinstance(self.id, str) and isinstance(self.target_value, str)
                and isinstance(words, tuple) and words
                and all(isinstance(w, str) for w in words)):
            raise ValueError("id and target_value must be strings, "
                             "matcher_value a nonempty tuple of strings")
        for name, value, known in (("matcher_kind", self.matcher_kind, _MATCHER_KINDS),
                                   ("target_kind", self.target_kind, _TARGET_KINDS)):
            if value not in known:
                raise ValueError(f"unknown {name} {value!r}, "
                                 f"expected one of {', '.join(known)}")

    def describe_signal(self) -> str:
        if self.matcher_kind == "initial_word_class":
            return "/".join(self.matcher_value) + " -- at the beginning of CQ"
        if self.matcher_kind == "contains_word":
            return f"{self.matcher_value[0]} -- used as part of CQ"
        return " ".join(self.matcher_value)

    def describe_target(self) -> str:
        if self.target_kind == "verb":
            return f"{self.target_value} type query"
        if self.target_kind == "keyword":
            return f"{self.target_value} present in query"
        return self.target_value


class SignalRow(Record):
    rule_id: str
    signal: str
    target: str
    numerator: int
    denominator: int
    non_evidential: bool

    @property
    def fraction(self) -> str:
        pct = 100.0 * self.numerator / self.denominator if self.denominator else 0.0
        return f"{self.numerator}/{self.denominator} ({pct:.1f}%)"


def _pattern_tokens(pattern_text: str) -> list[tuple[str, Optional[str]]]:
    """Each token of pattern-level text, lowercased, with its slot kind."""
    return [(token.lower(), slot_kind(token)) for token in pattern_text.split()]


def _phrase_alternatives(phrase_tokens: Sequence[str]) -> list[frozenset[str]]:
    """What each phrase token matches: the slot kinds (EC, PC) and the
    lowercased words among its ``a/b`` alternatives.  A lowercased word is
    never ``EC`` or ``PC``, so one set holds both."""
    return [frozenset(alt if alt in ("EC", "PC") else alt.lower()
                      for alt in token.split("/"))
            for token in phrase_tokens]


def _phrase_in(alternatives: list[frozenset[str]],
               tokens: list[tuple[str, Optional[str]]]) -> bool:
    width = len(alternatives)
    for start in range(len(tokens) - width + 1):
        if all(lower in alts or kind in alts
               for alts, (lower, kind) in zip(alternatives, tokens[start:start + width])):
            return True
    return False


def phrase_matches(phrase_tokens: Sequence[str], pattern_text: str) -> bool:
    return _phrase_in(_phrase_alternatives(phrase_tokens), _pattern_tokens(pattern_text))


def _matcher(rule: SignalRule) -> Callable[[list], bool]:
    """``rule``'s signal test on what it reads of a CQ: ``cq_words`` of its
    raw text for a word rule, ``_pattern_tokens`` of its pattern-level text
    for a phrase rule."""
    if rule.matcher_kind == "initial_word_class":
        word_class = {w.lower() for w in rule.matcher_value}
        return lambda words: bool(words) and words[0] in word_class
    if rule.matcher_kind == "contains_word":
        word = rule.matcher_value[0].lower()
        return lambda words: word in words
    alternatives = _phrase_alternatives(rule.matcher_value)
    return lambda tokens: _phrase_in(alternatives, tokens)


def rule_matches(rule: SignalRule, raw_text: str, pattern_text: str) -> bool:
    if rule.matcher_kind in _WORD_MATCHER_KINDS:
        return _matcher(rule)(cq_words(raw_text))
    return _matcher(rule)(_pattern_tokens(pattern_text))


@lru_cache
def _exemplar_skeleton(text: str) -> str:
    """Canonical skeleton of an exemplar query, parsed once per text."""
    exemplar = parse_query(text, {"": "http://example.org/sig#"})
    return canonicalize(exemplar).skeleton


def mine_signals(
    rules: Sequence[SignalRule],
    translated: Sequence[tuple[str, str, str, QueryAst, Optional[str]]],
) -> list[SignalRow]:
    """Evaluate signal rules over translated CQs.

    ``translated`` rows are (cq id, raw text, pattern-level text, ast,
    skeleton).  The denominator of a rule counts translated CQs matching
    the signal; the numerator counts those whose query satisfies the
    target.  Rows whose subgroup has size 1 or less are flagged as
    non-evidential; whether a link is meaningful stays a human call.
    """
    tests = [(_matcher(rule), rule.matcher_kind in _WORD_MATCHER_KINDS) for rule in rules]
    numerators = [0] * len(rules)
    denominators = [0] * len(rules)
    for _cq_id, raw, pattern_text, ast, skeleton in translated:
        # a row's CQ words, pattern tokens and keyword presence, computed
        # when a word rule, a phrase rule or a keyword rule first needs them
        # and dropped with the row, so no stage keeps them for every row
        words = tokens = keywords = None
        for i, (rule, (matches, reads_words)) in enumerate(zip(rules, tests)):
            if reads_words:
                if words is None:
                    words = cq_words(raw)
                read = words
            else:
                if tokens is None:
                    tokens = _pattern_tokens(pattern_text)
                read = tokens
            if not matches(read):
                continue
            denominators[i] += 1
            if rule.target_kind == "verb":
                numerators[i] += ast.verb == rule.target_value
            elif rule.target_kind == "keyword":
                if keywords is None:
                    keywords = keyword_presence(ast)
                numerators[i] += rule.target_value in keywords
            else:
                numerators[i] += skeleton == _exemplar_skeleton(rule.target_value)
    return [SignalRow(rule.id, rule.describe_signal(), rule.describe_target(),
                      numerator, denominator, numerator <= 1)
            for rule, numerator, denominator in zip(rules, numerators, denominators)]


# ---------------------------------------------------------------------------
# Built-in rules: the word rules and the frequent-phrase rules shipped with
# the toolkit, including the single-support cardinality cue.

_SUBCLASS_FILTER_QUERY = (
    "SELECT DISTINCT * WHERE { ?x rdfs:subClassOf :URI . "
    "FILTER(?x != :URI && ?x != owl:Nothing) }"
)
_ONPROPERTY_QUERY = (
    "SELECT DISTINCT * WHERE { [] rdfs:subClassOf :URI, "
    "[ owl:onProperty ?x; owl:someValuesFrom [] ]. }"
)
_KIND_DOUBLE_SUBCLASS_QUERY = (
    "SELECT DISTINCT * WHERE { :URI rdfs:subClassOf ?x . "
    "?x rdfs:subClassOf :URI. FILTER(?x != :URI && ?x != :URI) }"
)
_MAIN_TYPES_QUERY = (
    "SELECT DISTINCT * WHERE { ?x rdfs:subClassOf :URI. "
    "FILTER NOT EXISTS { ?x rdfs:subClassOf ?y . ?y rdfs:subClassOf :URI. } "
    "FILTER(?x != :URI && ?x != owl:Nothing) }"
)

BUILTIN_RULES: tuple[SignalRule, ...] = (
    SignalRule(
        "wh-select", "initial_word_class",
        ("Which", "What", "Who", "Where", "When"), "verb", "SELECT",
    ),
    SignalRule(
        "binary-ask", "initial_word_class",
        ("Is", "Are", "Can", "Does"), "verb", "ASK",
    ),
    SignalRule("or-union", "contains_word", ("or",), "keyword", "owl:unionOf"),
    SignalRule(
        "and-intersection", "contains_word", ("and",),
        "keyword", "owl:intersectionOf",
    ),
    SignalRule(
        "exactly-cardinality", "contains_phrase", ("exactly", "NUM", "EC"),
        "keyword", "owl:cardinality",
    ),
    SignalRule(
        "possible-types", "contains_phrase",
        ("What", "are", "the", "possible", "types", "of"),
        "skeleton", _SUBCLASS_FILTER_QUERY,
    ),
    SignalRule(
        "types-of", "contains_phrase",
        ("What", "are", "the", "types", "of"),
        "skeleton", _SUBCLASS_FILTER_QUERY,
    ),
    SignalRule(
        "what-types-is", "contains_phrase",
        ("What", "types", "of", "EC", "is/are"),
        "skeleton", _ONPROPERTY_QUERY,
    ),
    SignalRule(
        "kind-of-is", "contains_phrase",
        ("Which/what", "kind", "of", "EC", "is/are"),
        "skeleton", _KIND_DOUBLE_SUBCLASS_QUERY,
    ),
    SignalRule(
        "main-types", "contains_phrase",
        ("What", "are", "the", "main", "types", "of"),
        "skeleton", _MAIN_TYPES_QUERY,
    ),
)


def load_rules(path: Path) -> list[SignalRule]:
    """Load signal rules from a JSON file (list of rule objects).  A rule
    checks its own fields; this checks what JSON adds (a string
    ``matcher_value`` would split into letters) and skeleton exemplars."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, list):
        raise ValueError(f"{path}: expected a JSON list of rules")
    rules = []
    for i, obj in enumerate(raw):
        try:
            if not (isinstance(obj, dict) and isinstance(obj.get("matcher_value"), list)):
                raise ValueError("expected an object whose matcher_value is a list")
            rule = SignalRule(obj["id"], obj["matcher_kind"], tuple(obj["matcher_value"]),
                              obj["target_kind"], obj["target_value"])
            if rule.target_kind == "skeleton":
                _exemplar_skeleton(rule.target_value)
        except (KeyError, ValueError, CanonicalizationLimitExceeded) as exc:
            raise ValueError(f"{path}: rule #{i} malformed: {exc}") from exc
        rules.append(rule)
    return rules


# ---------------------------------------------------------------------------
# Discovery

DEFAULT_STOPLIST = frozenset(
    "the a an of in for with from to on at by as is are do does did and or "
    "i we it that there any some what which".split()
)


class DiscoveredSignal(Record):
    ngram: tuple[str, ...]
    group_size: int
    subgroup_size: int
    skeleton: str

    @property
    def ratio(self) -> float:
        return self.subgroup_size / self.group_size if self.group_size else 0.0


_MAX_N = 6  # longest n-gram that discovery counts


def discover_signals(
    translated: Sequence[tuple[str, str, str, QueryAst, Optional[str]]],
    min_support: int = 2,
    stoplist: frozenset[str] = DEFAULT_STOPLIST,
) -> list[DiscoveredSignal]:
    """Enumerate shared n-grams over pattern-level text and rank candidates.

    For each n-gram (1.._MAX_N tokens, EC/PC ordinals wildcarded) the group
    is every translated CQ whose pattern text contains it; the candidate's
    strength is the largest subgroup sharing one query skeleton.  N-grams
    made only of stoplist words are dropped: groups they form are
    accidental.  Judging which survivors are meaningful stays manual.
    """
    if min_support < 2:
        raise ValueError("min_support must be at least 2")
    occurrences: dict[tuple[str, ...], set[str]] = {}
    skeleton_of: dict[str, str] = {}
    for cq_id, _raw, pattern_text, _ast, skeleton in translated:
        if skeleton is None:
            continue
        skeleton_of[cq_id] = skeleton
        tokens = [slot_kind(t) or t for t in pattern_text.split()]
        grams = set()
        for n in range(1, _MAX_N + 1):
            for i in range(len(tokens) - n + 1):
                grams.add(tuple(tokens[i:i + n]))
        for gram in grams:
            occurrences.setdefault(gram, set()).add(cq_id)

    results = []
    for gram, members in occurrences.items():
        if all(t not in ("EC", "PC", "NUM") and t.lower() in stoplist for t in gram):
            continue
        if len(members) < min_support:
            continue
        by_skeleton: dict[str, int] = {}
        for cq_id in members:
            sk = skeleton_of[cq_id]
            by_skeleton[sk] = by_skeleton.get(sk, 0) + 1
        skeleton, size = max(by_skeleton.items(), key=lambda kv: (kv[1], kv[0]))
        if size < min_support:
            continue
        results.append(DiscoveredSignal(gram, len(members), size, skeleton))
    results.sort(key=lambda r: (-r.ratio, -r.subgroup_size, r.ngram))
    return results
