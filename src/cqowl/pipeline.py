"""Lazily computed analysis stages shared by the CLI subcommands.

Importing this module loads none of the stage modules (``linguistics``,
``patterns``, ``signatures``, ``correspondence``): each is imported when
a stage first calls into it, so a subcommand loads only what it runs.
"""
from __future__ import annotations

from functools import cached_property
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .queryparse import DEFAULT_MAX_TRIPLES

if TYPE_CHECKING:
    from .corpus import Corpus
    from .correspondence import (
        DiscoveredSignal,
        MappingEdge,
        MappingSummary,
        SignalRow,
        SignalRule,
    )
    from .linguistics import AnnotatedSentence
    from .patterns import CandidateRecord, Pattern, RejectedCandidate
    from .queryparse import QueryAst
    from .signatures import SignatureGroup


def _deferred(module: str, name: str):
    """Stand-in for ``module.name`` that imports the module on its first call.

    The stage functions below are attributes of this module only because
    perfbench's tracer wraps them here (``perfbench/spans.py``); once the
    program records its own spans (ROADMAP item 1) they become local
    imports in the stages.  The first call binds the target for good: the
    tracer also wraps ``signatures.group_by_signature``, and the benchmark
    runs each round untraced before tracing it, so one call gives one span.
    """
    target = None

    def forward(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(import_module(f"{__package__}.{module}"), name)
        return target(*args, **kwargs)

    return forward


annotate_sentence = _deferred("linguistics", "annotate_sentence")
to_pattern_candidate = _deferred("linguistics", "to_pattern_candidate")
filter_candidates = _deferred("patterns", "filter_candidates")
higher_level_inventory = _deferred("patterns", "higher_level_inventory")
group_by_signature = _deferred("signatures", "group_by_signature")
build_mapping = _deferred("correspondence", "build_mapping")
mine_signals = _deferred("correspondence", "mine_signals")
discover_signals = _deferred("correspondence", "discover_signals")


class AnalysisBundle:
    """The analysis stages over one corpus, each computed on first access.

    A stage runs at most once and only when it, or a stage after it, is
    read, so a subcommand pays only for the stages it uses.  Query parsing
    is memoized on the corpus itself and shared with the corpus-level
    tables.
    """

    def __init__(
        self,
        corpus: Corpus,
        tagger: str = "builtin",
        conllu_dir: Optional[Path] = None,
        overrides: Optional[dict[str, str]] = None,
        max_triples: int = DEFAULT_MAX_TRIPLES,
    ):
        self.corpus = corpus
        self.tagger = tagger
        self.conllu_dir = conllu_dir
        self.overrides = overrides
        self.max_triples = max_triples

    @cached_property
    def sentences(self) -> dict[str, AnnotatedSentence]:
        conllu_dir = Path(self.conllu_dir or ".")
        return {
            q.id: annotate_sentence(q.id, q.text, source=self.tagger,
                                    conllu_path=conllu_dir / f"{q.id}.conllu")
            for q in self.corpus.questions
        }

    @cached_property
    def candidates(self) -> list[CandidateRecord]:
        from .patterns import CandidateRecord

        sentences = self.sentences
        return [
            CandidateRecord(q.id, q.ontology, q.dematerialized,
                            to_pattern_candidate(sentences[q.id]))
            for q in self.corpus.questions
        ]

    @cached_property
    def _filtered(self) -> tuple[list[Pattern], list[RejectedCandidate]]:
        return filter_candidates(self.candidates, overrides=self.overrides)

    @property
    def patterns(self) -> list[Pattern]:
        return self._filtered[0]

    @property
    def rejected(self) -> list[RejectedCandidate]:
        return self._filtered[1]

    @cached_property
    def higher(self) -> list[Pattern]:
        return higher_level_inventory(self.patterns)

    @property
    def asts(self) -> dict[str, QueryAst]:
        return self.corpus.parse_queries()[0]

    @property
    def parse_errors(self) -> list[tuple[str, str]]:
        return self.corpus.parse_queries()[1]

    @cached_property
    def _signatures(self) -> tuple[list[SignatureGroup], list[tuple[str, str]]]:
        return group_by_signature(sorted(self.asts.items()),
                                  max_triples=self.max_triples)

    @property
    def signature_groups(self) -> list[SignatureGroup]:
        return self._signatures[0]

    @property
    def signature_skipped(self) -> list[tuple[str, str]]:
        return self._signatures[1]

    @cached_property
    def skeleton_by_cq(self) -> dict[str, str]:
        return {qid: g.signature.skeleton
                for g in self.signature_groups for qid in g.member_ids}

    def translated_rows(self) -> list[tuple[str, str, str, QueryAst, Optional[str]]]:
        """(cq id, raw text, pattern-level text, ast, skeleton) per translated CQ."""
        candidate_text = {c.cq_id: c.text for c in self.candidates}
        rows = []
        for q in self.corpus.questions:
            ast = self.asts.get(q.id)
            if ast is None:
                continue
            rows.append(
                (q.id, q.text, candidate_text.get(q.id, ""), ast,
                 self.skeleton_by_cq.get(q.id))
            )
        return rows


def mapping_for(bundle: AnalysisBundle, level: str = "pattern") \
        -> tuple[list[MappingEdge], MappingSummary]:
    inventory = bundle.patterns if level == "pattern" else bundle.higher
    return build_mapping(inventory, bundle.skeleton_by_cq)


def signals_for(
    bundle: AnalysisBundle, rules: Optional[list[SignalRule]] = None
) -> list[SignalRow]:
    from .correspondence import BUILTIN_RULES

    return mine_signals(rules or list(BUILTIN_RULES), bundle.translated_rows())


def discovery_for(
    bundle: AnalysisBundle, min_support: int = 2,
    stoplist: Optional[frozenset[str]] = None,
) -> list[DiscoveredSignal]:
    from .correspondence import DEFAULT_STOPLIST

    return discover_signals(
        bundle.translated_rows(), min_support=min_support,
        stoplist=stoplist if stoplist is not None else DEFAULT_STOPLIST,
    )
