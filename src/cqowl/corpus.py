"""Corpus model and loaders for CQ/SPARQL-OWL datasets.

The canonical on-disk format is JSON Lines: one CQ object per line with
fields ``id``, ``ontology``, ``cq``, optional ``query`` and ``answers``.
Placeholder spans are never stored; they are re-derived by scanning the CQ
text for ``[...]`` segments.  A directory layout with one query per file is
supported as an importer (``<root>/<ontology>/manifest.json`` plus
``questions/*.txt`` and ``queries/*.rq`` paired by basename).
:func:`load_corpus` reads a directory as that layout and any other path
as JSON Lines, so the path alone names the format.

CQs whose query text fails to parse are retained (the linguistic analyses
still need them) and surfaced through :meth:`Corpus.parse_queries`.

A loaded :class:`Corpus` is treated as immutable: its queries are parsed
once, on first use, and every later analysis shares those results.
"""
from __future__ import annotations

import json
import re
from functools import cached_property
from pathlib import Path
from typing import Optional

from .queryparse import QueryAst, QueryParseError, parse_query
from .records import Record


class CorpusError(ValueError):
    """Structural problem in a corpus file; message carries file/line/field."""


class DuplicateError(CorpusError):
    """A name repeated in a :class:`Corpus` field, at ``first`` and ``second``."""

    def __init__(self, message: str, field: str, first: int, second: int):
        super().__init__(message)
        self.field, self.first, self.second = field, first, second


class AnnotationError(ValueError):
    """Raised for empty input, bad CoNLL-U data, or mismatched text.

    Raised by :mod:`cqowl.linguistics`; defined here so that the CLI can
    catch it without importing the annotator.
    """


class OntologyId(Record):
    short_name: str
    prefix_table: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if not self.short_name:
            raise CorpusError("ontology short_name must be nonempty")
        for prefix, iri in self.prefix_table:
            if not (isinstance(iri, str)
                    and iri.startswith(("http://", "https://", "urn:"))):
                raise CorpusError(
                    f"ontology {self.short_name}: namespace for prefix "
                    f"{prefix!r} is not an absolute IRI: {iri!r}"
                )

    def prefixes(self) -> dict[str, str]:
        return dict(self.prefix_table)


class CompetencyQuestion(Record):
    id: str
    ontology: str
    text: str
    placeholders: tuple[tuple[int, int], ...]
    query_text: Optional[str] = None
    expected_answers: tuple[str, ...] = ()

    @property
    def dematerialized(self) -> bool:
        return bool(self.placeholders)


class Corpus(Record, frozen=False):
    ontologies: list[OntologyId]
    questions: list[CompetencyQuestion]

    def __post_init__(self):
        # indexes derived from the two fields, so they are not fields
        self._onto_by_name = _index(self.ontologies, "short_name", "ontologies", "ontology")
        self._by_id = _index(self.questions, "id", "questions", "CQ id")
        for q in self.questions:
            if q.ontology not in self._onto_by_name:
                raise CorpusError(
                    f"CQ {q.id!r} references unknown ontology {q.ontology!r}"
                )

    def question(self, cq_id: str) -> CompetencyQuestion:
        return self._by_id[cq_id]

    def ontology(self, short_name: str) -> OntologyId:
        return self._onto_by_name[short_name]

    def ontology_names(self) -> list[str]:
        return [o.short_name for o in self.ontologies]

    def parse_queries(self) -> tuple[dict[str, QueryAst], list[tuple[str, str]]]:
        """Parse every query in the corpus.

        Returns (asts keyed by CQ id, list of (cq id, error) for queries
        that did not parse).  CQs without a query are simply absent from
        both.  The queries are parsed on the first call only; every call
        returns the same dict and list, which callers must not modify.
        """
        return self._parsed

    @cached_property
    def _parsed(self) -> tuple[dict[str, QueryAst], list[tuple[str, str]]]:
        asts: dict[str, QueryAst] = {}
        errors: list[tuple[str, str]] = []
        for q in self.questions:
            if q.query_text is None:
                continue
            prefixes = self.ontology(q.ontology).prefixes()
            try:
                asts[q.id] = parse_query(q.query_text, prefixes)
            except QueryParseError as exc:
                errors.append((q.id, str(exc)))
        return asts, errors


def _index(items: list, attr: str, field: str, what: str) -> dict:
    """``items`` by their ``attr``, which must not repeat."""
    first: dict = {}
    for i, item in enumerate(items):
        key = getattr(item, attr)
        if first.setdefault(key, i) != i:
            raise DuplicateError(f"duplicate {what} {key!r}", field, first[key], i)
    return {key: items[i] for key, i in first.items()}


# ---------------------------------------------------------------------------
# Placeholder scanning


def placeholder_spans(text: str) -> tuple[tuple[int, int], ...]:
    """Character spans of ``[...]`` placeholders; same text, same spans."""
    spans: list[tuple[int, int]] = []
    start: Optional[int] = None
    for i, ch in enumerate(text):
        if ch == "[":
            if start is not None:
                raise CorpusError(f"nested '[' at offset {i} in {text!r}")
            start = i
        elif ch == "]":
            if start is None:
                raise CorpusError(f"unmatched ']' at offset {i} in {text!r}")
            spans.append((start, i + 1))
            start = None
    if start is not None:
        raise CorpusError(f"unclosed '[' at offset {start} in {text!r}")
    return tuple(spans)


def read_text(path: Path) -> str:
    """Read a UTF-8 input file; an unreadable one raises CorpusError naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: byte {exc.start}: not UTF-8 ({exc.reason})") from exc
    except OSError as exc:
        raise CorpusError(f"{path}: {exc.strerror or exc}") from exc


def _require_encodable(text: str, value, where: str) -> None:
    """Reject ``value``, parsed from the JSON ``text``, when a ``\\u`` escape
    made a lone surrogate in it, which no UTF-8 output can hold."""
    if "\\u" in text:  # only an escape can make one
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise CorpusError(f"{where}: a \\u escape makes a lone surrogate, "
                              "which no UTF-8 output can hold") from exc


_WORD_CHAR = re.compile(r"\w")


def _question(where: str, cq_id: str, ontology: str, text: str,
              query: Optional[str] = None,
              answers: tuple[str, ...] = ()) -> CompetencyQuestion:
    """The CQ read at ``where``, whose text must have a word (annotation and
    classification have nothing to work on in, say, a bare ``?``) and
    well-formed placeholders; an error names ``where``."""
    if not _WORD_CHAR.search(text):
        raise CorpusError(f"{where}: field 'cq' has no word: {text!r}")
    try:
        spans = placeholder_spans(text)
    except CorpusError as exc:
        raise CorpusError(f"{where}: {exc}") from exc
    return CompetencyQuestion(cq_id, ontology, text, spans, query, answers)


def _located_corpus(ontologies: list, questions: list, where: dict) -> Corpus:
    """``Corpus(...)``, naming both places of a repeat from ``where[field]``."""
    try:
        return Corpus(ontologies, questions)
    except DuplicateError as exc:
        places = where[exc.field]
        raise CorpusError(f"{places[exc.second]}: {exc} "
                          f"(first at {places[exc.first]})") from exc


# ---------------------------------------------------------------------------
# Prefix tables


def default_prefix_tables() -> dict[str, dict[str, str]]:
    """Built-in prefix tables for the ontologies of the published corpus."""
    return json.loads(read_text(Path(__file__).parent / "data" / "default_prefixes.json"))


def _load_prefix_tables(path: Path) -> dict[str, dict[str, str]]:
    try:
        tables = json.loads(read_text(path))
    except ValueError as exc:
        raise CorpusError(f"{path}: invalid JSON: {exc}") from exc
    if not (isinstance(tables, dict)
            and all(isinstance(t, dict) for t in tables.values())):
        raise CorpusError(f"{path}: expected an object mapping ontology "
                          "names to prefix tables")
    return tables


def _ontology_from_tables(
    name: str, tables: dict[str, dict[str, str]]
) -> OntologyId:
    table = tables.get(name, {})
    return OntologyId(name, tuple(sorted(table.items())))


# ---------------------------------------------------------------------------
# JSONL format


_ALLOWED_FIELDS = {"id", "ontology", "cq", "query", "answers"}


def load_jsonl(path: Path) -> Corpus:
    path = Path(path)
    text = read_text(path)
    tables_path = path
    sidecar = path.with_suffix(".prefixes.json")
    if sidecar.exists():
        prefix_tables, tables_path = _load_prefix_tables(sidecar), sidecar
    else:
        prefix_tables = default_prefix_tables()
    questions: list[CompetencyQuestion] = []
    lines: list[str] = []
    names: list[str] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise CorpusError(f"{path}:{lineno}: expected an object")
        unknown = set(record) - _ALLOWED_FIELDS
        if unknown:
            raise CorpusError(
                f"{path}:{lineno}: unknown field(s) {sorted(unknown)}"
            )
        for fieldname in ("id", "ontology", "cq"):
            if fieldname not in record:
                raise CorpusError(f"{path}:{lineno}: missing field {fieldname!r}")
            if not isinstance(record[fieldname], str) or not record[fieldname]:
                raise CorpusError(
                    f"{path}:{lineno}: field {fieldname!r} must be a "
                    "nonempty string"
                )
        query = record.get("query")
        if query is not None and not isinstance(query, str):
            raise CorpusError(f"{path}:{lineno}: field 'query' must be a string")
        answers = record.get("answers", [])
        if not isinstance(answers, list) or any(
            not isinstance(a, str) for a in answers
        ):
            raise CorpusError(
                f"{path}:{lineno}: field 'answers' must be a list of strings"
            )
        where = f"{path}:{lineno}"
        _require_encodable(line, record, where)
        questions.append(_question(where, record["id"], record["ontology"],
                                   record["cq"], query, tuple(answers)))
        lines.append(where)
        if record["ontology"] not in names:
            names.append(record["ontology"])
    try:
        ontologies = [_ontology_from_tables(n, prefix_tables) for n in names]
    except CorpusError as exc:
        raise CorpusError(f"{tables_path}: {exc}") from exc
    return _located_corpus(ontologies, questions, {"questions": lines})


def save_jsonl(corpus: Corpus, path: Path) -> None:
    lines = []
    for q in corpus.questions:
        record: dict = {"id": q.id, "ontology": q.ontology, "cq": q.text}
        if q.query_text is not None:
            record["query"] = q.query_text
        if q.expected_answers:
            record["answers"] = list(q.expected_answers)
        lines.append(json.dumps(record, ensure_ascii=False))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# dataset_dir importer


def load_dataset_dir(root: Path) -> Corpus:
    ontologies: list[OntologyId] = []
    questions: list[CompetencyQuestion] = []
    where: dict[str, list[str]] = {"ontologies": [], "questions": []}
    onto_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not onto_dirs:  # most likely the directory around a JSONL corpus
        raise CorpusError(f"{root}: not a dataset directory: it holds no "
                          "<ontology>/manifest.json")
    for onto_dir in onto_dirs:
        manifest_path = onto_dir / "manifest.json"
        if not manifest_path.exists():
            raise CorpusError(f"{onto_dir}: missing manifest.json")
        text = read_text(manifest_path)
        try:
            manifest = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{manifest_path}: invalid JSON: {exc}") from exc
        _require_encodable(text, manifest, str(manifest_path))
        if not isinstance(manifest, dict):
            raise CorpusError(f"{manifest_path}: expected a JSON object")
        name = manifest.get("ontology")
        prefixes = manifest.get("prefixes", {})
        if not isinstance(name, str) or not name:
            raise CorpusError(f"{manifest_path}: 'ontology' must be a nonempty string")
        if not isinstance(prefixes, dict):
            raise CorpusError(f"{manifest_path}: 'prefixes' must be an object")
        try:
            ontologies.append(OntologyId(name, tuple(sorted(prefixes.items()))))
        except CorpusError as exc:
            raise CorpusError(f"{manifest_path}: {exc}") from exc
        where["ontologies"].append(str(manifest_path))
        qdir = onto_dir / "questions"
        if not qdir.is_dir():
            raise CorpusError(f"{onto_dir}: missing questions/ directory")
        for qfile in sorted(qdir.glob("*.txt")):
            cq_id = qfile.stem
            raw = read_text(qfile)
            text = raw.strip()
            first_line = raw[:raw.find(text)].count("\n") + 1
            query_file = onto_dir / "queries" / f"{cq_id}.rq"
            query = read_text(query_file) if query_file.exists() else None
            questions.append(_question(f"{qfile}:{first_line}", cq_id, name,
                                       text, query))
            where["questions"].append(str(qfile))
    return _located_corpus(ontologies, questions, where)


def load_corpus(path: Path) -> Corpus:
    """The corpus at ``path``: a dataset directory, or else a JSONL file."""
    path = Path(path)
    return load_dataset_dir(path) if path.is_dir() else load_jsonl(path)


# ---------------------------------------------------------------------------
# Translatability


class TranslatabilityRow(Record):
    ontology: str
    cq_count: int
    translated_count: int


def translatability_report(
    corpus: Corpus,
) -> tuple[list[TranslatabilityRow], list[tuple[str, str]]]:
    """Per-ontology CQ and translated-CQ counts, plus query parse failures.

    A CQ counts as translated when its query text parses; unparseable
    queries are reported separately and counted as untranslated.  Rows are
    ordered by descending CQ count and a Total row is appended.
    """
    asts, errors = corpus.parse_queries()
    rows = []
    for name in corpus.ontology_names():
        mine = [q for q in corpus.questions if q.ontology == name]
        translated = sum(1 for q in mine if q.id in asts)
        rows.append(TranslatabilityRow(name, len(mine), translated))
    rows.sort(key=lambda r: (-r.cq_count, r.ontology))
    rows.append(
        TranslatabilityRow(
            "Total",
            sum(r.cq_count for r in rows),
            sum(r.translated_count for r in rows),
        )
    )
    return rows, errors
