"""Bounded fuzz of the CLI's exit contract: one field of a three-record
corpus is mutated, and ``validate`` and ``report`` run in-process on it.
Each exits 0 or 1 (2 is a bug), and a corpus that ``validate`` accepts
``report`` must process."""
from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cqowl.cli import main

_RECORDS = [
    {"id": "awo_1", "ontology": "AWO", "cq": "Which animals eat plants?",
     "query": "SELECT DISTINCT ?x WHERE { ?x rdfs:subClassOf awo:animal, "
              "[ a owl:Restriction ; owl:onProperty awo:eats ; "
              "owl:someValuesFrom awo:plant ] . FILTER(?x != owl:Nothing) }"},
    {"id": "awo_2", "ontology": "AWO", "cq": "Is [this animal] a herbivore?",
     "query": "ASK WHERE { $animal rdfs:subClassOf awo:herbivore . }"},
    {"id": "swo_1", "ontology": "SWO", "cq": "What is the license of [this software]?"},
]
_SPARQL_PIECES = [
    "SELECT", "ASK", "DISTINCT", "*", "WHERE", "{", "}", "(", ")", "[", "]", ".", ";",
    ",", "a", "?x", "?y", "$p", "_:b", "awo:eats", "owl:Nothing", "rdfs:subClassOf",
    "rdf:rest*/rdf:first", "undeclared:p", "<http://example.org/C>", '"v"',
    '"1"^^xsd:integer', '"a"@en', "FILTER", "NOT EXISTS", "BIND(", "AS", "UNION",
    "=", "!=", "&&", "||", "IN", "+", "STRSTARTS(", "now()", "PREFIX ex: <http://e/>",
    "#", "\n",
]


@st.composite
def _queries(draw, base: str):
    """``base`` cut at two points with SPARQL pieces spliced in between, or
    pieces alone."""
    pieces = " ".join(draw(st.lists(st.sampled_from(_SPARQL_PIECES), max_size=8)))
    if draw(st.booleans()):
        return pieces
    cut = draw(st.integers(0, len(base)))
    end = draw(st.integers(cut, len(base)))
    return base[:cut] + pieces + base[end:]


# any text, or text with a lone surrogate, which JSON can escape but UTF-8
# cannot encode
_TEXT = st.one_of(st.text(max_size=20), st.sampled_from(["\ud800", "Which \udfff plants?"]))


@st.composite
def _corpora(draw) -> list[dict]:
    records = [dict(r) for r in _RECORDS]
    record = draw(st.sampled_from(records))
    field = draw(st.sampled_from(["id", "ontology", "cq", "query"]))
    if field == "id":
        value = draw(st.one_of(st.sampled_from([r["id"] for r in _RECORDS]), _TEXT))
    elif field == "ontology":
        value = draw(st.one_of(st.sampled_from(["AWO", "SWO", "Stuff", "Dem@Care", "OntoDT"]),
                               _TEXT))
    elif field == "cq":
        # punctuation only, any text, or a CQ with one placeholder bracket moved
        value = draw(st.one_of(st.text("?!.,;:'\"-[]() ", max_size=5), _TEXT,
                               st.sampled_from(["Is [this animal a herbivore?",
                                                "Is this] animal [a] herbivore?"])))
    else:
        value = draw(st.one_of(st.none(), _queries(record.get("query", _RECORDS[0]["query"]))))
    if value is None:
        record.pop(field, None)
    else:
        record[field] = value
    return records


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_corpora())
def test_validate_accepts_only_what_report_processes(records):
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
        corpus = Path(tmp) / "c.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        validated = main(["validate", "--corpus", str(corpus)])
        reported = main(["report", "--corpus", str(corpus), "--out", str(Path(tmp) / "out")])
    assert validated in (0, 1) and reported in (0, 1)
    assert reported == 0 or validated == 1
