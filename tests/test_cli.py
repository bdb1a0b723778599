from __future__ import annotations

import json
import re

import pytest

from cqowl.cli import main
from tests.conftest import CORPUS_PATH


def run(*args):
    return main([str(a) for a in args])


def read_all(out_dir):
    data = {}
    for path in sorted(out_dir.glob("*")):
        if path.name == "run_manifest.json":
            continue
        data[path.name] = path.read_bytes()
    return data


def test_validate_ok(capsys):
    assert run("validate", "--corpus", CORPUS_PATH) == 0
    err = capsys.readouterr().err
    assert "234 CQs" in err
    assert "131" in err


@pytest.mark.parametrize("args, message", [
    (["chunk", "--corpus", CORPUS_PATH, "--tagger", "bogus"],
     "argument --tagger: invalid choice: 'bogus'"),
    (["report", "--corpus", CORPUS_PATH, "--max-triples", "abc"],
     "argument --max-triples: invalid int value: 'abc'"),
    (["validate"], "the following arguments are required: --corpus"),
    (["bogus", "--corpus", CORPUS_PATH], "invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
])
def test_usage_errors_exit_1_with_argparse_message(tmp_path, capsys, monkeypatch,
                                                   args, message):
    monkeypatch.chdir(tmp_path)
    assert run(*args) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: cqowl") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        run(flag)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_validate_duplicate_id_exit_1(tmp_path, capsys):
    path = tmp_path / "dup.jsonl"
    record = json.dumps({"id": "dup_1", "ontology": "AWO",
                         "cq": "Which plants eat animals?"})
    path.write_text(record + "\n" + record + "\n", encoding="utf-8")
    assert run("validate", "--corpus", path) == 1
    assert "dup_1" in capsys.readouterr().err


def test_missing_corpus_exit_1():
    assert run("validate", "--corpus", "/nonexistent/corpus.jsonl") == 1


def test_chunk_outputs(tmp_path):
    out = tmp_path / "out"
    assert run("chunk", "--corpus", CORPUS_PATH, "--out", out) == 0
    table = (out / "chunks.csv").read_text(encoding="utf-8")
    assert "awo_6" in table
    assert "Which EC1 PC1 EC2" in table
    assert (out / "chunks.md").exists()


def test_patterns_outputs(tmp_path):
    out = tmp_path / "out"
    assert run("patterns", "--corpus", CORPUS_PATH, "--out", out,
               "--paper-calibration") == 0
    coverage = (out / "pattern_coverage.csv").read_text(encoding="utf-8")
    assert coverage.splitlines()[0] == (
        "ontology,candidates,patterns,distinct_patterns,coverage_pct,"
        "materialized,dematerialized,distinct_higher"
    )
    assert "Total,234,209," in coverage
    assert (out / "shared_patterns.csv").exists()
    assert (out / "shared_highers.csv").exists()
    assert (out / "pattern_inventory.jsonl").exists()
    assert (out / "pattern_coverage_calibration.csv").exists()


def test_keywords_and_parse_outputs(tmp_path):
    out = tmp_path / "out"
    assert run("keywords", "--corpus", CORPUS_PATH, "--out", out, "--emit", "csv") == 0
    keywords = (out / "keywords.csv").read_text(encoding="utf-8")
    assert keywords.splitlines()[1].startswith("WHERE,131")
    assert not (out / "keywords.md").exists()

    assert run("parse", "--corpus", CORPUS_PATH, "--out", out) == 0
    report = (out / "parse_report.csv").read_text(encoding="utf-8")
    assert report.count(",ok,") == 131
    translat = (out / "translatability.csv").read_text(encoding="utf-8")
    assert "Total,234,131" in translat


def test_signatures_map_signals(tmp_path):
    out = tmp_path / "out"
    assert run("signatures", "--corpus", CORPUS_PATH, "--out", out,
               "--paper-calibration") == 0
    assert (out / "signatures.csv").exists()
    assert (out / "signature_inventory.jsonl").exists()
    calib = (out / "signatures_calibration.csv").read_text(encoding="utf-8")
    assert "distinct signatures" in calib

    assert run("map", "--corpus", CORPUS_PATH, "--out", out) == 0
    assert (out / "mapping_pattern.csv").exists()
    assert (out / "mapping_pattern_summary.csv").exists()

    assert run("signals", "--corpus", CORPUS_PATH, "--out", out) == 0
    signals = (out / "signals.csv").read_text(encoding="utf-8")
    assert "107/107" in signals
    assert (out / "discovered_signals.csv").exists()


def test_max_triples_records_skips(tmp_path):
    out = tmp_path / "out"
    assert run("signatures", "--corpus", CORPUS_PATH, "--out", out,
               "--max-triples", "4") == 0
    skipped = (out / "signatures_skipped.csv").read_text(encoding="utf-8")
    assert len(skipped.splitlines()) > 1  # several five-plus-triple queries
    assert "over the bound" in skipped


def test_report_runs_everything_deterministically(tmp_path):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    assert run("report", "--corpus", CORPUS_PATH, "--out", out1,
               "--paper-calibration") == 0
    assert run("report", "--corpus", CORPUS_PATH, "--out", out2,
               "--paper-calibration") == 0
    first = read_all(out1)
    second = read_all(out2)
    assert first == second  # byte-identical data outputs
    expected = {
        "chunks.csv", "pattern_coverage.csv", "cq_features.csv",
        "parse_report.csv", "keywords.csv", "signatures.csv",
        "mapping_pattern.csv", "signals.csv", "discovered_signals.csv",
        "translatability.csv",
    }
    assert expected <= set(first)
    assert (out1 / "run_manifest.json").exists()


def test_overrides_flow(tmp_path):
    # awo_2 is dematerialized, so its corrected candidate always survives
    overrides = tmp_path / "overrides.json"
    overrides.write_text(json.dumps({"awo_2": "Overridden EC1"}),
                         encoding="utf-8")
    out = tmp_path / "out"
    assert run("patterns", "--corpus", CORPUS_PATH, "--out", out,
               "--overrides", overrides) == 0
    inventory = (out / "pattern_inventory.jsonl").read_text(encoding="utf-8")
    assert "Overridden EC1" in inventory


def write_corpus(path, queries):
    """A JSONL corpus with one AWO record per (id, query) pair."""
    lines = [json.dumps({"id": qid, "ontology": "AWO",
                         "cq": "Which plants eat animals?", "query": query})
             for qid, query in queries]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_undeclared_prefix_is_untranslatable(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "c.jsonl", [
        ("good", "SELECT ?x WHERE { ?x rdfs:subClassOf awo:plant }"),
        ("bad", "SELECT ?x WHERE { ?x mystery:p ?y }"),
    ])
    assert run("validate", "--corpus", corpus) == 0
    err = capsys.readouterr().err
    assert "warning: query of bad does not parse" in err
    assert "'mystery'" in err and "line 1, column 22" in err
    assert "1 with parseable queries" in err
    out = tmp_path / "out"
    assert run("report", "--corpus", corpus, "--out", out) == 0
    untranslatable = (out / "untranslatable_queries.csv").read_text(encoding="utf-8")
    assert untranslatable.splitlines()[1].startswith("bad,")
    assert "bad" in (out / "keywords_excluded.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("layout", ["jsonl", "dataset_dir"])
@pytest.mark.parametrize("command", ["validate", "report"])
def test_cq_without_a_word_exit_1(tmp_path, capsys, command, layout):
    # annotation and classification have nothing to work on in a bare "?";
    # the loader rejects it, so validate and report agree on exit 1
    if layout == "jsonl":
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps({"id": "q1", "ontology": "AWO", "cq": "?",
                                      "query": "ASK { ?x a ?y }"}) + "\n",
                          encoding="utf-8")
        where = f"{corpus}:1"
    else:
        corpus = tmp_path / "dataset"
        (corpus / "awo" / "questions").mkdir(parents=True)
        (corpus / "awo" / "manifest.json").write_text(
            json.dumps({"ontology": "AWO"}), encoding="utf-8")
        question = corpus / "awo" / "questions" / "q1.txt"
        question.write_text("\n?\n", encoding="utf-8")
        where = f"{question}:2"
    out = tmp_path / "out"
    assert run(command, "--corpus", corpus, "--format", layout,
               "--out", out) == 1
    assert capsys.readouterr().err == f"error: {where}: field 'cq' has no word: '?'\n"
    assert not out.exists()


def test_verbless_cq_starting_with_an_adposition_reports(tmp_path):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(json.dumps({"id": "q1", "ontology": "AWO",
                                  "cq": "In which country?"}) + "\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    assert run("report", "--corpus", corpus, "--out", out) == 0
    chunks = (out / "chunks.csv").read_text(encoding="utf-8").splitlines()
    assert chunks[1] == "q1,AWO,EC1=country,In which EC1"


def test_markdown_cells_escape_pipes(tmp_path):
    corpus = write_corpus(tmp_path / "c.jsonl", [
        ("q1", "SELECT ?x WHERE { ?x a awo:plant . "
               "FILTER(?x = awo:a || ?x = awo:b) }"),
    ])
    out = tmp_path / "out"
    assert run("signatures", "--corpus", corpus, "--out", out,
               "--emit", "md") == 0
    lines = (out / "signatures.md").read_text(encoding="utf-8").splitlines()
    row = next(line for line in lines if "FILTER" in line)
    unescaped = len(re.findall(r"(?<!\\)\|", row))
    assert unescaped == len(lines[0].split("|")) - 1 == 8
    assert r"\|\|" in row


@pytest.mark.parametrize("flag, value", [
    ("--emit", "csv,html"),
    ("--emit", ""),
    ("--emit", ","),
    ("--min-support", "1"),
    ("--max-triples", "0"),
    ("--max-triples", "-1"),
    ("--overrides", "missing.json"),
    ("--overrides", "not-json.json"),
    ("--overrides", "list.json"),
    ("--rules", "missing.json"),
    ("--rules", "not-json.json"),
    ("--rules", "object.json"),
    ("--rules", "unknown-matcher.json"),
    ("--rules", "unknown-target.json"),
    ("--rules", "bad-skeleton.json"),
    ("--rules", "undeclared-prefix.json"),
    ("--rules", "string-matcher.json"),
    ("--stoplist", "missing.txt"),
    ("--stoplist", "."),
])
@pytest.mark.parametrize("command", ["validate", "report"])
def test_bad_flag_values_exit_1(tmp_path, capsys, command, flag, value):
    (tmp_path / "not-json.json").write_text("{oops", encoding="utf-8")
    (tmp_path / "list.json").write_text('["awo_2"]', encoding="utf-8")
    (tmp_path / "object.json").write_text('{"id": "r"}', encoding="utf-8")
    rule = {"id": "r", "matcher_kind": "contains_word", "matcher_value": ["or"],
            "target_kind": "skeleton", "target_value": "ASK { ?x a ?y }"}
    for name, field, bad in (
        ("unknown-matcher.json", "matcher_kind", "initial"),
        ("unknown-target.json", "target_kind", "shape"),
        ("bad-skeleton.json", "target_value", "ASK { ?x a"),
        ("undeclared-prefix.json", "target_value", "ASK { ?x zz:p ?y }"),
        ("string-matcher.json", "matcher_value", "or"),
    ):
        (tmp_path / name).write_text(json.dumps([{**rule, field: bad}]),
                                     encoding="utf-8")
    if value.endswith(".json"):
        value = tmp_path / value
    out = tmp_path / "out"
    # a corpus that does not exist shows the flags are checked before loading
    for corpus in (CORPUS_PATH, tmp_path / "no-corpus.jsonl"):
        assert run(command, "--corpus", corpus, "--out", out, flag, value) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}")
    assert not out.exists()


WHICH_PLANTS = [("Which", "PRON", 2), ("plants", "NOUN", 3), ("eat", "VERB", 0),
                ("animals", "NOUN", 3), ("?", "PUNCT", 3)]


def conllu(tokens):
    return "".join(f"{i}\t{form}\t{form}\t{upos}\t_\t_\t{head}\tdep\t_\t_\n"
                   for i, (form, upos, head) in enumerate(tokens, 1))


@pytest.mark.parametrize("text, message", [
    ("1\tWhich\n", "line 1: expected 10 columns, got 2"),
    (conllu([("Which", "PRON", 2), ("plants", "NOUN", 0)]),
     "no sentence matches the CQ text 'Which plants eat animals?'"),
    (conllu([(f, u, 0) for f, u, _ in WHICH_PLANTS[:3]] + WHICH_PLANTS[3:]),
     "sentence at line 1: expected exactly one root, got 3"),
    (conllu(WHICH_PLANTS[:3] + [("animals", "NOUN", 9), WHICH_PLANTS[4]]),
     "line 4: HEAD 9 out of range"),
    (None, "Is a directory"),
    (b"1\tWh\xffich\n", "byte 4: not UTF-8 (invalid start byte)"),
], ids=["two-columns", "no-match", "three-roots", "head-out-of-range",
        "directory", "not-utf8"])
def test_conllu_errors_exit_1_naming_the_file(tmp_path, capsys, text, message):
    corpus = write_corpus(tmp_path / "c.jsonl", [("q1", "ASK { ?x a ?y }")])
    (tmp_path / "conllu").mkdir()
    path = tmp_path / "conllu" / "q1.conllu"
    if text is None:
        path.mkdir()
    elif isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert run("chunk", "--corpus", corpus, "--tagger", "conllu",
               "--conllu-dir", path.parent, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("layout, prefixes, message", [
    ("jsonl", "{oops", "invalid JSON"),
    ("jsonl", "[]", "expected an object mapping ontology names"),
    ("jsonl", '{"AWO": ["awo"]}', "expected an object mapping ontology names"),
    ("jsonl", '{"AWO": {"awo": 5}}', "namespace for prefix 'awo' is not an absolute IRI: 5"),
    ("dataset_dir", '{"awo": 5}', "namespace for prefix 'awo' is not an absolute IRI: 5"),
], ids=["not-json", "list", "table-not-object", "int-namespace",
        "manifest-int-namespace"])
def test_malformed_prefix_tables_exit_1(tmp_path, capsys, layout, prefixes, message):
    if layout == "jsonl":
        corpus = write_corpus(tmp_path / "c.jsonl", [("q1", "ASK { ?x a ?y }")])
        table = tmp_path / "c.prefixes.json"
        table.write_text(prefixes, encoding="utf-8")
    else:
        corpus = tmp_path / "dataset"
        (corpus / "awo" / "questions").mkdir(parents=True)
        (corpus / "awo" / "questions" / "q1.txt").write_text(
            "Which plants eat animals?\n", encoding="utf-8")
        table = corpus / "awo" / "manifest.json"
        table.write_text(f'{{"ontology": "AWO", "prefixes": {prefixes}}}',
                         encoding="utf-8")
    assert run("validate", "--corpus", corpus, "--format", layout) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {table}: ")
    assert message in err


NOT_UTF8 = "byte 0: not UTF-8 (invalid start byte)"


@pytest.mark.parametrize("layout, bad, content, message", [
    ("jsonl", "c.jsonl", b"\xff{}\n", NOT_UTF8),
    ("dataset_dir", "dataset/awo/questions/q1.txt", b"\xffWhich plants?\n", NOT_UTF8),
    ("dataset_dir", "dataset/awo/queries/q1.rq", b"\xffASK { ?x a ?y }\n", NOT_UTF8),
    ("dataset_dir", "dataset/awo/manifest.json", b'\xff{"ontology": "AWO"}', NOT_UTF8),
    ("jsonl", ".", None, "Is a directory"),
    ("jsonl", "dataset", None, "Is a directory"),
], ids=["jsonl-not-utf8", "question-not-utf8", "query-not-utf8",
        "manifest-not-utf8", "corpus-dot", "directory-as-jsonl"])
@pytest.mark.parametrize("command", ["validate", "report"])
def test_unreadable_corpus_exit_1_naming_the_file(tmp_path, capsys, monkeypatch, command,
                                                  layout, bad, content, message):
    monkeypatch.chdir(tmp_path)
    onto = tmp_path / "dataset" / "awo"
    (onto / "questions").mkdir(parents=True)
    (onto / "queries").mkdir()
    (onto / "manifest.json").write_text('{"ontology": "AWO"}', encoding="utf-8")
    (onto / "questions" / "q1.txt").write_text("Which plants?\n", encoding="utf-8")
    (onto / "queries" / "q1.rq").write_text("ASK { ?x a ?y }\n", encoding="utf-8")
    if content is not None:
        (tmp_path / bad).write_bytes(content)
    corpus = bad if layout == "jsonl" else "dataset"
    assert run(command, "--corpus", corpus, "--format", layout, "--out", "out") == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not (tmp_path / "out").exists()
