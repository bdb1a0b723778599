from __future__ import annotations

import json
import os
import re
import shutil

import pytest

from cqowl.cli import main
from cqowl.corpus import default_prefix_tables
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
    # the input decides the corpus format and the tagger; no flag names them
    (["chunk", "--corpus", CORPUS_PATH, "--tagger", "builtin"],
     "unrecognized arguments: --tagger builtin"),
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


def test_rerun_replaces_each_output_file(tmp_path):
    # a rerun writes new files: a hard link to an old output keeps the old
    # file, and a symlink in --out is replaced, not followed
    out = tmp_path / "out"
    assert run("report", "--corpus", CORPUS_PATH, "--out", out) == 0
    names = ["signatures.csv", "signatures.md", "parsed_queries.jsonl", "run_manifest.json"]
    old = {}
    for name in names:
        os.link(out / name, tmp_path / name)
        old[name] = (tmp_path / name).read_bytes()
    outside = tmp_path / "outside.csv"
    outside.write_text("kept\n", encoding="utf-8")
    (out / "keywords.csv").unlink()
    (out / "keywords.csv").symlink_to(outside)
    assert run("report", "--corpus", CORPUS_PATH, "--out", out) == 0
    for name in names:
        assert not os.path.samefile(out / name, tmp_path / name)
        assert (tmp_path / name).read_bytes() == old[name]
    assert outside.read_text(encoding="utf-8") == "kept\n"
    assert not (out / "keywords.csv").is_symlink()
    assert (out / "keywords.csv").read_text(encoding="utf-8").startswith("keyword,")


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
    assert run(command, "--corpus", corpus, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {where}: field 'cq' has no word: '?'\n"
    assert not out.exists()


TWO_ONTOLOGIES = [
    ("AWO", "awo_1", "Which plants eat animals?",
     "SELECT ?x WHERE { ?x rdfs:subClassOf awo:plant }"),
    ("AWO", "awo_2", "Is [this animal] a herbivore?",
     "ASK { awo:lion rdfs:subClassOf awo:herbivore }"),
    ("AWO", "awo_3", "Which animals eat plants?", None),
    ("SWO", "swo_1", "Which software reads [this format]?",
     "SELECT ?x WHERE { ?x rdfs:subClassOf swo:software }"),
]


@pytest.mark.parametrize("command, table, lines", [("chunk", "chunks.csv", 5),
                                                   ("signatures", "signatures.csv", 3)])
def test_a_directory_is_a_dataset_and_a_file_is_jsonl(tmp_path, command, table, lines):
    # the same corpus in both layouts; the directories sort as the JSONL
    # lists the ontologies, so both give the same CQ order
    jsonl = tmp_path / "c.jsonl"
    jsonl.write_text("".join(
        json.dumps({"id": cq_id, "ontology": onto, "cq": text,
                    **({"query": query} if query else {})}) + "\n"
        for onto, cq_id, text, query in TWO_ONTOLOGIES), encoding="utf-8")
    dataset = tmp_path / "dataset"
    tables = default_prefix_tables()
    for onto, cq_id, text, query in TWO_ONTOLOGIES:
        onto_dir = dataset / onto.lower()
        (onto_dir / "questions").mkdir(parents=True, exist_ok=True)
        (onto_dir / "queries").mkdir(exist_ok=True)
        (onto_dir / "manifest.json").write_text(json.dumps(
            {"ontology": onto, "prefixes": tables[onto]}), encoding="utf-8")
        (onto_dir / "questions" / f"{cq_id}.txt").write_text(text + "\n", encoding="utf-8")
        if query:
            (onto_dir / "queries" / f"{cq_id}.rq").write_text(query, encoding="utf-8")
    outputs = []
    for corpus in (jsonl, dataset):
        out = tmp_path / f"out-{corpus.name}"
        assert run(command, "--corpus", corpus, "--out", out, "--emit", "csv") == 0
        outputs.append(read_all(out))
    assert outputs[0] == outputs[1]
    assert outputs[0][table].count(b"\n") == lines


def test_conllu_dir_alone_selects_the_conllu_annotations(tmp_path):
    corpus = write_corpus(tmp_path / "c.jsonl", [("q1", "ASK { ?x a ?y }")])
    conllu_dir = tmp_path / "conllu"
    conllu_dir.mkdir()
    # "eat" as a noun: one entity chunk where the built-in tagger finds a verb
    (conllu_dir / "q1.conllu").write_text(conllu([
        ("Which", "PRON", 2), ("plants", "NOUN", 0), ("eat", "NOUN", 2),
        ("animals", "NOUN", 2), ("?", "PUNCT", 2)]), encoding="utf-8")
    for flags, recorded, chunks in (
        ([], None, "EC1=plants; EC2=animals; PC1=eat,Which EC1 PC1 EC2"),
        (["--conllu-dir", conllu_dir], str(conllu_dir),
         "EC1=plants eat animals,Which EC1"),
    ):
        out = tmp_path / ("conllu-out" if flags else "builtin-out")
        assert run("chunk", "--corpus", corpus, "--out", out, *flags) == 0
        rows = (out / "chunks.csv").read_text(encoding="utf-8").splitlines()
        assert rows[1] == f"q1,AWO,{chunks}"
        manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
        assert manifest["conllu_dir"] == recorded
        assert "tagger" not in manifest and "format" not in manifest


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


@pytest.mark.parametrize("ending", ["\r", "\r\n", "\n"])
def test_markdown_cells_turn_each_line_ending_into_one_space(tmp_path, ending):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": qid, "ontology": "AWO", "cq": "Which plants eat animals?"}) + "\n"
        for qid in (f"q{ending}1", "q2")), encoding="utf-8")
    out = tmp_path / "out"
    assert run("chunk", "--corpus", corpus, "--out", out, "--emit", "md") == 0
    text = (out / "chunks.md").read_bytes().decode("utf-8")
    assert len(text.splitlines()) == 4  # the header, its rule and two rows
    assert "| q 1 " in text and "\r" not in text


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
    (conllu(WHICH_PLANTS[:1] + [("plants", "NOUN", "x")] + WHICH_PLANTS[2:]),
     "line 2: non-numeric HEAD 'x'"),
    (None, "Is a directory"),
    (b"1\tWh\xffich\n", "byte 4: not UTF-8 (invalid start byte)"),
], ids=["two-columns", "no-match", "three-roots", "head-out-of-range",
        "non-numeric-head", "directory", "not-utf8"])
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
    assert run("chunk", "--corpus", corpus, "--conllu-dir", path.parent,
               "--out", out) == 1
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
    assert run("validate", "--corpus", corpus) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {table}: ")
    assert message in err


NOT_UTF8 = "byte 0: not UTF-8 (invalid start byte)"


# ``corpus`` is the --corpus argument; the error names the file ``bad``
@pytest.mark.parametrize("corpus, bad, content, message", [
    ("c.jsonl", "c.jsonl", b"\xff{}\n", NOT_UTF8),
    ("dataset", "dataset/awo/questions/q1.txt", b"\xffWhich plants?\n", NOT_UTF8),
    ("dataset", "dataset/awo/queries/q1.rq", b"\xffASK { ?x a ?y }\n", NOT_UTF8),
    ("dataset", "dataset/awo/manifest.json", b'\xff{"ontology": "AWO"}', NOT_UTF8),
    # a directory is read as a dataset: "." holds no manifest.json, and a
    # directory of files holds no ontology directory
    (".", "dataset", None, "missing manifest.json"),
    ("dataset/awo/queries", "dataset/awo/queries", None,
     "not a dataset directory: it holds no <ontology>/manifest.json"),
], ids=["jsonl-not-utf8", "question-not-utf8", "query-not-utf8",
        "manifest-not-utf8", "corpus-dot", "directory-as-jsonl"])
@pytest.mark.parametrize("command", ["validate", "report"])
def test_unreadable_corpus_exit_1_naming_the_file(tmp_path, capsys, monkeypatch, command,
                                                  corpus, bad, content, message):
    monkeypatch.chdir(tmp_path)
    onto = tmp_path / "dataset" / "awo"
    (onto / "questions").mkdir(parents=True)
    (onto / "queries").mkdir()
    (onto / "manifest.json").write_text('{"ontology": "AWO"}', encoding="utf-8")
    (onto / "questions" / "q1.txt").write_text("Which plants?\n", encoding="utf-8")
    (onto / "queries" / "q1.rq").write_text("ASK { ?x a ?y }\n", encoding="utf-8")
    if content is not None:
        (tmp_path / bad).write_bytes(content)
    assert run(command, "--corpus", corpus, "--out", "out") == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("below_a_file", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize("command", ["keywords", "report"])
def test_unusable_out_exit_1_naming_the_path(tmp_path, capsys, command, below_a_file):
    blocker = tmp_path / "F"
    blocker.write_text("kept\n", encoding="utf-8")
    out = blocker / "sub" if below_a_file else blocker
    assert run(command, "--corpus", CORPUS_PATH, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert blocker.read_text(encoding="utf-8") == "kept\n"


GOOD_RECORD = {"id": "q1", "ontology": "AWO", "cq": "Which plants eat animals?"}


@pytest.mark.parametrize("layout, bad, content, message", [
    ("jsonl", None, ["q2"], "{corpus}:2: expected an object"),
    ("jsonl", None, {**GOOD_RECORD, "id": "q2", "extra": 1},
     "{corpus}:2: unknown field(s) ['extra']"),
    ("jsonl", None, {"id": "q2", "ontology": "AWO"}, "{corpus}:2: missing field 'cq'"),
    ("jsonl", None, {**GOOD_RECORD, "id": ""},
     "{corpus}:2: field 'id' must be a nonempty string"),
    ("jsonl", None, {**GOOD_RECORD, "id": "q2", "ontology": 5},
     "{corpus}:2: field 'ontology' must be a nonempty string"),
    ("jsonl", None, {**GOOD_RECORD, "id": "q2", "cq": ""},
     "{corpus}:2: field 'cq' must be a nonempty string"),
    ("jsonl", None, {**GOOD_RECORD, "id": "q2", "query": 5},
     "{corpus}:2: field 'query' must be a string"),
    ("jsonl", None, {**GOOD_RECORD, "id": "q2", "answers": "x"},
     "{corpus}:2: field 'answers' must be a list of strings"),
    ("jsonl", None, {**GOOD_RECORD, "id": "q2", "answers": ["x", 1]},
     "{corpus}:2: field 'answers' must be a list of strings"),
    # a file in the dataset root's place is read as JSONL
    ("dataset_dir", "", '{"ontology": "AWO"}', "{corpus}:1: missing field 'id'"),
    ("dataset_dir", "awo/manifest.json", "{oops", "{corpus}/awo/manifest.json: invalid JSON"),
    ("dataset_dir", "awo/manifest.json", '["AWO"]',
     "{corpus}/awo/manifest.json: expected a JSON object"),
    ("dataset_dir", "awo/manifest.json", '{"ontology": ""}',
     "{corpus}/awo/manifest.json: 'ontology' must be a nonempty string"),
    ("dataset_dir", "awo/manifest.json", '{"ontology": "AWO", "prefixes": ["awo"]}',
     "{corpus}/awo/manifest.json: 'prefixes' must be an object"),
    ("dataset_dir", "awo/questions", None, "{corpus}/awo: missing questions/ directory"),
    ("dataset_dir", "awo/questions/q1.txt", "Which [plants eat animals?",
     "{corpus}/awo/questions/q1.txt:1: unclosed '[' at offset 6"),
    ("dataset_dir", "awo/queries/q9.rq", "ASK { ?x a ?y }",
     "{corpus}/awo/queries/q9.rq: a query without a question: no questions/q9.txt"),
    ("dataset_dir", "awo/questions/q2.TXT", "Which animals eat plants?",
     "{corpus}/awo/questions/q2.TXT: not a question file: its name must end in .txt"),
], ids=["not-an-object", "unknown-field", "missing-cq", "empty-id", "int-ontology",
        "empty-cq", "int-query", "answers-string", "answers-int", "root-not-a-directory",
        "manifest-not-json", "manifest-not-an-object", "empty-ontology",
        "prefixes-not-an-object", "no-questions-directory", "unclosed-bracket",
        "query-without-question", "question-not-txt"])
def test_malformed_corpus_exit_1_naming_file_line_and_field(tmp_path, capsys, layout,
                                                            bad, content, message):
    if layout == "jsonl":
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(content) + "\n",
                          encoding="utf-8")
    else:
        corpus = tmp_path / "dataset"
        (corpus / "awo" / "questions").mkdir(parents=True)
        (corpus / "awo" / "manifest.json").write_text('{"ontology": "AWO"}',
                                                      encoding="utf-8")
        (corpus / "awo" / "questions" / "q1.txt").write_text(
            "Which plants eat animals?\n", encoding="utf-8")
        path = corpus / bad
        if path.is_dir():  # the directory goes; a file may take its place
            shutil.rmtree(path)
        if content is not None:
            path.parent.mkdir(exist_ok=True)
            path.write_text(content, encoding="utf-8")
    assert run("validate", "--corpus", corpus) == 1
    assert capsys.readouterr().err.startswith("error: " + message.format(corpus=corpus))


def test_stoplist_file_drops_ngrams_of_only_its_words(tmp_path):
    def discovered(out, *flags):
        assert run("signals", "--corpus", CORPUS_PATH, "--out", out,
                   "--emit", "csv", *flags) == 0
        rows = (out / "discovered_signals.csv").read_text(encoding="utf-8").splitlines()
        return {row.split(",", 1)[0] for row in rows[1:]}

    before = discovered(tmp_path / "default")
    assert {"are necessary", "necessary", "are necessary for"} <= before
    stoplist = tmp_path / "stop.txt"
    stoplist.write_text("  Necessary \n\nARE\n", encoding="utf-8")
    after = discovered(tmp_path / "custom", "--stoplist", stoplist)
    assert not {"are necessary", "necessary", "are"} & after
    # a word outside the list keeps its n-grams, and the list replaces the
    # default one, whose words count again
    assert "are necessary for" in after and "for" in after - before
