"""Semantics of the shared record base, pinned through the records that use
it, and guards that importing the CLI stays free of ``dataclasses``, each
subcommand loads only the modules it runs, and loading the bundled corpus
stays free of ``importlib.resources``."""
from __future__ import annotations

import os
import subprocess
import sys

import pytest

from cqowl.patterns import Pattern
from cqowl.queryparse import (
    And,
    BlankNodeLabel,
    In,
    Literal,
    Or,
    PathAtom,
    PathSequence,
    PrefixedName,
    TermRef,
    Variable,
)
from cqowl.reporting import Table
from tests.conftest import REPO_ROOT


def test_equality_is_keyed_on_the_exact_type():
    assert Variable("x") != BlankNodeLabel("x")
    assert len({Variable("x"), BlankNodeLabel("x")}) == 2
    part = (TermRef(Variable("x")),)
    assert And(part) != Or(part)
    assert len({And(part), Or(part)}) == 2


def test_equal_records_hash_equal():
    a = Literal("1", datatype=PrefixedName("xsd", "integer"))
    b = Literal("1", PrefixedName("xsd", "integer"), None)
    assert a == b
    assert hash(a) == hash(b)
    assert Variable("x") == Variable("x", "?") != Variable("x", "$")


def test_frozen_records_refuse_assignment_and_deletion():
    v = Variable("x")
    with pytest.raises(AttributeError):
        v.name = "y"
    with pytest.raises(AttributeError):
        del v.name
    with pytest.raises(AttributeError):
        v.extra = 1
    assert v.name == "x"


def test_mutable_records_get_fresh_defaults_and_no_hash():
    first, second = Pattern("t", "l"), Pattern("t", "l")
    first.support.append("cq1")
    first.ontologies.add("awo")
    assert second.support == [] and second.ontologies == set()
    assert Table("a", ["c"]).rows is not Table("a", ["c"]).rows
    with pytest.raises(TypeError):
        hash(second)


def test_repr_names_every_field():
    assert repr(Variable("x")) == "Variable(name='x', marker='?')"
    assert repr(Pattern("t", "l")) == (
        "Pattern(text='t', level='l', support=[], ontologies=set())")


def test_construction_checks_arguments():
    with pytest.raises(TypeError):
        Variable()
    with pytest.raises(TypeError):
        Variable("x", "?", "extra")
    with pytest.raises(TypeError):
        Variable("x", colour="red")
    assert Variable(marker="$", name="x") == Variable("x", "$")


def test_post_init_checks_still_run():
    atom = PathAtom(PrefixedName("ex", "p"))
    with pytest.raises(ValueError):
        PathSequence((atom,))
    with pytest.raises(ValueError):
        In(TermRef(Variable("x")), ())


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # building record classes with the dataclass decorator cost tens of
    # milliseconds in every process, and importing it loads ``inspect``
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, cqowl.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


_VALIDATE_MODULES = {"cli", "corpus", "queryparse", "records", "reporting"}


@pytest.mark.parametrize("argv, modules", [
    (None, _VALIDATE_MODULES),
    (["validate"], _VALIDATE_MODULES),
    (["keywords"], _VALIDATE_MODULES | {"pipeline"}),
    (["parse"], _VALIDATE_MODULES | {"pipeline"}),
    (["chunk"], _VALIDATE_MODULES | {"pipeline", "linguistics", "patterns"}),
    (["signatures"], _VALIDATE_MODULES | {"pipeline", "signatures"}),
    (["report", "--paper-calibration"], _VALIDATE_MODULES | {
        "pipeline", "linguistics", "patterns", "signatures", "correspondence",
        "reference"}),
], ids=["import", "validate", "keywords", "parse", "chunk", "signatures",
        "report"])
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, modules):
    # every process compiles each module it imports, so a module that a
    # subcommand does not run must stay unloaded; ``None`` only imports
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    if argv is not None:
        argv = argv + ["--corpus", str(REPO_ROOT / "data" / "cq_sparql_owl.jsonl"),
                       "--out", str(tmp_path)]
    call = "0" if argv is None else f"main({argv!r})"
    code = ("import sys\nfrom cqowl.cli import main\n"
            f"code = {call}\n"
            "print(sorted(m for m in sys.modules if m.startswith('cqowl.')))\n"
            "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == str(sorted(f"cqowl.{m}" for m in modules))


def test_loading_the_bundled_corpus_leaves_importlib_resources_unloaded():
    # from Python 3.12 on ``importlib.resources`` loads ``inspect``, ``ast``,
    # ``dis`` and ``tokenize``; ``-S`` keeps site-packages ``.pth`` files,
    # which may import it at startup, out of the measurement
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys; from cqowl.corpus import load_corpus; "
            f"load_corpus({str(REPO_ROOT / 'data' / 'cq_sparql_owl.jsonl')!r}); "
            "print('importlib.resources' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
