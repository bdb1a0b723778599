"""Semantics of the shared record base, pinned through the records that use
it, and a guard that importing the CLI stays free of ``dataclasses``."""
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
