"""Seeded generator of the adversarial canonicalization queries.

Everything here is plain standard library and never imports ``cqowl``: the
generated inputs, and the skeletons they are expected to produce, follow
from the construction alone.  The same seed always gives byte-identical
output.
"""
from __future__ import annotations

import itertools
import random
import string

# canonicalization bound per BGP: the ``--max-triples`` default of the CLI
MAX_PARTS = 16
FAMILIES = ("symmetric", "star", "filter", "objlist")
SIZES = tuple(range(2, MAX_PARTS + 1))
# distinct name/order variants per (family, n); pass p runs variant p % VARIANTS,
# so consecutive passes never hand the canonicalizer the same query twice
VARIANTS = 4
ADV_NAMESPACE = "http://example.org/adversarial#"

# Four families of n parts each.  In every family all n parts coincide once
# IRIs become :URI and variables are renamed, which is the case that makes
# an exact lexicographic-minimum search branch the most.


def _names(rng: random.Random, count: int, first: str) -> list[str]:
    seen: set[str] = set()
    out = []
    while len(out) < count:
        name = rng.choice(first) + "".join(
            rng.choice(string.ascii_lowercase) for _ in range(6))
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def adversarial_query(seed: int, variant: int, family: str, n: int) -> dict:
    """One generated query record: names, part order, text and expected skeleton."""
    rng = random.Random(f"adversarial:{seed}:{variant}:{family}:{n}")
    variables = _names(rng, n + 1, string.ascii_lowercase)
    iris = _names(rng, n + 2, string.ascii_uppercase)
    order = list(range(n))
    rng.shuffle(order)
    record = {
        "id": f"{family}-{n:02d}-v{variant}",
        "family": family,
        "n": n,
        "variables": variables,
        "iris": iris,
    }
    record["text"] = render_adversarial(record, order)
    record["expected"] = expected_skeleton(family, n)
    return record


def render_adversarial(record: dict, order, flips=None) -> str:
    """Query text with the parts in ``order``; ``flips[i]`` swaps the operands
    of FILTER conjunct ``i`` (filter family only)."""
    family = record["family"]
    v = ["?" + name for name in record["variables"]]
    c = ["ex:" + name for name in record["iris"]]
    pred, cls = c[-2], c[-1]
    header = (f"PREFIX ex: <{ADV_NAMESPACE}>\n"
              "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n")
    if family == "symmetric":
        body = [f"    {v[i]} {pred} {c[i]} ." for i in order]
        return header + "SELECT * WHERE {\n" + "\n".join(body) + "\n}"
    if family == "star":
        body = [f"    {v[-1]} {pred} {v[i]} ." for i in order]
        return header + f"SELECT {v[-1]} WHERE {{\n" + "\n".join(body) + "\n}"
    if family == "filter":
        flips = flips or [False] * len(order)
        conj = [f"{c[i]} != {v[-1]}" if flip else f"{v[-1]} != {c[i]}"
                for i, flip in zip(order, flips)]
        return (header + f"SELECT {v[-1]} WHERE {{\n"
                f"    {v[-1]} rdfs:subClassOf {cls} .\n"
                f"    FILTER({' && '.join(conj)})\n}}")
    if family == "objlist":
        objs = ", ".join(c[i] for i in order)
        return (header + f"SELECT {v[-1]} WHERE {{\n"
                f"    {v[-1]} rdfs:subClassOf {objs} .\n}}")
    raise ValueError(f"unknown family {family!r}")


def expected_skeleton(family: str, n: int) -> str:
    """The canonical skeleton each family must produce, by construction."""
    if family == "symmetric":
        lines = ["SELECT * WHERE {"] + [f"?v{i} :URI :URI ." for i in range(1, n + 1)]
    elif family == "star":
        lines = ["SELECT ?proj WHERE {"] + [f"?v1 :URI ?v{i} ." for i in range(2, n + 2)]
    elif family == "filter":
        lines = ["SELECT ?proj WHERE {", "?v1 rdfs:subClassOf :URI .",
                 "FILTER(" + " && ".join([":URI != ?v1"] * n) + ")"]
    elif family == "objlist":
        lines = ["SELECT ?proj WHERE {"] + ["?v1 rdfs:subClassOf :URI ."] * n
    else:
        raise ValueError(f"unknown family {family!r}")
    return "\n".join(lines + ["}"])


def adversarial_set(seed: int) -> list[list[dict]]:
    """VARIANTS lists of queries, one per (family, n), each in a seeded order."""
    passes = []
    for variant in range(VARIANTS):
        queries = [adversarial_query(seed, variant, f, n)
                   for f in FAMILIES for n in SIZES]
        random.Random(f"adversarial-order:{seed}:{variant}").shuffle(queries)
        passes.append(queries)
    return passes


def brute_force_variants(record: dict):
    """Every part order (and, for FILTER, every operand order) of a query."""
    n = record["n"]
    flip_choices = ([list(f) for f in itertools.product((False, True), repeat=n)]
                    if record["family"] == "filter" else [None])
    for order in itertools.permutations(range(n)):
        for flips in flip_choices:
            yield render_adversarial(record, order, flips)
