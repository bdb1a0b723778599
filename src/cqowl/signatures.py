"""Canonical, URI-agnostic signatures for SPARQL-OWL query ASTs.

Two queries share a signature when they are equal "ignoring URIs": every
domain IRI is abstracted to the token ``:URI`` (reserved rdf/rdfs/owl/xsd
vocabulary stays concrete), placeholder ``$`` variables also become
``:URI`` since they stand for a concrete ontology term, literals become
``:LIT`` (keeping the datatype), and variables / labeled blank nodes are
renamed canonically.

The canonical skeleton is the lexicographically smallest rendering over all
permutations of triples inside each BGP, conjuncts inside each FILTER, and
operand orders of ``=``/``!=`` comparisons, with ``?v1``/``_:b1``-style
names assigned in first-occurrence order per candidate.  The minimum is
found by a greedy best-first walk that branches on exact rendering ties, so
it equals the brute-force minimum while staying cheap on asymmetric
queries.

Parts equal up to renaming slots used nowhere else render alike in any
order, so each class of them is tried in one order only; equal parts tied
by shared slots (2-cycles) can still raise CanonicalizationLimitExceeded.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .queryparse import (
    And,
    AnonBlank,
    Arith,
    Bgp,
    Bind,
    BlankNodeLabel,
    BlankPropertyList,
    Collection,
    Compare,
    DEFAULT_MAX_TRIPLES,
    Expr,
    Filter,
    FnCall,
    GraphPattern,
    Group,
    In,
    KeywordA,
    Literal,
    NotExists,
    Or,
    Paren,
    PathAtom,
    PathSequence,
    PathZeroOrMore,
    QueryAst,
    RDF_NS,
    STAR,
    TermRef,
    UnionPattern,
    Variable,
    WELL_KNOWN_PREFIXES,
    resolve_term,
)
from .records import Record

RESERVED_NAMESPACES = {ns: prefix for prefix, ns in WELL_KNOWN_PREFIXES.items()}

URI_TOKEN = ":URI"
LIT_TOKEN = ":LIT"

_BRANCH_CAP = 20000


class CanonicalizationLimitExceeded(RuntimeError):
    """Query too large or too symmetric for exact canonicalization."""


class Signature(Record):
    verb: str
    distinct: bool
    skeleton: str


# ---------------------------------------------------------------------------
# Abstraction: AST -> token trees with named slots
#
# A token tree is a list whose entries are either fixed strings or slot
# markers ("var", key) / ("blank", key); the key is the source name so that
# repeated occurrences share one canonical name later.


def _abstract_term(term, prefixes: dict[str, str]) -> list:
    if isinstance(term, Variable):
        if term.marker == "$":
            return [URI_TOKEN]
        return [("var", "?" + term.name)]
    if isinstance(term, BlankNodeLabel):
        return [("blank", term.label)]
    if isinstance(term, AnonBlank):
        return ["[]"]
    if isinstance(term, Literal):
        if term.datatype is not None:
            dt = _abstract_term(term.datatype, prefixes)
            return [LIT_TOKEN + "^^" + "".join(dt)]
        return [LIT_TOKEN]
    if isinstance(term, KeywordA):
        return ["a"]
    resolved = resolve_term(term, prefixes)
    if resolved is None:
        raise TypeError(f"cannot abstract term {term!r}")
    return [_abstract_iri(resolved)]


@lru_cache(maxsize=4096)
def _abstract_iri(iri: str) -> str:
    if iri == RDF_NS + "type":
        return "a"
    for ns, prefix in RESERVED_NAMESPACES.items():
        if iri.startswith(ns):
            return f"{prefix}:{iri[len(ns):]}"
    return URI_TOKEN


def _abstract_path(pred, prefixes) -> list:
    if isinstance(pred, PathAtom):
        return _abstract_term(pred.term, prefixes)
    if isinstance(pred, PathZeroOrMore):
        return _abstract_path(pred.inner, prefixes) + ["*"]
    if isinstance(pred, PathSequence):
        return _joined([_abstract_path(part, prefixes) for part in pred.parts], "/")
    return _abstract_term(pred, prefixes)


def _abstract_node(node, prefixes) -> list:
    if isinstance(node, BlankPropertyList):
        rendered_pairs = [
            _abstract_path(pred, prefixes)
            + _joined([_abstract_node(obj, prefixes) for obj in objects], ",")
            for pred, objects in node.pairs
        ]
        # deterministic pair order: sort on the name-erased rendering so the
        # key is invariant under variable/blank renaming; ties keep source
        # order (pair permutation invariance is not part of the contract)
        rendered_pairs.sort(key=_erased)
        return ["["] + _joined(rendered_pairs, ";") + ["]"]
    if isinstance(node, Collection):
        out = ["("]
        for item in node.items:
            out.extend(_abstract_node(item, prefixes))
        out.append(")")
        return out
    return _abstract_term(node, prefixes)


def _joined(token_lists: list[list], sep: str) -> list:
    out: list = []
    for i, tokens in enumerate(token_lists):
        if i:
            out.append(sep)
        out.extend(tokens)
    return out


def _erased(tokens: Iterable) -> str:
    parts = []
    for tok in tokens:
        if isinstance(tok, tuple):
            parts.append("?" if tok[0] == "var" else "_:")
        else:
            parts.append(tok)
    return " ".join(parts)


def _flatten_triples(bgp: Bgp, prefixes) -> list[list]:
    """Expand object lists so each template is a single s/p/o rendering."""
    templates = []
    for triple in bgp.triples:
        subj = _abstract_node(triple.subject, prefixes)
        pred = _abstract_path(triple.predicate, prefixes)
        for obj in triple.objects:
            templates.append(subj + pred + _abstract_node(obj, prefixes) + ["."])
    return templates


def _abstract_pattern(item: GraphPattern, prefixes, max_triples: int) -> "_Node":
    if isinstance(item, Group):
        return _Node("group", children=[
            _abstract_pattern(child, prefixes, max_triples) for child in item.items])
    if isinstance(item, Bgp):
        templates = _flatten_triples(item, prefixes)
        if len(templates) > max_triples:
            raise CanonicalizationLimitExceeded(
                f"BGP has {len(templates)} triples, over the bound of "
                f"{max_triples}"
            )
        return _Node("bgp", children=[_Node("tokens", tokens=t) for t in templates])
    if isinstance(item, Filter):
        return _Node("filter", children=[_abstract_expr(item.expr, prefixes)])
    if isinstance(item, NotExists):
        return _Node("not_exists", children=[
            _abstract_pattern(item.pattern, prefixes, max_triples)])
    if isinstance(item, Bind):
        return _Node("bind", children=[
            _abstract_expr(item.expr, prefixes),
            _Node("tokens", tokens=_abstract_term(item.var, prefixes))])
    if isinstance(item, UnionPattern):
        return _Node("union", children=[
            _abstract_pattern(item.left, prefixes, max_triples),
            _abstract_pattern(item.right, prefixes, max_triples)])
    raise TypeError(f"unknown graph pattern {item!r}")


def _abstract_expr(expr: Expr, prefixes) -> "_Node":
    if isinstance(expr, Paren):
        return _abstract_expr(expr.inner, prefixes)
    if isinstance(expr, Compare):
        return _Node(
            "cmp", op=expr.op,
            children=[_abstract_expr(expr.left, prefixes),
                      _abstract_expr(expr.right, prefixes)],
        )
    if isinstance(expr, And):
        return _Node("and", children=[_abstract_expr(p, prefixes) for p in expr.parts])
    if isinstance(expr, Or):
        return _Node("or", children=[_abstract_expr(p, prefixes) for p in expr.parts])
    if isinstance(expr, In):
        return _Node(
            "in",
            children=[_abstract_expr(expr.needle, prefixes)]
            + [_abstract_expr(o, prefixes) for o in expr.options],
        )
    if isinstance(expr, FnCall):
        name = expr.name if isinstance(expr.name, str) \
            else "".join(_abstract_term(expr.name, prefixes))
        return _Node("fn", op=name,
                     children=[_abstract_expr(a, prefixes) for a in expr.args])
    if isinstance(expr, Arith):
        return _Node("arith", op=expr.op,
                     children=[_abstract_expr(expr.left, prefixes),
                               _abstract_expr(expr.right, prefixes)])
    if isinstance(expr, TermRef):
        return _Node("tokens", tokens=_abstract_term(expr.term, prefixes))
    raise TypeError(f"unknown expression {expr!r}")


class _Node:
    """An abstracted graph pattern or expression; a ``"tokens"`` leaf holds
    one token list (a triple template or a term), other kinds ``children``."""

    __slots__ = ("kind", "op", "children", "tokens")

    def __init__(self, kind, op=None, children=(), tokens=()):
        self.kind = kind
        self.op = op
        self.children = children
        self.tokens = tokens


def _count_slots(node: _Node, counts: dict) -> dict:
    """Add the occurrences of every slot in ``node`` and below to ``counts``."""
    stack = [node]
    while stack:
        node = stack.pop()
        for tok in node.tokens:
            if isinstance(tok, tuple):
                counts[tok] = counts.get(tok, 0) + 1
        stack.extend(node.children)
    return counts


def _class_key(part: _Node, totals: dict) -> tuple:
    """``part``'s structure with its private slots (by the query-wide
    ``totals``, they occur nowhere else) numbered by first occurrence.
    Parts with equal keys differ only by a renaming of private slots."""
    local = _count_slots(part, {})
    renamed: dict = {}
    key = []
    stack = [part]
    while stack:
        node = stack.pop()
        key.append((node.kind, node.op, len(node.tokens), len(node.children)))
        for tok in node.tokens:
            if isinstance(tok, tuple) and local[tok] == totals[tok]:
                tok = renamed.setdefault(tok, (tok[0], len(renamed)))
            key.append(tok)
        stack.extend(node.children)
    return tuple(key)


# ---------------------------------------------------------------------------
# Canonical rendering search


class _Namer:
    """First-occurrence canonical names; copy-on-branch."""

    def __init__(self):
        self.vars: dict[str, str] = {}
        self.blanks: dict[str, str] = {}

    def clone(self) -> "_Namer":
        fresh = _Namer.__new__(_Namer)
        fresh.vars = dict(self.vars)
        fresh.blanks = dict(self.blanks)
        return fresh

    def key(self) -> tuple:
        # names are numbered in insertion order, so equal mappings have
        # equal item sequences
        return tuple(self.vars.items()), tuple(self.blanks.items())

    def render(self, tokens: Iterable) -> str:
        parts = []
        for tok in tokens:
            if isinstance(tok, tuple):
                kind, key = tok
                names = self.vars if kind == "var" else self.blanks
                tok = names.get(key)
                if tok is None:
                    prefix = "?v" if kind == "var" else "_:b"
                    tok = names[key] = f"{prefix}{len(names) + 1}"
            parts.append(tok)
        return " ".join(parts)


def _keep_min(candidates: list[tuple[str, object]], key=_Namer.key) -> tuple[str, list]:
    """The least text among ``(text, state)`` candidates and every state that
    renders it, the first of each ``key`` only, in candidate order."""
    if len(candidates) == 1:
        return candidates[0][0], [candidates[0][1]]
    low = min(text for text, _ in candidates)
    seen = set()
    kept = []
    for text, state in candidates:
        if text == low:
            k = key(state)
            if k not in seen:
                seen.add(k)
                kept.append(state)
    return low, kept


def _frontier_key(entry: tuple[tuple, _Namer]) -> tuple:
    taken, namer = entry
    return taken, namer.key()


class _Canonicalizer:
    """Search for the lexicographically smallest abstracted rendering.

    Every renderer maps a *set* of naming states sharing an identical
    rendered prefix to the minimal next fragment plus every naming state
    that achieves it.  Keeping all tied states matters: two orderings can
    emit the same text while binding canonical names to different source
    variables, and dropping one would make later fragments depend on the
    input order.  A strictly smaller fragment always wins regardless of
    what follows (fragments are newline/space joined), so pruning to the
    per-step minimum preserves the global minimum.

    One instance renders one query.
    """

    def __init__(self, prefixes: dict[str, str], max_triples: int,
                 search: bool = True):
        self.prefixes = prefixes
        self.max_triples = max_triples
        self.search = search
        self.branches = 0

    def render_query(self, ast: QueryAst) -> str:
        header = ast.verb
        if ast.distinct:
            header += " DISTINCT"
        if ast.verb == "SELECT":
            header += " *" if ast.projection == STAR else " ?proj"
        where = _abstract_pattern(ast.where, self.prefixes, self.max_triples)
        self.totals = _count_slots(where, {})
        body, _states = self._render(where, [_Namer()])
        return header + " WHERE " + body

    def _classes(self, parts: list[_Node]) -> list[list[_Node]]:
        """``parts`` grouped into classes of interchangeable parts, in source
        order."""
        classes: dict = {}
        for part in parts:
            classes.setdefault(_class_key(part, self.totals), []).append(part)
        return list(classes.values())

    def _bump(self, count: int = 1):
        self.branches += count
        if self.branches > _BRANCH_CAP:
            raise CanonicalizationLimitExceeded(
                "too many symmetric orderings during canonicalization"
            )

    def _render(self, node: _Node, states: list[_Namer],
                top: bool = False) -> tuple[str, list[_Namer]]:
        kind = node.kind
        if kind == "tokens":
            return _keep_min([(trial.render(node.tokens), trial)
                              for trial in map(_Namer.clone, states)])
        if kind == "bgp":
            return self._min_sequence(node.children, states, "\n")
        if kind in ("and", "or"):
            sep = " && " if kind == "and" else " || "
            text, out = self._min_sequence(node.children, states, sep)
            return (text if top else "(" + text + ")"), out
        if kind == "cmp":
            return self._render_commutative_pair(node, states)
        texts = []
        for child in node.children:
            text, states = self._render(child, states, top=kind == "filter")
            texts.append(text)
        if kind == "group":
            return "\n".join(["{", *texts, "}"]), states
        if kind == "filter":
            return "FILTER(" + texts[0] + ")", states
        if kind == "not_exists":
            return "FILTER NOT EXISTS " + texts[0], states
        if kind == "bind":
            return f"BIND({texts[0]} AS {texts[1]})", states
        if kind == "union":
            return texts[0] + " UNION " + texts[1], states
        if kind == "in":
            return f"{texts[0]} IN ({', '.join(texts[1:])})", states
        if kind == "fn":
            return f"{node.op}({', '.join(texts)})", states
        if kind == "arith":
            return f"({texts[0]} {node.op} {texts[1]})", states
        raise TypeError(f"unknown node kind {kind}")

    def _min_sequence(self, parts: list[_Node], states: list[_Namer],
                      sep: str) -> tuple[str, list[_Namer]]:
        """Minimal rendering of an orderable list, over all states."""
        if not parts:
            return "", states
        if not self.search:
            # source order: no reordering, but every naming state that
            # yields the minimal text is kept, so the result is a function
            # of the AST alone
            texts = []
            for part in parts:
                text, states = self._render(part, states)
                texts.append(text)
            return sep.join(texts), states

        # taking a later part of a class first renders the same texts with
        # the names of private slots swapped, which nothing else reads; so
        # classes are taken in source order, and a frontier entry, (parts
        # taken per class, namer), has emitted the identical text so far
        classes = [parts] if len(parts) == 1 else self._classes(parts)
        frontier: list[tuple[tuple, _Namer]] = [
            ((0,) * len(classes), s) for s in states]
        emitted: list[str] = []
        for _ in parts:
            candidates = []
            for taken, nm in frontier:
                for c, members in enumerate(classes):
                    i = taken[c]
                    if i == len(members):
                        continue
                    self._bump()
                    text, outs = self._render(members[i], [nm])
                    after = taken[:c] + (i + 1,) + taken[c + 1:]
                    candidates.extend((text, (after, out)) for out in outs)
            low, frontier = _keep_min(candidates, _frontier_key)
            emitted.append(low)
            self._bump(len(frontier))
        return sep.join(emitted), [nm for _, nm in frontier]

    def _render_commutative_pair(self, node: _Node, states: list[_Namer]) -> tuple[str, list[_Namer]]:
        if node.op not in ("=", "!="):
            raise TypeError(f"unexpected comparison {node.op}")
        orders = ((0, 1), (1, 0)) if self.search else ((0, 1),)
        candidates: list[tuple[str, _Namer]] = []
        for state in states:
            for first, second in orders:
                self._bump()
                left, mids = self._render(node.children[first], [state])
                for mid in mids:
                    right, outs = self._render(node.children[second], [mid])
                    candidates.extend((f"{left} {node.op} {right}", out) for out in outs)
        return _keep_min(candidates)


def canonicalize(ast: QueryAst, max_triples: int = DEFAULT_MAX_TRIPLES) -> Signature:
    """Compute the canonical URI-agnostic signature of a parsed query."""
    worker = _Canonicalizer(ast.prefixes(), max_triples)
    skeleton = worker.render_query(ast)
    return Signature(ast.verb, ast.distinct, skeleton)


def render_in_source_order(ast: QueryAst, max_triples: int = DEFAULT_MAX_TRIPLES) -> str:
    """Abstracted rendering that keeps the AST's own triple/conjunct order.

    This is the building block for brute-force oracles: the canonical
    skeleton must equal the minimum of this rendering over all permutations
    of the orderable parts.
    """
    worker = _Canonicalizer(ast.prefixes(), max_triples, search=False)
    return worker.render_query(ast)


class SignatureGroup(Record, frozen=False):
    signature: Signature
    member_ids: list[str]

    @property
    def count(self) -> int:
        return len(self.member_ids)


def group_by_signature(
    queries: Iterable[tuple[str, QueryAst]],
    max_triples: int = DEFAULT_MAX_TRIPLES,
) -> tuple[list[SignatureGroup], list[tuple[str, str]]]:
    """Partition (id, ast) pairs into signature groups, biggest first.

    Returns the groups plus a list of (id, reason) pairs for queries that
    exceeded the canonicalization bounds; those are reported, never dropped
    silently.
    """
    by_skeleton: dict[str, SignatureGroup] = {}
    skipped: list[tuple[str, str]] = []
    for qid, ast in queries:
        try:
            sig = canonicalize(ast, max_triples=max_triples)
        except CanonicalizationLimitExceeded as exc:
            skipped.append((qid, str(exc)))
            continue
        group = by_skeleton.get(sig.skeleton)
        if group is None:
            by_skeleton[sig.skeleton] = SignatureGroup(sig, [qid])
        else:
            group.member_ids.append(qid)
    groups = sorted(
        by_skeleton.values(), key=lambda g: (-g.count, g.signature.skeleton)
    )
    for g in groups:
        g.member_ids.sort()
    return groups, skipped


def coverage_table(groups: Sequence[SignatureGroup]) -> list[dict]:
    """Per-group counts with cumulative coverage percentages."""
    total = sum(g.count for g in groups) or 1
    rows = []
    cumulative = 0
    for rank, g in enumerate(groups, start=1):
        cumulative += g.count
        rows.append(
            {
                "rank": rank,
                "verb": g.signature.verb,
                "distinct": g.signature.distinct,
                "count": g.count,
                "cumulative_pct": round(100.0 * cumulative / total, 1),
                "members": list(g.member_ids),
                "skeleton": g.signature.skeleton,
            }
        )
    return rows
