"""Canonical, URI-agnostic signatures for SPARQL-OWL query ASTs.

Two queries share a signature when they are equal "ignoring URIs": every
domain IRI is abstracted to the token ``:URI`` (reserved rdf/rdfs/owl/xsd
vocabulary stays concrete), placeholder ``$`` variables also become
``:URI`` since they stand for a concrete ontology term, literals become
``:LIT`` (keeping the datatype), and variables / labeled blank nodes are
renamed canonically.

Abstraction fixes all skeleton text.  The search chooses only the order
of the orderable parts (the triples of a BGP, the operands of ``&&``/``||``
and of ``=``/``!=``), with ``?v1``/``_:b1``-style names assigned in
first-occurrence order per candidate.  The canonical skeleton is the least
rendering over all those orders.  The minimum is found by a greedy
best-first walk that ranks each part with the separator after it and
branches on exact ties, so it equals the brute-force minimum while
staying cheap on asymmetric queries.

Parts equal up to renaming slots used nowhere else render alike in any
order, so each class of them is tried in one order only (a sequence of one
class renders straight through); equal parts tied by shared slots
(2-cycles) can still raise CanonicalizationLimitExceeded.  Naming states
are copied only when a rendering names a new slot.
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
    PrefixedName,
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
# Abstraction: AST -> nodes that carry their final skeleton text
#
# A leaf (a triple template or a term) is a token list whose entries are
# fixed strings or slot markers ("var", key) / ("blank", key); the key is the
# source name so that repeated occurrences share one canonical name later.
# Every other node is a ``_Node``.


def _abstract_term(term, prefixes: dict[str, str]) -> list:
    kind = type(term)
    if kind is PrefixedName:
        ns = prefixes.get(term.prefix)
        # an undeclared prefix raises PrefixResolutionError in resolve_term
        iri = resolve_term(term, prefixes) if ns is None else ns + term.local
        return [_abstract_iri(iri)]
    if kind is Variable:
        if term.marker == "$":
            return [URI_TOKEN]
        return [("var", "?" + term.name)]
    if kind is BlankNodeLabel:
        return [("blank", term.label)]
    if kind is Literal:
        if term.datatype is not None:
            dt = _abstract_term(term.datatype, prefixes)
            return [LIT_TOKEN + "^^" + "".join(dt)]
        return [LIT_TOKEN]
    if kind is KeywordA:
        return ["a"]
    if kind is AnonBlank:
        return ["[]"]
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
    kind = type(pred)
    if kind is PathSequence:
        return _joined([_abstract_path(part, prefixes) for part in pred.parts], "/")
    if kind is PathZeroOrMore:
        return _abstract_path(pred.inner, prefixes) + ["*"]
    if kind is PathAtom:
        pred = pred.term
    return _abstract_term(pred, prefixes)


def _abstract_node(node, prefixes) -> list:
    kind = type(node)
    if kind is BlankPropertyList:
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
    if kind is Collection:
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
        if type(tok) is tuple:
            parts.append("?" if tok[0] == "var" else "_:")
        else:
            parts.append(tok)
    return " ".join(parts)


def _flatten_triples(bgp: Bgp, prefixes) -> list[list]:
    """Expand object lists so each template is a single s/p/o rendering."""
    templates = []
    for triple in bgp.triples:
        head = _abstract_node(triple.subject, prefixes)
        head += _abstract_path(triple.predicate, prefixes)
        for obj in triple.objects:
            template = head + _abstract_node(obj, prefixes)
            template.append(".")
            templates.append(template)
    return templates


def _abstract_pattern(item: GraphPattern, prefixes, max_triples: int) -> "_Node":
    if isinstance(item, Group):
        children = [_abstract_pattern(child, prefixes, max_triples) for child in item.items]
        return _Node("{\n", "\n", "\n}", children=children) if children else _Node("{\n}")
    if isinstance(item, Bgp):
        templates = _flatten_triples(item, prefixes)
        if len(templates) > max_triples:
            raise CanonicalizationLimitExceeded(
                f"BGP has {len(templates)} triples, over the bound of "
                f"{max_triples}"
            )
        return _Node(sep="\n", order="seq", children=templates)
    if isinstance(item, Filter):
        return _Node("FILTER(", suffix=")",
                     children=[_abstract_expr(item.expr, prefixes, top=True)])
    if isinstance(item, NotExists):
        return _Node("FILTER NOT EXISTS ", children=[
            _abstract_pattern(item.pattern, prefixes, max_triples)])
    if isinstance(item, Bind):
        return _Node("BIND(", " AS ", ")", children=[
            _abstract_expr(item.expr, prefixes), _abstract_term(item.var, prefixes)])
    if isinstance(item, UnionPattern):
        return _Node(sep=" UNION ", children=[
            _abstract_pattern(item.left, prefixes, max_triples),
            _abstract_pattern(item.right, prefixes, max_triples)])
    raise TypeError(f"unknown graph pattern {item!r}")


def _abstract_expr(expr: Expr, prefixes, top: bool = False) -> "_Node | list":
    """``expr`` abstracted; ``top`` marks a FILTER's own expression, whose
    ``&&`` or ``||`` gets no parentheses."""
    kind = type(expr)
    if kind is TermRef:
        return _abstract_term(expr.term, prefixes)
    if kind is Compare:
        if expr.op not in ("=", "!="):
            raise TypeError(f"unexpected comparison {expr.op}")
        return _Node(sep=f" {expr.op} ", order="pair",
                     children=[_abstract_expr(expr.left, prefixes),
                               _abstract_expr(expr.right, prefixes)])
    if kind is And or kind is Or:
        sep = " && " if kind is And else " || "
        return _Node("" if top else "(", sep, "" if top else ")", order="seq",
                     children=[_abstract_expr(p, prefixes) for p in expr.parts])
    if kind is Paren:
        return _abstract_expr(expr.inner, prefixes, top)
    if kind is In:
        return _Node(sep=" IN ", children=[
            _abstract_expr(expr.needle, prefixes),
            _Node("(", ", ", ")", children=[_abstract_expr(o, prefixes)
                                            for o in expr.options])])
    if kind is FnCall:
        name = expr.name if isinstance(expr.name, str) \
            else "".join(_abstract_term(expr.name, prefixes))
        return _Node(name + "(", ", ", ")",
                     children=[_abstract_expr(a, prefixes) for a in expr.args])
    if kind is Arith:
        return _Node("(", f" {expr.op} ", ")",
                     children=[_abstract_expr(expr.left, prefixes),
                               _abstract_expr(expr.right, prefixes)])
    raise TypeError(f"unknown expression {expr!r}")


class _Node:
    """An abstracted graph pattern or expression with its final text: it
    renders as ``prefix + sep.join(children) + suffix``, its children in
    source order (``"fixed"``), their least order (``"seq"``) or the lesser
    of their two orders (``"pair"``).  Leaves stay bare token lists: one more
    object per triple made each canonicalization measurably slower.  A
    ``"seq"`` node keeps its children's classes once they are computed."""

    __slots__ = ("prefix", "sep", "suffix", "order", "children", "classes")

    def __init__(self, prefix="", sep="", suffix="", order="fixed", children=()):
        self.prefix = prefix
        self.sep = sep
        self.suffix = suffix
        self.order = order
        self.children = children
        self.classes = None


def _count_slots(node, counts: dict) -> dict:
    """Add the occurrences of every slot in ``node`` and below to ``counts``."""
    stack = [node]
    while stack:
        node = stack.pop()
        if type(node) is list:
            for tok in node:
                if type(tok) is tuple:
                    counts[tok] = counts.get(tok, 0) + 1
        else:
            stack.extend(node.children)
    return counts


def _class_key(part, totals: dict) -> tuple:
    """``part``'s structure with its private slots (by the query-wide
    ``totals``, they occur nowhere else) numbered by first occurrence.
    Parts with equal keys differ only by a renaming of private slots."""
    local = _count_slots(part, {})
    renamed: dict = {}
    key = []
    stack = [part]
    while stack:
        node = stack.pop()
        if type(node) is list:
            key.append(len(node))
            for tok in node:
                if type(tok) is tuple and local[tok] == totals[tok]:
                    tok = renamed.setdefault(tok, (tok[0], len(renamed)))
                key.append(tok)
        else:
            key.append((node.prefix, node.sep, node.suffix, node.order, len(node.children)))
            stack.extend(node.children)
    return tuple(key)


# ---------------------------------------------------------------------------
# Canonical rendering search


class _Namer:
    """First-occurrence canonical names; copy-on-write: a namer is never
    changed once ``render`` returns it, so search branches share it."""

    def __init__(self):
        self.vars: dict[str, str] = {}
        self.blanks: dict[str, str] = {}

    def key(self) -> tuple:
        # names are numbered in insertion order, so equal mappings have
        # equal item sequences
        return tuple(self.vars.items()), tuple(self.blanks.items())

    def render(self, tokens: Iterable) -> tuple[str, "_Namer"]:
        """``tokens`` named, and ``self`` or, if it named a new slot, a copy."""
        out = self
        parts = []
        for tok in tokens:
            if type(tok) is tuple:
                kind, key = tok
                names = out.vars if kind == "var" else out.blanks
                tok = names.get(key)
                if tok is None:
                    if out is self:
                        out = _Namer.__new__(_Namer)
                        out.vars, out.blanks = dict(self.vars), dict(self.blanks)
                        names = out.vars if kind == "var" else out.blanks
                    prefix = "?v" if kind == "var" else "_:b"
                    tok = names[key] = f"{prefix}{len(names) + 1}"
            parts.append(tok)
        return " ".join(parts), out


def _keep_min(candidates: list[tuple[str, object]], key=_Namer.key) -> tuple[str, list]:
    """The least text among ``(text, state)`` candidates and every state that
    renders it, the first of each ``key`` only, in candidate order."""
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
    input order.  A step ranks each part followed by the separator:
    ``?v1`` is a prefix of ``?v1 = ?v3``, but ``?v1 || `` follows
    ``?v1 = ?v3 || ``.  No part holds its separator outside brackets, so
    the least ranked fragment leads to the global minimum; at the last
    step, candidates differ only in slot numbers, and what follows them
    sorts before any digit.

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

    def _classes(self, parts: list) -> list[list]:
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

    def _render(self, node, states: list[_Namer]) -> tuple[str, list[_Namer]]:
        if type(node) is list:  # a leaf
            if len(states) == 1:  # nothing to compare
                text, state = states[0].render(node)
                return text, [state]
            return _keep_min([state.render(node) for state in states])
        if node.order == "seq":
            text, states = self._min_sequence(node, states)
        elif node.order == "pair":
            text, states = self._render_commutative_pair(node, states)
        else:
            texts = []
            for child in node.children:
                text, states = self._render(child, states)
                texts.append(text)
            text = node.sep.join(texts)
        return node.prefix + text + node.suffix, states

    def _min_sequence(self, node: _Node, states: list[_Namer]) -> tuple[str, list[_Namer]]:
        """Minimal rendering of an orderable node's children, over all states."""
        parts, sep = node.children, node.sep
        if not parts:
            return "", states
        # taking a later part of a class first renders the same texts with
        # the names of private slots swapped, which nothing else reads; so
        # classes are taken in source order, and a frontier entry, (parts
        # taken per class, namer), has emitted the identical text so far.
        # Without search the source order is the one order tried.
        if len(parts) == 1 or not self.search:
            classes = [parts]
        else:
            # a part nested in an orderable part is rendered once per order
            # tried, and its classes do not depend on the order
            classes = node.classes
            if classes is None:
                classes = node.classes = self._classes(parts)
        if len(classes) == 1:
            # one order: straight through, keeping every naming state that
            # yields the minimal text; tied states render one at a time, as
            # in the frontier, so searches nested in a part count alike
            texts = []
            for part in parts:
                self._bump(len(states))
                if len(states) == 1:
                    text, states = self._render(part, states)
                else:
                    candidates = []
                    for state in states:
                        text, outs = self._render(part, [state])
                        candidates.extend((text, out) for out in outs)
                    text, states = _keep_min(candidates)
                texts.append(text)
                self._bump(len(states))
            return sep.join(texts), states
        frontier: list[tuple[tuple, _Namer]] = [
            ((0,) * len(classes), s) for s in states]
        emitted: list[str] = []
        for left in range(len(parts) - 1, -1, -1):
            tail = sep if left else ""
            candidates = []
            for taken, nm in frontier:
                for c, members in enumerate(classes):
                    i = taken[c]
                    if i == len(members):
                        continue
                    self._bump()
                    text, outs = self._render(members[i], [nm])
                    after = taken[:c] + (i + 1,) + taken[c + 1:]
                    candidates.extend((text + tail, (after, out)) for out in outs)
            low, frontier = _keep_min(candidates, _frontier_key)
            emitted.append(low)
            self._bump(len(frontier))
        return "".join(emitted), [nm for _, nm in frontier]

    def _render_commutative_pair(self, node: _Node, states: list[_Namer]) -> tuple[str, list[_Namer]]:
        orders = ((0, 1), (1, 0)) if self.search else ((0, 1),)
        candidates: list[tuple[str, _Namer]] = []
        for state in states:
            for first, second in orders:
                self._bump()
                left, mids = self._render(node.children[first], [state])
                for mid in mids:
                    right, outs = self._render(node.children[second], [mid])
                    candidates.extend((f"{left}{node.sep}{right}", out) for out in outs)
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
    of the orderable parts.  It counts branches as the search does for a
    sequence of one class, so it too raises CanonicalizationLimitExceeded
    past ``_BRANCH_CAP``.
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
