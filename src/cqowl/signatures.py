"""Canonical, URI-agnostic signatures for SPARQL-OWL query ASTs.

Two queries share a signature when they are equal "ignoring URIs": every
domain IRI is abstracted to the token ``:URI`` (a term of the reserved
rdf/rdfs/owl/xsd vocabulary stays concrete as its ``vocabulary_name``,
decided per namespace, so a renamed prefix or a full IRI gives the same
token; ``rdf:type`` is written ``a`` as a verb only), placeholder ``$``
variables also become ``:URI`` since they stand for a concrete ontology
term, literals become ``:LIT`` (keeping the datatype), and variables /
labeled blank nodes are renamed canonically.

Abstraction fixes all skeleton text.  The search chooses only the order
of the parts of each sequence (the triples of a BGP, the operands of
``&&``/``||`` and the two of ``=``/``!=``), with ``?v1``/``_:b1``-style
names assigned in first-occurrence order per candidate.  The canonical
skeleton is the least rendering over all those orders.  The minimum is
found by a greedy best-first walk that ranks each part with the
separator after it and branches on exact ties, so it equals the
brute-force minimum while staying cheap on asymmetric queries.  A
comparison or ``IN`` operand of a comparison, ``IN`` or arithmetic keeps
the brackets SPARQL requires, which keeps the walk's precondition; so a
skeleton (``:LIT`` written ``"LIT"``) parses and canonicalizes to itself.

Parts equal up to renaming slots used nowhere else render alike in any
order, so each class of them is tried in one order only (a sequence of one
class renders straight through); equal parts tied by shared slots
(2-cycles) can still raise CanonicalizationLimitExceeded.  Class keys and
the query-wide slot totals read one walk of the tree (a bare token list
needs none).  Naming states are copy-on-write: a rendering copies its
state only when it names a new slot, except inside one straight-through
run, whose leaves name into the one copy the run made.  An ``=``/``!=``
whose operands render from different first characters under any naming
(``?`` for a variable, ``_`` for a blank, a fixed token's own first
character) is decided by its text: abstraction writes the lesser order as
one leaf, so the search never tries the other.  Bare token lists (BGP
templates, object-list members, decided comparisons) take direct paths
through rendering, and a unique least rendering is kept without comparing
naming states.
"""
from __future__ import annotations

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
    Iri,
    Literal,
    NotExists,
    Or,
    PathSequence,
    PathZeroOrMore,
    PrefixedName,
    QueryAst,
    STAR,
    TermRef,
    UnionPattern,
    Variable,
    vocabulary_name,
)
from .records import Record

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
# Every other node is a ``_Node``.  Graph patterns and expressions are
# abstracted by ``_Canonicalizer`` methods, since a comparison's form
# depends on whether the canonicalizer searches.


def _abstract_term(term) -> list:
    kind = type(term)
    if kind is PrefixedName or kind is Iri:
        name = vocabulary_name(term)
        return [name or URI_TOKEN]
    if kind is Variable:
        if term.marker == "$":
            return [URI_TOKEN]
        return [("var", "?" + term.name)]
    if kind is BlankNodeLabel:
        return [("blank", term.label)]
    if kind is Literal:
        if term.datatype is not None:
            dt = _abstract_term(term.datatype)
            return [LIT_TOKEN + "^^" + "".join(dt)]
        return [LIT_TOKEN]
    if kind is AnonBlank:
        return ["[]"]
    raise TypeError(f"cannot abstract term {term!r}")


def _abstract_path(pred) -> list:
    kind = type(pred)
    if kind is PathSequence:
        return _joined([_abstract_path(part) for part in pred.parts], "/")
    if kind is PathZeroOrMore:
        return _abstract_path(pred.inner) + ["*"]
    tokens = _abstract_term(pred)
    return ["a"] if tokens == ["rdf:type"] else tokens


def _abstract_node(node) -> list:
    kind = type(node)
    if kind is BlankPropertyList:
        rendered_pairs = [
            _abstract_path(pred)
            + _joined([_abstract_node(obj) for obj in objects], ",")
            for pred, objects in node.pairs
        ]
        # deterministic pair order: sort on the name-erased rendering so the
        # key is invariant under variable/blank renaming; ties keep source
        # order (pair permutation invariance is not part of the contract:
        # row (h) of tests/test_signature_contract.py)
        rendered_pairs.sort(key=_erased)
        return ["["] + _joined(rendered_pairs, ";") + ["]"]
    if kind is Collection:
        out = ["("]
        for item in node.items:
            out.extend(_abstract_node(item))
        out.append(")")
        return out
    return _abstract_term(node)


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


def _first_char(tokens: list) -> str:
    """The first character of ``tokens``' rendering under every naming."""
    tok = tokens[0]
    if type(tok) is tuple:
        return "?" if tok[0] == "var" else "_"
    return tok[0]


def _flatten_triples(bgp: Bgp) -> list[list]:
    """Expand object lists so each template is a single s/p/o rendering."""
    templates = []
    for triple in bgp.triples:
        head = _abstract_node(triple.subject)
        head += _abstract_path(triple.predicate)
        for obj in triple.objects:
            template = head + _abstract_node(obj)
            template.append(".")
            templates.append(template)
    return templates


class _Node:
    """An abstracted graph pattern or expression with its final text: it
    renders as ``prefix + sep.join(children) + suffix``, its children in
    source order (``"fixed"``) or their least order (``"seq"``: a BGP, an
    ``&&``/``||`` or an undecided ``=``/``!=``).  Leaves stay bare token
    lists: one more object per triple made each canonicalization measurably
    slower.  A ``"seq"`` node keeps its children's classes once computed."""

    __slots__ = ("prefix", "sep", "suffix", "order", "children", "classes")

    def __init__(self, prefix="", sep="", suffix="", order="fixed", children=()):
        self.prefix = prefix
        self.sep = sep
        self.suffix = suffix
        self.order = order
        self.children = children
        self.classes = None


def _walk_tree(node) -> tuple[list, list]:
    """The nodes and leaves of an abstracted tree in the order a stack pops
    them, and the tokens of those leaves in that order."""
    items, tokens = [], []
    stack = [node]
    while stack:
        item = stack.pop()
        items.append(item)
        if type(item) is list:
            tokens += item
        else:
            stack.extend(item.children)
    return items, tokens


def _class_key(part, totals: dict) -> tuple:
    """``part``'s structure with its private slots (by the query-wide
    ``totals``, they occur nowhere else) numbered by first occurrence.
    Parts with equal keys differ only by a renaming of private slots."""
    if type(part) is list:
        items, tokens = (part,), part
    else:
        items, tokens = _walk_tree(part)
    # parts are a few tokens long: counting in them beats a dict of counts
    renamed: dict = {}
    key = []
    for item in items:
        if type(item) is list:
            key.append(len(item))
            for tok in item:
                if type(tok) is tuple and totals[tok] == tokens.count(tok):
                    tok = renamed.setdefault(tok, (tok[0], len(renamed)))
                key.append(tok)
        else:
            key.append((item.prefix, item.sep, item.suffix, item.order, len(item.children)))
    return tuple(key)


# ---------------------------------------------------------------------------
# Canonical rendering search


class _Namer:
    """First-occurrence canonical names; copy-on-write: a namer is never
    changed once ``render`` returns it, so search branches share it.  The
    one exception is a namer that a straight-through run copied for itself
    (``render(tokens, in_place=True)``): no branch holds it, so the run
    names into it in place."""

    def __init__(self):
        self.vars: dict[str, str] = {}
        self.blanks: dict[str, str] = {}

    def key(self) -> tuple:
        # names are numbered in insertion order, so equal mappings have
        # equal item sequences
        return tuple(self.vars.items()), tuple(self.blanks.items())

    def render(self, tokens: Iterable, in_place: bool = False) -> tuple[str, "_Namer"]:
        """``tokens`` named, and ``self`` or, if it named a new slot and not
        ``in_place``, a copy."""
        out = self
        parts = []
        for tok in tokens:
            if type(tok) is tuple:
                kind, key = tok
                names = out.vars if kind == "var" else out.blanks
                tok = names.get(key)
                if tok is None:
                    if out is self and not in_place:
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
    winners = [state for text, state in candidates if text == low]
    if len(winners) == 1:
        return low, winners
    seen = set()
    kept = []
    for state in winners:
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
    ``?v1 = ?v3 || ``.  No part holds its separator outside brackets
    (``_operand`` brackets a nested comparison), so the least ranked
    fragment leads to the global minimum; at the last step, candidates
    differ only in slot numbers, and what follows them sorts before any digit.

    One instance renders one query.
    """

    def __init__(self, max_triples: int, search: bool = True):
        self.max_triples = max_triples
        self.search = search
        self.branches = 0

    def render_query(self, ast: QueryAst) -> str:
        header = ast.verb
        if ast.distinct:
            header += " DISTINCT"
        if ast.verb == "SELECT":
            header += " *" if ast.projection == STAR else " ?proj"
        where = self._abstract_pattern(ast.where)
        totals = self.totals = {}  # the occurrences of each slot in the query
        for tok in _walk_tree(where)[1]:
            if type(tok) is tuple:
                totals[tok] = totals.get(tok, 0) + 1
        body, _states = self._render(where, [_Namer()])
        return header + " WHERE " + body

    def _abstract_pattern(self, item: GraphPattern) -> _Node:
        if isinstance(item, Group):
            children = [self._abstract_pattern(child) for child in item.items]
            return _Node("{\n", "\n", "\n}", children=children) if children else _Node("{\n}")
        if isinstance(item, Bgp):
            templates = _flatten_triples(item)
            if len(templates) > self.max_triples:
                raise CanonicalizationLimitExceeded(
                    f"BGP has {len(templates)} triples, over the bound of "
                    f"{self.max_triples}"
                )
            return _Node(sep="\n", order="seq", children=templates)
        if isinstance(item, Filter):
            return _Node("FILTER(", suffix=")",
                         children=[self._abstract_expr(item.expr, top=True)])
        if isinstance(item, NotExists):
            return _Node("FILTER NOT EXISTS ", children=[self._abstract_pattern(item.pattern)])
        if isinstance(item, Bind):
            # only a variable follows AS, and ``$p`` is the variable ``?p``
            return _Node("BIND(", " AS ", ")", children=[
                self._abstract_expr(item.expr), [("var", "?" + item.var.name)]])
        if isinstance(item, UnionPattern):
            return _Node(sep=" UNION ", children=[
                self._abstract_pattern(item.left), self._abstract_pattern(item.right)])
        raise TypeError(f"unknown graph pattern {item!r}")

    def _abstract_expr(self, expr: Expr, top: bool = False) -> _Node | list:
        """``expr`` abstracted; ``top`` marks a FILTER's own expression, whose
        ``&&`` or ``||`` gets no parentheses."""
        kind = type(expr)
        if kind is TermRef:
            return _abstract_term(expr.term)
        if kind is Compare:
            if expr.op not in ("=", "!="):
                raise TypeError(f"unexpected comparison {expr.op}")
            left, right = self._operand(expr.left), self._operand(expr.right)
            if self.search and type(left) is list and type(right) is list:
                # operands that render from different first characters, under
                # any naming, take the lesser order here: one leaf, no search
                lead, other = _first_char(left), _first_char(right)
                if lead != other:
                    return left + [expr.op] + right if lead < other else right + [expr.op] + left
            return _Node(sep=f" {expr.op} ", order="seq", children=[left, right])
        if kind is And or kind is Or:
            sep = " && " if kind is And else " || "
            return _Node("" if top else "(", sep, "" if top else ")", order="seq",
                         children=[self._abstract_expr(p) for p in expr.parts])
        if kind is In:
            return _Node(sep=" IN ", children=[
                self._operand(expr.needle),
                _Node("(", ", ", ")", children=[self._abstract_expr(o) for o in expr.options])])
        if kind is FnCall:
            name = expr.name if isinstance(expr.name, str) \
                else "".join(_abstract_term(expr.name))
            return _Node(name + "(", ", ", ")",
                         children=[self._abstract_expr(a) for a in expr.args])
        if kind is Arith:
            return _Node("(", f" {expr.op} ", ")", children=[
                self._operand(expr.left), self._operand(expr.right)])
        raise TypeError(f"unknown expression {expr!r}")

    def _operand(self, expr: Expr) -> _Node | list:
        """``expr`` as an operand of a comparison, ``IN`` or arithmetic: a
        comparison or ``IN`` there renders in brackets, as SPARQL requires."""
        node = self._abstract_expr(expr)
        if type(expr) is Compare or type(expr) is In:
            return _Node("(", suffix=")", children=[node])
        return node

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
            owned = None  # a namer this run copied, which no branch holds
            for part in parts:
                self._bump(len(states))
                if len(states) == 1 and type(part) is list:
                    # once a leaf has copied the namer, later leaves name
                    # into that copy: n parts naming n slots make one copy,
                    # not n copies of growing dicts
                    state = states[0]
                    text, out = state.render(part, state is owned)
                    if out is not state:
                        owned = out
                    states = [out]
                elif len(states) == 1:
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


def canonicalize(ast: QueryAst, max_triples: int = DEFAULT_MAX_TRIPLES) -> Signature:
    """Compute the canonical URI-agnostic signature of a parsed query."""
    worker = _Canonicalizer(max_triples)
    skeleton = worker.render_query(ast)
    return Signature(ast.verb, ast.distinct, skeleton)


def render_in_source_order(ast: QueryAst, max_triples: int = DEFAULT_MAX_TRIPLES) -> str:
    """Abstracted rendering in the source order of triples, conjuncts and operands.

    This is the building block for brute-force oracles: the canonical
    skeleton must equal the minimum of this rendering over all permutations
    of the orderable parts.  It counts branches as the search does for a
    sequence of one class, so it too raises CanonicalizationLimitExceeded
    past ``_BRANCH_CAP``.
    """
    worker = _Canonicalizer(max_triples, search=False)
    return worker.render_query(ast)


class SignatureGroup(Record):
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
