"""Token annotation and entity/predicate chunking for competency questions.

The chunking procedure turns a CQ into a vocabulary-agnostic template:
entity chunks (EC) are maximal nominal spans, predicate chunks (PC) are
verb groups optionally extended with a dependency-linked auxiliary (which
makes a PC discontinuous, as in "Does ... eat").  Replacing chunks with
numbered ``EC<k>``/``PC<k>`` slots yields the pattern candidate string.

Annotations come from the built-in deterministic tagger (lexicon plus
suffix rules; no external models), or, when a CQ is given a CoNLL-U file,
from that file, which a full NLP pipeline produced: the higher-fidelity
path.  A CoNLL-U sentence belongs to a CQ when its FORMs, concatenated,
spell the CQ text once whitespace and quote marks are removed from both:
the tokenizer's own rule, since those are exactly the characters it
discards.
"""
from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .corpus import AnnotationError, CorpusError, placeholder_spans, read_text
from .records import Record

POS_TAGS = {
    "NOUN", "PROPN", "VERB", "AUX", "ADJ", "DET", "ADP", "PRON", "ADV",
    "NUM", "PUNCT", "CCONJ", "SCONJ", "PART", "X",
}


class TokenAnnotation(Record):
    index: int
    surface: str
    pos: str
    head: int
    deprel: str
    is_placeholder: bool = False


class Chunk(Record):
    kind: str  # "EC" or "PC"
    spans: tuple[tuple[int, int], ...]  # half-open token ranges
    ordinal: int
    surface_text: str

    @property
    def label(self) -> str:
        return f"{self.kind}{self.ordinal}"


class AnnotatedSentence(Record):
    cq_id: str
    tokens: tuple[TokenAnnotation, ...]
    chunks: tuple[Chunk, ...]


# ---------------------------------------------------------------------------
# Lexicons for the built-in tagger.  Unknown lowercase words default to NOUN
# (they almost always name domain entities in CQs); unknown capitalized
# mid-sentence words become PROPN.

WH_PRON = {"what", "which", "who", "whom", "whose"}
WH_ADV = {"where", "when", "why", "how"}

DETERMINERS = {
    "the", "a", "an", "this", "these", "those", "any", "some", "all",
    "every", "each", "both", "its", "my", "our", "their", "other", "no",
    "given",
}

PRONOUNS = {"i", "we", "it", "they", "you", "he", "she", "them", "us", "me",
            "others", "there"}

# verbs that only ever contribute to a PC as dependency-linked auxiliaries;
# on their own (copulas, possession "have") they stay literal in patterns
AUX_VERBS = {
    "is", "are", "am", "was", "were", "be", "being", "been", "does", "do",
    "did", "has", "have", "had", "can", "could", "will", "would", "shall",
    "should", "may", "might", "must", "'s", "’s", "'re", "’re",
}

ADPOSITIONS = {
    "of", "for", "in", "with", "from", "on", "at", "by", "as", "about",
    "between", "against", "regarding", "during", "into", "like", "under",
    "over", "within", "without", "per", "via", "after", "before", "around",
}

CCONJ = {"and", "or", "but", "nor"}
SCONJ = {"if", "that", "whether", "because", "while"}

ADVERBS = {
    "never", "also", "still", "only", "exactly", "very", "really",
    "currently", "actively", "natively", "ever", "else", "once", "now",
    "long", "many", "much", "here", "not", "always", "strictly",
    "efficiently", "downstream", "often", "externally", "quickly",
    "recently",
}

NUMBER_WORDS = {"two", "three", "four", "five", "six", "seven", "eight",
                "nine", "ten"}

ADJECTIVES = {
    "valid", "main", "possible", "clinical", "demographic", "neuromuscular",
    "mixed", "open", "free", "available", "relevant", "different",
    "same", "specific", "wearable", "ambient", "proper", "suitable",
    "direct", "structured", "primitive", "necessary", "common", "typical",
    "preferred", "disjoint", "proprietary", "maintained", "abandoned",
    "new", "old", "best", "better", "worse", "fastest", "compatible",
    "carnivore", "aggregated", "characterizing", "independent", "multiple",
    "key",
}

CONTENT_VERBS = {
    "eat", "eats", "eaten", "use", "uses", "used", "need", "needs", "run",
    "runs", "read", "reads", "write", "writes", "create", "creates",
    "created", "work", "works", "provide", "provides", "measure",
    "measures", "measured", "collect", "collects", "collected", "record",
    "records", "recorded", "assess", "assesses", "assessed", "perform",
    "performs", "performed", "implement", "implements", "produce",
    "produces", "produced", "contain", "contains", "require", "requires",
    "required", "support", "supports", "cost", "costs", "depend",
    "depends", "install", "installed", "detect", "detects", "detected",
    "monitor", "monitors", "monitored", "categorise", "categorize", "fix",
    "get", "know", "make", "makes", "take", "takes", "refer", "refers",
    "describe", "describes", "visualise", "analyze", "analyse", "convert",
    "converts", "execute", "executed", "compare", "compares", "feed",
    "feeds", "hunt", "hunts", "live", "lives", "happen", "happens",
    "occur", "occurs", "belong", "belongs",
    "find", "finds", "buy", "buys", "obtain", "obtains", "access",
    "download", "downloads", "extend", "extends", "modify", "modifies",
    "share", "shares", "track", "tracks", "capture", "captures", "store",
    "stores", "notify", "notified", "remind", "reminded", "schedule",
    "scheduled", "trigger", "triggered", "generate", "generates",
    "generated", "display", "displays", "displayed", "wear", "wears",
    "worn", "deploy", "deployed", "alert", "alerted", "exist", "existed",
    "exists", "apply", "applies", "process", "parse",
    "parses", "index", "mean", "means", "specify", "specifies", "handle",
    "handles", "relate", "relates", "related", "publish", "come", "comes",
    "choose", "watch", "teach", "teaches", "affect", "affects",
    "cause", "causes", "emit", "emits", "consume", "consumes", "graze",
    "grazes", "represent", "represents", "represented", "repeat",
    "repeats", "prepare", "prepares", "edit", "edits", "import", "export",
    "configure", "configures", "uninstall", "understand", "understands",
    "distinguishes", "link", "links", "enforce", "enforces", "maintains",
    "crawl", "summarise", "transmit", "validate", "inherit", "verify",
    "compile", "follow", "decode", "accepted", "load",
}

# words that look derived but must stay nominal for chunking purposes
NOUN_EXCEPTIONS = {
    "named", "published", "documented", "output", "input", "editing",
    "monitoring", "dataset", "datasets", "data", "preparation",
    "production", "information", "status", "bulk", "herbivore",
    "herbivores", "stuff", "stuffs", "substuffs", "lion", "lions", "wild",
    "night", "interest", "rest", "test", "tests", "forest", "request",
    "harvest", "documentation", "recording", "reading", "processing",
    "setting", "settings", "metadata", "licensing", "sleep", "drink",
    "checks",
}

EC_NOUN_STOPLIST = {
    "type", "types", "kind", "kinds", "category", "categories",
    "difference", "differences", "extent", "respect",
}

_VERB_SUFFIXES = ("ed",)


# the quote marks the tokenizer strips from either edge of a word; with
# whitespace, they are what a CoNLL-U sentence need not spell to match a CQ
_QUOTES = "\"'“”‘’"
# the marks the tokenizer strips from a word's end (an opening quote goes too)
_EDGE_MARKS = _QUOTES + "?!.,;:"
# the clitics split off a word, with the apostrophe they were written with
_CLITICS = ("'s", "’s", "'re", "’re")
_UNSPELLED = re.compile(rf"[\s{_QUOTES}]+")
_NUMERAL = re.compile(r"[0-9]+(?:\.[0-9]+)?")
_PUNCT = re.compile(r"[?!.,;:]+")
_END_PUNCT = re.compile(r"[?!.]+")


def is_number(word: str) -> bool:
    return word.lower() in NUMBER_WORDS or bool(_NUMERAL.fullmatch(word))


class _RawToken:
    # internal and never compared, hashed or printed, so a plain class: an
    # annotation pass builds one per word
    __slots__ = ("surface", "is_placeholder")

    def __init__(self, surface: str, is_placeholder: bool):
        self.surface = surface
        self.is_placeholder = is_placeholder


def tokenize(text: str) -> list[_RawToken]:
    """Whitespace/punctuation tokenizer; bracketed spans stay single tokens."""
    try:
        spans = placeholder_spans(text)
    except CorpusError as exc:
        raise AnnotationError(str(exc)) from exc
    tokens: list[_RawToken] = []
    pos = 0
    for start, end in spans:
        tokens.extend(_split_plain(text[pos:start]))
        tokens.append(_RawToken(text[start:end], True))
        pos = end
    tokens.extend(_split_plain(text[pos:]))
    return tokens


def _split_plain(fragment: str) -> list[_RawToken]:
    out: list[_RawToken] = []
    for word in fragment.split():
        out.extend(_RawToken(w, False) for w in _split_word(word))
    return out


def _split_word(word: str) -> list[str]:
    parts: list[str] = []
    while word and word[0] in _QUOTES and \
            word.rstrip(_EDGE_MARKS).lower() not in _CLITICS:
        word = word[1:]
    trailing: list[str] = []
    while word and word[-1] in _EDGE_MARKS:
        ch = word[-1]
        # keep file-extension style tokens like ".cel" intact
        if ch == "." and len(word) > 1 and word[0] == ".":
            break
        if ch not in _QUOTES:
            trailing.insert(0, ch)
        word = word[:-1]
    lower = word.lower()
    if lower.endswith(_CLITICS) and lower not in _CLITICS:
        # a clitic holds one apostrophe, its first character
        cut = max(word.rfind("'"), word.rfind("’"))
        parts.extend([word[:cut], lower[cut:]])
    elif word:
        parts.append(word)
    parts.extend(trailing)
    return [p for p in parts if p]


# ---------------------------------------------------------------------------
# Built-in tagger


# word -> tag in the tagger's precedence order; the lexicons are pairwise
# disjoint, so each word has exactly one entry
_LEXICON_TAGS: dict[str, str] = {}
for _words, _tag in (
    (WH_PRON, "PRON"), (WH_ADV, "ADV"),
    (AUX_VERBS, "VERB"),  # refined to AUX in builtin_annotate when linkable
    ({"to"}, "PART"), (DETERMINERS, "DET"), (PRONOUNS, "PRON"),
    (ADPOSITIONS, "ADP"), (CCONJ, "CCONJ"), (SCONJ, "SCONJ"), (ADVERBS, "ADV"),
    (NUMBER_WORDS, "NUM"), (ADJECTIVES, "ADJ"), (NOUN_EXCEPTIONS, "NOUN"),
    (CONTENT_VERBS, "VERB"),
):
    for _word in _words:
        _LEXICON_TAGS.setdefault(_word, _tag)


def _tag_tokens(raw: Sequence[_RawToken]) -> list[str]:
    tags: list[str] = []
    lowers = [t.surface.lower() for t in raw]
    for i, tok in enumerate(raw):
        word = tok.surface
        lower = lowers[i]
        if tok.is_placeholder:
            tags.append("NOUN")
        elif _PUNCT.fullmatch(word):
            tags.append("PUNCT")
        elif lower in _LEXICON_TAGS:
            tags.append(_LEXICON_TAGS[lower])
        elif is_number(lower):
            tags.append("NUM")
        elif lower.endswith(_VERB_SUFFIXES) and len(lower) > 4:
            tags.append("VERB")
        elif word[0].isupper() and i > 0:
            tags.append("PROPN")
        else:
            tags.append("NOUN")
    # "to" is an infinitive marker only before a verb; elsewhere it is a
    # plain adposition ("the inputs to this software")
    for i, tag in enumerate(tags):
        if tag == "PART" and lowers[i] == "to":
            nxt = tags[i + 1] if i + 1 < len(tags) else None
            if nxt not in ("VERB", "AUX"):
                tags[i] = "ADP"
    return tags


def _is_content_verb(word: str, tag: str) -> bool:
    return tag == "VERB" and word.lower() not in AUX_VERBS


_AUX_SCAN_STOP = {"SCONJ", "CCONJ", "PUNCT", "ADP"}


def builtin_annotate(text: str) -> list[TokenAnnotation]:
    """Deterministic lexicon/suffix tagger with a minimal dependency layer.

    Guarantees used by the chunker: auxiliary-lexicon verbs get pos AUX and
    an ``aux`` arc to the content verb they introduce (when one follows in
    the same clause); adpositions directly after a content verb attach to
    that verb; bracketed placeholders are single NOUN tokens.
    """
    if not text or not text.strip():
        raise AnnotationError("empty CQ text")
    raw = tokenize(text)
    if not raw:
        raise AnnotationError("no tokens in CQ text")
    tags = _tag_tokens(raw)

    aux_link: dict[int, int] = {}
    for i, tok in enumerate(raw):
        if tags[i] == "VERB" and tok.surface.lower() in AUX_VERBS:
            for j in range(i + 1, len(raw)):
                if tags[j] in _AUX_SCAN_STOP:
                    break
                if _is_content_verb(raw[j].surface, tags[j]):
                    aux_link[i] = j
                    tags[i] = "AUX"
                    break

    root = next((i for i, t in enumerate(raw)
                 if _is_content_verb(t.surface, tags[i])), None)
    if root is None:
        root = next((i for i, t in enumerate(tags) if t == "VERB"), 0)

    heads = [root] * len(raw)
    deprels = ["dep"] * len(raw)
    heads[root] = root
    deprels[root] = "root"
    for aux, verb in aux_link.items():
        heads[aux] = verb
        deprels[aux] = "aux"
    for i in range(len(raw)):
        if tags[i] != "ADP" or i == root:  # a verbless CQ may be rooted at an ADP
            continue
        if i > 0 and _is_content_verb(raw[i - 1].surface, tags[i - 1]):
            heads[i] = i - 1
            deprels[i] = "prep"
        else:
            nxt = next((j for j in range(i + 1, len(raw))
                        if tags[j] in ("NOUN", "PROPN", "NUM")), root)
            heads[i] = nxt
            deprels[i] = "case"

    return [
        TokenAnnotation(i, tok.surface, tags[i], heads[i], deprels[i],
                        tok.is_placeholder)
        for i, tok in enumerate(raw)
    ]


# ---------------------------------------------------------------------------
# CoNLL-U ingestion


def read_conllu(path: Path) -> list[list[TokenAnnotation]]:
    """Read a 10-column CoNLL-U file into sentences of annotations."""
    sentences: list[list[TokenAnnotation]] = []
    current: list[tuple[str, str, int, str, int]] = []
    try:
        lines = read_text(Path(path)).splitlines()
    except CorpusError as exc:
        raise AnnotationError(str(exc)) from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            if current:
                sentences.append(_finish_conllu_sentence(path, current))
                current = []
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise AnnotationError(
                f"{path}: line {lineno}: expected 10 columns, got {len(cols)}"
            )
        token_id, form, _lemma, upos = cols[0], cols[1], cols[2], cols[3]
        if "-" in token_id or "." in token_id:
            continue  # multiword/empty nodes carry no tree structure
        try:
            head = int(cols[6])
        except ValueError as exc:
            raise AnnotationError(
                f"{path}: line {lineno}: non-numeric HEAD {cols[6]!r}"
            ) from exc
        if upos not in POS_TAGS:
            upos = "X"
        current.append((form, upos, head, cols[7], lineno))
    if current:
        sentences.append(_finish_conllu_sentence(path, current))
    return sentences


def _finish_conllu_sentence(path, rows) -> list[TokenAnnotation]:
    """A sentence's tokens, once every HEAD is in range and one is the root."""
    tokens = []
    for i, (form, upos, head, deprel, lineno) in enumerate(rows):
        head_idx = i if head == 0 else head - 1
        if not (0 <= head_idx < len(rows)):
            raise AnnotationError(f"{path}: line {lineno}: HEAD {head} out of range")
        tokens.append(
            TokenAnnotation(i, form, upos, head_idx, deprel,
                            form.startswith("[") and form.endswith("]"))
        )
    roots = sum(1 for t in tokens if t.head == t.index)
    if roots != 1:
        raise AnnotationError(f"{path}: sentence at line {rows[0][4]}: "
                              f"expected exactly one root, got {roots}")
    return tokens


def annotate(text: str, conllu_path: Optional[Path] = None) -> list[TokenAnnotation]:
    """Annotate CQ text with the built-in tagger, or, given ``conllu_path``,
    with the first sentence of that CoNLL-U file that matches it."""
    if conllu_path is None:
        return builtin_annotate(text)
    wanted = _UNSPELLED.sub("", text)
    for sentence in read_conllu(conllu_path):
        if _UNSPELLED.sub("", "".join(t.surface for t in sentence)) == wanted:
            return sentence
    raise AnnotationError(f"{conllu_path}: no sentence matches the CQ text {text!r}")


# ---------------------------------------------------------------------------
# Chunk identification


def _ec_allowed_noun(token: TokenAnnotation) -> bool:
    if token.is_placeholder:
        return True
    if token.pos not in ("NOUN", "PROPN"):
        return False
    return token.surface.lower() not in EC_NOUN_STOPLIST


def _match_ec(tokens: Sequence[TokenAnnotation], start: int) -> Optional[int]:
    """Longest DET? ADV? ADJ* (NOUN|PROPN|placeholder)+ span from start."""
    i = start
    n = len(tokens)
    if tokens[i].is_placeholder:
        return i + 1
    if i < n and tokens[i].pos == "DET":
        i += 1
    if i < n and tokens[i].pos == "ADV":
        i += 1
    while i < n and tokens[i].pos == "ADJ":
        i += 1
    nouns = 0
    while i < n and _ec_allowed_noun(tokens[i]) and not tokens[i].is_placeholder:
        i += 1
        nouns += 1
    if nouns == 0:
        return None
    return i


def identify_chunks(tokens: Sequence[TokenAnnotation]) -> list[Chunk]:
    """Mark maximal EC and PC spans and assign dense left-to-right ordinals."""
    n = len(tokens)
    taken = [False] * n
    ec_spans: list[tuple[int, int]] = []
    pc_groups: list[list[tuple[int, int]]] = []

    # predicate chunks first: AUX? VERB PART? plus a verb-attached trailing
    # adposition; a dependency-linked non-adjacent AUX joins as an extra span
    i = 0
    while i < n:
        tok = tokens[i]
        if _is_content_verb(tok.surface, tok.pos):
            start = i
            if i > 0 and tokens[i - 1].pos == "AUX" and tokens[i - 1].head == i:
                start = i - 1
            end = i + 1
            if end < n and tokens[end].pos == "PART":
                following_verb = end + 1 < n and tokens[end + 1].pos in ("VERB", "AUX")
                if not following_verb:
                    end += 1
            if end < n and tokens[end].pos == "ADP" and tokens[end].head == i:
                end += 1
            fragments = [(start, end)]
            for j in range(n):
                if tokens[j].pos == "AUX" and tokens[j].deprel == "aux" \
                        and tokens[j].head == i and not (start <= j < end):
                    fragments.append((j, j + 1))
            fragments.sort()
            pc_groups.append(fragments)
            for s, e in fragments:
                for k in range(s, e):
                    taken[k] = True
            i = end
        else:
            i += 1

    i = 0
    while i < n:
        if taken[i]:
            i += 1
            continue
        end = _match_ec(tokens, i)
        if end is not None and not any(taken[i:end]):
            ec_spans.append((i, end))
            for k in range(i, end):
                taken[k] = True
            i = end
        else:
            i += 1

    chunks: list[Chunk] = []
    ec_spans.sort()
    for ordinal, (s, e) in enumerate(ec_spans, start=1):
        chunks.append(Chunk("EC", ((s, e),), ordinal,
                            _surface(tokens, [(s, e)])))
    pc_groups.sort(key=lambda frags: frags[0])
    for ordinal, frags in enumerate(pc_groups, start=1):
        chunks.append(Chunk("PC", tuple(frags), ordinal,
                            _surface(tokens, frags)))
    return chunks


def _surface(tokens: Sequence[TokenAnnotation], spans: Iterable[tuple[int, int]]) -> str:
    words = []
    for s, e in spans:
        words.extend(t.surface for t in tokens[s:e])
    return " ".join(words)


# ---------------------------------------------------------------------------
# Pattern candidate construction


_ATTACH_PREVIOUS = {",", *_CLITICS, ";", ":"}


def _detokenize(words: Sequence[str]) -> str:
    out = ""
    for w in words:
        if not out:
            out = w
        elif w in _ATTACH_PREVIOUS:
            out += w
        else:
            out += " " + w
    return out


def to_pattern_candidate(sentence: AnnotatedSentence) -> str:
    """Replace chunk spans with EC/PC slots; keep other tokens verbatim.

    Discontinuous PCs repeat their slot once per fragment.  The terminal
    question mark is dropped; casing is preserved (normalization happens in
    the pattern layer, not here).
    """
    slot_at: dict[int, str] = {}
    covered: set[int] = set()
    for chunk in sentence.chunks:
        for s, e in chunk.spans:
            slot_at[s] = chunk.label
            covered.update(range(s, e))
    words: list[str] = []
    for tok in sentence.tokens:
        if tok.index in slot_at:
            words.append(slot_at[tok.index])
        elif tok.index in covered:
            continue
        elif tok.pos == "NUM":
            words.append("NUM")
        else:
            words.append(tok.surface)
    while words and _END_PUNCT.fullmatch(words[-1]):
        words.pop()
    return _detokenize(words)


def annotate_sentence(
    cq_id: str, text: str, conllu_path: Optional[Path] = None
) -> AnnotatedSentence:
    tokens = tuple(annotate(text, conllu_path))
    chunks = tuple(identify_chunks(tokens))
    return AnnotatedSentence(cq_id, tokens, chunks)
