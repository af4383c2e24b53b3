"""WordNet-style lexical database: parsing, sense lookup, taxonomy metrics.

The lexicon is read from the standard ``index.noun`` / ``data.noun`` file
pair layout.  Only the pointer symbols relevant to taxonomy navigation are
consumed (``@`` hypernym, ``~`` hyponym, ``%p``/``%m``/``%s`` meronym,
``#p``/``#m``/``#s`` holonym); everything else is ignored.
:func:`parse_lexicon` takes the text of the pair; the ``load_*`` functions
take a path and open it.  :func:`load_lexicon` reads each file whole; a
data line's pointer quadruples are read through strided slices of its
fields.  Wu-Palmer similarity intersects ancestor sets held as bit masks
ordered by depth, so the highest shared bit is the least common subsumer.

A parsed :class:`LexiconIndex` is immutable after construction and safe for
concurrent reads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .dag import CycleError, reachable, topological_order

MERONYM_SYMBOLS = ("%p", "%m", "%s")
HOLONYM_SYMBOLS = ("#p", "#m", "#s")

# maximal alphanumeric runs of two characters or more
_TOKEN_RE = re.compile(r"[a-z0-9]{2,}")


class LexiconParseError(ValueError):
    """A malformed line in an index/data stream, with its line number."""

    def __init__(self, message, line_number):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class HierarchyCycleError(ValueError):
    """The hypernym graph contains a cycle; ``cycle`` lists its synset ids."""

    def __init__(self, cycle):
        super().__init__("cyclic hypernym links: " + " -> ".join(cycle))
        self.cycle = list(cycle)


class UndefinedSimilarityError(ValueError):
    """Two synsets share no root ancestor, so Wu-Palmer is undefined."""


def normalize_lemma(text: str) -> str:
    """Lowercase a term and normalize spaces to underscores."""
    return text.strip().lower().replace(" ", "_")


def tokenize(text: str, stopwords=frozenset()) -> list[str]:
    """Split free text into content tokens.

    Lowercases, splits on non-alphanumeric boundaries, and drops stopwords
    and single-character tokens.  This one rule is shared by gloss
    processing and document indexing so profiles and relatedness vectors
    agree on token identity.
    """
    return [tok for tok in _TOKEN_RE.findall(text.lower()) if tok not in stopwords]


@dataclass
class Synset:
    """One word sense: its lemmas, gloss, and taxonomy links.

    Link lists hold synset ids.  ``hypernyms``/``hyponyms`` are exact
    inverses of each other across the lexicon, as are ``meronyms`` (parts
    of this synset) and ``holonyms`` (wholes it belongs to).
    """

    id: str
    pos: str
    lemmas: list[str]
    gloss: str
    hypernyms: list[str] = field(default_factory=list)
    hyponyms: list[str] = field(default_factory=list)
    meronyms: list[str] = field(default_factory=list)
    holonyms: list[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.lemmas[0]


class LexiconIndex:
    """Immutable index over a parsed lexicon.

    ``synsets`` maps id -> :class:`Synset`; ``lemma_index`` maps
    ``(lemma, pos)`` to synset ids in sense-rank order; ``roots`` lists
    synsets with no hypernyms.  Depths are precomputed: the depth of a
    synset is the node count of its longest root path (roots have depth 1).
    """

    def __init__(self, synsets: dict[str, Synset], lemma_index: dict[tuple[str, str], list[str]]):
        self.synsets = synsets
        self.lemma_index = lemma_index
        self.roots = [sid for sid, syn in synsets.items() if not syn.hypernyms]
        self._hypernyms = {sid: syn.hypernyms for sid, syn in synsets.items()}
        try:
            order = topological_order(synsets, self._hypernyms)
        except CycleError as error:
            raise HierarchyCycleError(error.cycle) from None
        self._depths: dict[str, int] = {}
        for sid in order:
            self._depths[sid] = 1 + max((self._depths[p] for p in self._hypernyms[sid]
                                         if p in synsets), default=0)
        self._ancestor_cache: dict[str, frozenset[str]] = {}
        # Ancestor sets as bit masks for Wu-Palmer: bit i stands for the i-th
        # synset by depth, so the highest bit two masks share is a deepest
        # common ancestor.
        by_depth = sorted(order, key=self._depths.__getitem__)
        self._bit = {sid: i for i, sid in enumerate(by_depth)}
        self._depth_at_bit = [self._depths[sid] for sid in by_depth]
        self._mask_cache: dict[str, int] = {}

    # -- lookups ---------------------------------------------------------

    def __len__(self):
        return len(self.synsets)

    def get(self, synset_id: str) -> Synset:
        return self.synsets[synset_id]

    def senses(self, word: str, pos: str = "n") -> list[Synset]:
        """All senses of ``word`` in stored rank order; [] if unknown."""
        ids = self.lemma_index.get((normalize_lemma(word), pos), [])
        return [self.synsets[i] for i in ids]

    def has_lemma(self, word: str, pos: str = "n") -> bool:
        return (normalize_lemma(word), pos) in self.lemma_index

    def ancestors(self, synset_id: str) -> frozenset[str]:
        """The hypernym closure of a synset, including the synset itself."""
        cached = self._ancestor_cache.get(synset_id)
        if cached is None:
            cached = frozenset(reachable([synset_id], self._hypernyms))
            self._ancestor_cache[synset_id] = cached
        return cached

    def _ancestor_mask(self, synset_id: str) -> int:
        """:meth:`ancestors` as a bit mask; never 0, since it holds the synset."""
        mask = 0
        for sid in self.ancestors(synset_id):
            mask |= 1 << self._bit[sid]
        self._mask_cache[synset_id] = mask
        return mask

    # -- taxonomy metrics --------------------------------------------------

    def wup_similarity(self, a, b) -> float:
        """Wu-Palmer similarity 2*depth(lcs) / (depth(a) + depth(b)).

        Depth counts nodes on the path from a root, inclusive, taking the
        deepest path when several exist; the least common subsumer is the
        shared ancestor of maximal depth.  Raises
        :class:`UndefinedSimilarityError` when no ancestor is shared.
        """
        sid_a = a.id if isinstance(a, Synset) else a
        sid_b = b.id if isinstance(b, Synset) else b
        masks = self._mask_cache
        common = (masks.get(sid_a) or self._ancestor_mask(sid_a)) & \
            (masks.get(sid_b) or self._ancestor_mask(sid_b))
        if not common:
            raise UndefinedSimilarityError(f"no common ancestor for {sid_a} and {sid_b}")
        lcs_depth = self._depth_at_bit[common.bit_length() - 1]
        return 2.0 * lcs_depth / (self._depths[sid_a] + self._depths[sid_b])


@dataclass
class CorpusFrequencies:
    """Word occurrence counts from a reference corpus."""

    counts: dict[str, int]
    total: int

    @classmethod
    def from_counts(cls, counts: dict[str, int]) -> "CorpusFrequencies":
        return cls(dict(counts), sum(counts.values()))

    def information_content(self, word: str) -> float:
        """-ln of the word's corpus probability.

        Unseen words get -ln(1 / (total + 1)): high enough that they are
        never classified as very general top-level terms.
        """
        count = self.counts.get(normalize_lemma(word))
        if count is None:
            return -math.log(1.0 / (self.total + 1))
        return -math.log(count / self.total)


# ---------------------------------------------------------------------------
# File parsing
# ---------------------------------------------------------------------------


def parse_lexicon(index_source, data_source) -> LexiconIndex:
    """Parse an ``index.<pos>`` / ``data.<pos>`` stream pair.

    Either argument may be an iterable of lines or a whole string.  Header
    lines starting with whitespace are skipped, as in the stock database
    files.  Inverse links (hyponym for hypernym, holonym for meronym) are
    reconstructed when only one direction appears in the source.
    """
    synsets: dict[str, Synset] = {}
    for line_no, line in enumerate(_lines(data_source), start=1):
        if not line.strip() or line[0] == " ":
            continue
        syn = _parse_data_line(line, line_no)
        synsets[syn.id] = syn

    _reconstruct_inverses(synsets)

    lemma_index: dict[tuple[str, str], list[str]] = {}
    for line_no, line in enumerate(_lines(index_source), start=1):
        if not line.strip() or line[0] == " ":
            continue
        lemma, pos, sids = _parse_index_line(line, line_no)
        ranked = []
        for sid in sids:
            full = f"{sid}-{pos}"
            if full not in synsets:
                raise LexiconParseError(f"index references unknown synset {sid}", line_no)
            if full not in ranked:
                ranked.append(full)
        lemma_index[(lemma, pos)] = ranked

    # Lemmas only present in data lines still get (rank-ordered by offset)
    # index entries so every stored lemma is searchable.
    for sid in sorted(synsets):
        syn = synsets[sid]
        for lemma in syn.lemmas:
            bucket = lemma_index.setdefault((lemma, syn.pos), [])
            if sid not in bucket:
                bucket.append(sid)

    return LexiconIndex(synsets, lemma_index)


def _lines(source):
    if isinstance(source, str):
        return source.splitlines()
    return source


def _parse_index_line(line, line_no):
    fields = line.split()
    if len(fields) < 4:
        raise LexiconParseError("too few fields in index line", line_no)
    lemma = normalize_lemma(fields[0])
    pos = fields[1]
    try:
        count = int(fields[2])
    except ValueError:
        raise LexiconParseError(f"bad synset count {fields[2]!r}", line_no) from None
    if count < 1 or len(fields) < 3 + count:
        raise LexiconParseError("synset count does not match offsets", line_no)
    offsets = fields[-count:]
    for off in offsets:
        if not off.isdigit():
            raise LexiconParseError(f"bad synset offset {off!r}", line_no)
    return lemma, pos, offsets


# pointer symbol -> slot of its link list: hypernyms, hyponyms, meronyms, holonyms
_LINK_SLOTS = {"@": 0, "~": 1, **dict.fromkeys(MERONYM_SYMBOLS, 2),
               **dict.fromkeys(HOLONYM_SYMBOLS, 3)}


def _parse_data_line(line, line_no) -> Synset:
    body, _, gloss = line.partition("|")
    fields = body.split()
    if len(fields) < 6:
        raise LexiconParseError("too few fields in data line", line_no)
    offset, pos = fields[0], fields[2]
    if not offset.isdigit():
        raise LexiconParseError(f"bad synset offset {offset!r}", line_no)
    try:
        w_cnt = int(fields[3], 16)
    except ValueError:
        raise LexiconParseError(f"bad word count {fields[3]!r}", line_no) from None
    p_pos = 4 + 2 * w_cnt
    if w_cnt < 1 or len(fields) < p_pos + 1:
        raise LexiconParseError("word count does not match fields", line_no)
    lemmas = [normalize_lemma(word) for word in fields[4:p_pos:2]]
    if not all(lemmas):
        raise LexiconParseError("empty lemma", line_no)

    try:
        p_cnt = int(fields[p_pos])
    except ValueError:
        raise LexiconParseError(f"bad pointer count {fields[p_pos]!r}", line_no) from None
    # (symbol, target offset, target pos, source/target) quadruples; a
    # negative count reads as none
    pointers = fields[p_pos + 1:p_pos + 1 + 4 * max(p_cnt, 0)]
    if len(pointers) < 4 * p_cnt:
        raise LexiconParseError("pointer count does not match fields", line_no)

    links = ([], [], [], [])
    for sym, target, tpos in zip(pointers[::4], pointers[1::4], pointers[2::4]):
        slot = _LINK_SLOTS.get(sym)
        if slot is not None:
            bucket = links[slot]
            target_id = f"{target}-{tpos}"
            if target_id not in bucket:
                bucket.append(target_id)
    return Synset(f"{offset}-{pos}", pos, lemmas, gloss.strip(), *links)


def _reconstruct_inverses(synsets):
    for sid in sorted(synsets):
        syn = synsets[sid]
        for targets, backward in ((syn.hypernyms, "hyponyms"), (syn.hyponyms, "hypernyms"),
                                  (syn.meronyms, "holonyms"), (syn.holonyms, "meronyms")):
            for target in targets:
                other = synsets.get(target)
                if other is not None:
                    inverse = getattr(other, backward)
                    if sid not in inverse:
                        inverse.append(sid)


# ---------------------------------------------------------------------------
# File writing (round-trip support and fixture generation)
# ---------------------------------------------------------------------------


def write_lexicon(index: LexiconIndex) -> tuple[str, str]:
    """Serialize an index back to (index text, data text) in file layout."""
    data_lines = []
    for sid in sorted(index.synsets):
        data_lines.append(_format_data_line(index.synsets[sid]))

    index_lines = []
    for (lemma, pos) in sorted(index.lemma_index):
        sids = index.lemma_index[(lemma, pos)]
        symbols = []
        for sid in sids:
            syn = index.synsets[sid]
            for sym, links in (("@", syn.hypernyms), ("~", syn.hyponyms),
                               ("%p", syn.meronyms), ("#p", syn.holonyms)):
                if links and sym not in symbols:
                    symbols.append(sym)
        offsets = " ".join(sid.split("-")[0] for sid in sids)
        index_lines.append(
            f"{lemma} {pos} {len(sids)} {len(symbols)}"
            + ("".join(" " + s for s in symbols))
            + f" {len(sids)} 0 {offsets}"
        )
    return "\n".join(index_lines) + "\n", "\n".join(data_lines) + "\n"


def _format_data_line(syn: Synset) -> str:
    offset = syn.id.split("-")[0]
    parts = [offset, "03", syn.pos, f"{len(syn.lemmas):02x}"]
    for lemma in syn.lemmas:
        parts.extend([lemma, "0"])
    pointers = []
    for sym, links in (("@", syn.hypernyms), ("~", syn.hyponyms),
                       ("%p", syn.meronyms), ("#p", syn.holonyms)):
        for target in links:
            toff, tpos = target.split("-")
            pointers.append(f"{sym} {toff} {tpos} 0000")
    parts.append(f"{len(pointers):03d}")
    parts.extend(pointers)
    return " ".join(parts) + " | " + syn.gloss


# ---------------------------------------------------------------------------
# Auxiliary file loaders
# ---------------------------------------------------------------------------


def load_lexicon(directory) -> LexiconIndex:
    """Load ``index.noun`` and ``data.noun`` from a directory path."""
    base = Path(directory)
    with open(base / "index.noun", encoding="utf-8") as idx, \
            open(base / "data.noun", encoding="utf-8") as dat:
        # split on "\n" alone, as iterating the file would, with one read each
        return parse_lexicon(idx.read().split("\n"), dat.read().split("\n"))


def load_frequencies(path) -> CorpusFrequencies:
    """Read a file of ``word<TAB>count`` lines into :class:`CorpusFrequencies`.

    A malformed line or a count below 1 raises :class:`LexiconParseError`.
    """
    counts: dict[str, int] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                word, count = line.split("\t")
                count = int(count)
            except ValueError:
                raise LexiconParseError(f"bad frequency line {line!r}", line_no) from None
            if count < 1:
                raise LexiconParseError(f"count below 1 in {line!r}", line_no)
            word = normalize_lemma(word)
            counts[word] = counts.get(word, 0) + count
    return CorpusFrequencies.from_counts(counts)


def load_stopwords(path) -> frozenset[str]:
    """Read a one-word-per-line stopword file, skipping ``#`` comment lines."""
    with open(path, encoding="utf-8") as handle:
        words = {raw.strip().lower() for raw in handle}
    return frozenset(w for w in words if w and not w.startswith("#"))
