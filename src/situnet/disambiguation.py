"""Word sense disambiguation for seed words and relation endpoints.

Seed words are disambiguated jointly: senses are chosen so that a
greedily grown spanning tree over the seed set has minimal total
attachment cost, where the cost between two senses is 1 - Wu-Palmer
similarity.  The growth starts from the seed with the fewest senses and
is repeated for each of its candidate senses, keeping the cheapest tree.

A tree grows by Prim's incremental nearest-cost update (Prim 1957): each
unattached word keeps, per candidate sense, its cheapest edge to the
attached senses, and each attachment updates those costs against the
new sense only.  A tree over n words with S candidate senses in all thus
costs fewer than n * S Wu-Palmer calls, where recomputing every minimum
at every step costs about n^2 * S / 6; for a 45-word mix with 52 senses
that is about 1 000 calls instead of 15 500.

Relation endpoints are disambiguated independently: each candidate sense
is scored by summing the relatedness between the context word and every
word in the sense's word sense profile (:func:`build_wsp`: synonyms,
gloss words, direct hypernyms/hyponyms, meronyms/holonyms, hyponym gloss
words).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .lexicon import (
    LexiconIndex,
    Synset,
    UndefinedSimilarityError,
    normalize_lemma,
    tokenize,
)


class UnknownSeedError(ValueError):
    def __init__(self, word):
        super().__init__(f"seed word {word!r} has no noun sense in the lexicon")
        self.word = word


class UnknownTermError(ValueError):
    def __init__(self, term):
        super().__init__(f"term {term!r} is unknown to the lexicon")
        self.term = term


@dataclass
class SenseAssignment:
    """Chosen sense and attachment cost for each seed word.

    ``choices`` maps seed word -> (synset id, attachment cost); the start
    word anchors the tree and carries cost 0.  ``total_cost`` is the sum
    of attachment costs over the non-start words.
    """

    choices: dict[str, tuple[str, float]]
    total_cost: float
    start_word: str

    def sense_of(self, word: str) -> str | None:
        choice = self.choices.get(normalize_lemma(word))
        return choice[0] if choice else None


def _cost(lexicon: LexiconIndex, a: Synset, b: Synset) -> float:
    try:
        return 1.0 - lexicon.wup_similarity(a, b)
    except UndefinedSimilarityError:
        return 1.0


def disambiguate_seeds(seeds, lexicon: LexiconIndex) -> SenseAssignment:
    """Jointly disambiguate a seed word list against the lexicon.

    The start word is the seed with the fewest noun senses (earlier input
    position wins ties).  For each of its candidate senses a tree is grown
    greedily: at every step the unattached word with the cheapest edge to
    any attached word joins the tree, its sense fixed to the minimizer of
    that edge cost.  The candidate start sense whose completed tree is
    cheapest wins; all remaining ties prefer lower sense rank, so the
    result is deterministic for a given input order.
    """
    seeds = [normalize_lemma(w) for w in seeds]
    deduped = list(dict.fromkeys(seeds))
    sense_lists = {}
    for word in deduped:
        senses = lexicon.senses(word, "n")
        if not senses:
            raise UnknownSeedError(word)
        sense_lists[word] = senses

    start_word = min(deduped, key=lambda w: (len(sense_lists[w]), deduped.index(w)))

    best: SenseAssignment | None = None
    for start_sense in sense_lists[start_word]:
        assignment = _grow_tree(deduped, sense_lists, start_word, start_sense, lexicon)
        if best is None or assignment.total_cost < best.total_cost:
            best = assignment
    return best


def _grow_tree(words, sense_lists, start_word, start_sense, lexicon):
    fixed: dict[str, tuple[str, float]] = {start_word: (start_sense.id, 0.0)}
    # Prim's nearest-cost lists: per unattached word, the cheapest edge from
    # each of its candidate senses to any attached sense, in rank order
    nearest = {w: [_cost(lexicon, candidate, start_sense) for candidate in sense_lists[w]]
               for w in words if w != start_word}
    total = 0.0

    while nearest:
        # (cost, word position, sense rank) minimized lexicographically: each
        # word's cheapest cost at its lowest rank, then the cheapest word;
        # dicts keep input order, so the position ranks words as the input does
        cost, _, word = min((min(costs), pos, word)
                            for pos, (word, costs) in enumerate(nearest.items()))
        sense = sense_lists[word][nearest[word].index(cost)]
        fixed[word] = (sense.id, cost)
        del nearest[word]
        total += cost
        for w, costs in nearest.items():
            for rank, candidate in enumerate(sense_lists[w]):
                new_cost = _cost(lexicon, candidate, sense)
                if new_cost < costs[rank]:
                    costs[rank] = new_cost

    ordered = {w: fixed[w] for w in words}
    return SenseAssignment(choices=ordered, total_cost=total, start_word=start_word)


def build_wsp(sense, lexicon: LexiconIndex, stopwords=frozenset()) -> list[str]:
    """The word sense profile of a sense, as a list of context words.

    In order: its lemmas, its gloss words, the lemmas of its direct
    hypernyms and hyponyms, then of its meronyms and holonyms, and its
    hyponyms' gloss words.  Each word is kept at its first occurrence;
    stopwords are dropped.
    """
    syn = sense if isinstance(sense, Synset) else lexicon.get(sense)
    synsets = lexicon.synsets
    words = list(syn.lemmas) + tokenize(syn.gloss, stopwords)
    for sid in syn.hypernyms + syn.hyponyms + syn.meronyms + syn.holonyms:
        if sid in synsets:
            words.extend(synsets[sid].lemmas)
    for sid in syn.hyponyms:
        if sid in synsets:
            words.extend(tokenize(synsets[sid].gloss, stopwords))
    return [w for w in dict.fromkeys(words) if w and w not in stopwords]


def disambiguate_edge(c: str, d: str, lexicon: LexiconIndex, provider,
                      stopwords=frozenset(), profiles=None) -> tuple[str, float]:
    """Choose the sense of ambiguous term ``d`` given context word ``c``.

    Each sense of ``d`` is scored as the sum of provider relatedness
    between ``c`` and every profile word of that sense; the argmax wins,
    ties resolving to the lower sense rank.  Returns (synset id, score).

    ``profiles`` maps synset id -> :func:`build_wsp` profile under
    ``stopwords``; a profile missing from it is built and added, so a
    caller that passes one dict for many edges builds each profile once.
    """
    senses = lexicon.senses(d, "n")
    if not senses:
        raise UnknownTermError(d)
    if profiles is None:
        profiles = {}
    best_sense = None
    best_score = None
    for sense in senses:
        profile = profiles.get(sense.id)
        if profile is None:
            profile = profiles[sense.id] = build_wsp(sense, lexicon, stopwords)
        score = sum(map(provider.score, repeat(c), profile))
        if best_score is None or score > best_score:
            best_score = score
            best_sense = sense
    return best_sense.id, best_score


def save_assignment(assignment: SenseAssignment, path) -> None:
    """Write ``word<TAB>synset_id`` lines in input order."""
    with open(path, "w", encoding="utf-8") as out:
        for word in assignment.choices:
            out.write(f"{word}\t{assignment.choices[word][0]}\n")
