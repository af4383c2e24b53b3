"""Joint disambiguation of context-sharing seed words.

Seed words arriving from one scenario share a context, so the right
sense of each word is the one that keeps the whole set semantically
close.  The greedy spanning-tree procedure below picks senses that
minimize the total 1 - Wu-Palmer attachment cost, then the word sense
profiles show how individual relation endpoints are disambiguated.
"""

from situnet import data_path
from situnet.disambiguation import build_wsp, disambiguate_edge, disambiguate_seeds
from situnet.lexicon import load_lexicon, load_stopwords
from situnet.relatedness import EsaRelatedness, build_esa_index, load_documents

lexicon = load_lexicon(data_path("lexicon"))
stopwords = load_stopwords(str(data_path("stopwords.txt")))

# -- the classic ambiguous case: pan among kitchen words ---------------------

seeds = ["pan", "stove", "garlic"]
assignment = disambiguate_seeds(seeds, lexicon)
print(f"seeds {seeds} (tree grown from {assignment.start_word!r}, "
      f"total cost {assignment.total_cost:.3f}):")
for word, (sense_id, cost) in assignment.choices.items():
    gloss = lexicon.get(sense_id).gloss
    print(f"  {word:8s} cost {cost:.3f}  {gloss[:60]}")
print()

# the full recipe seed list behaves the same way
recipe_seeds = [w.strip() for w in open(data_path("seeds", "recipe.txt"))]
recipe = disambiguate_seeds(recipe_seeds, lexicon)
pan_gloss = lexicon.get(recipe.sense_of("pan")).gloss
print(f"recipe scenario ({len(recipe_seeds)} seeds) keeps pan as: {pan_gloss}\n")

# -- word sense profiles -----------------------------------------------------

print("word sense profile of each 'pan' sense (first 10 words):")
for sense in lexicon.senses("pan"):
    profile = build_wsp(sense, lexicon, stopwords)
    print(f"  {sense.gloss[:40]:42s} {profile[:10]}")
print()

# -- relation-endpoint disambiguation with a relatedness provider -------------

documents = load_documents(str(data_path("esa_corpus.tsv")))
provider = EsaRelatedness(build_esa_index(documents, stopwords=stopwords))

for context in ("fry", "worship"):
    chosen, score = disambiguate_edge(context, "pan", lexicon, provider, stopwords)
    print(f"'pan' in the context of '{context}': {lexicon.get(chosen).gloss[:52]}"
          f"  (score {score:.2f})")
