#!/usr/bin/env python3
"""Regenerate the bundled miniature datasets under src/situnet/data/.

The lexicon is a hand-designed ~100-synset noun hierarchy covering three
household scenarios (recipe, laundry, cleaning) plus distractor branches
(mythology, zoology, botany, chemistry) that give several words competing
senses.  The relation dump, frequency list, and document corpus are sized
so the full pipeline runs in seconds while still exercising every stage.

Run from the repository root after an editable install:

    python tools/make_fixtures.py [OUT_DIR]

OUT_DIR defaults to the package's own data directory; any other
directory receives the same file tree, which is how a test checks that
the bundled files are this script's output byte for byte.
"""

import argparse
from pathlib import Path

from situnet.lexicon import LexiconIndex, Synset, parse_lexicon, write_lexicon

DATA = Path(__file__).resolve().parent.parent / "src" / "situnet" / "data"


# ---------------------------------------------------------------------------
# Synset inventory: key, lemmas, hypernym keys, gloss, meronym keys
# ---------------------------------------------------------------------------

SYNSETS = [
    # top level / abstract
    ("entity", ("entity",), (), "that which is perceived or known or inferred to have its own distinct existence", ()),
    ("physical_entity", ("physical_entity",), ("entity",), "an entity that has physical existence", ()),
    ("abstraction", ("abstraction", "abstract_entity"), ("entity",), "a general concept formed by extracting common features from specific examples", ()),
    ("matter", ("matter",), ("entity",), "that which has mass and occupies space", ()),
    ("object", ("object", "physical_object"), ("physical_entity",), "a tangible and visible entity", ()),
    ("whole", ("whole", "unit"), ("object",), "an assemblage of parts that is regarded as a single entity", ()),
    ("part", ("part", "portion"), ("object",), "something less than the whole of a human artifact", ()),
    ("handle", ("handle", "grip", "handgrip", "hold"), ("part",), "the appendage to an object that is designed to be held in order to use or move it", ()),
    # living / distractor branches
    ("living_thing", ("living_thing", "animate_thing"), ("whole",), "a living (or once living) entity", ()),
    ("organism", ("organism", "being"), ("living_thing",), "a living thing that has (or can develop) the ability to act or function independently", ()),
    ("animal", ("animal", "animate_being", "beast", "creature", "fauna"), ("organism",), "a living organism characterized by voluntary movement", ()),
    ("sponge_animal", ("sponge",), ("animal",), "primitive multicellular marine animal whose porous body is supported by a fibrous skeletal framework", ()),
    ("plant", ("plant", "flora", "plant_life"), ("organism",), "a living organism lacking the power of locomotion", ()),
    ("shrub", ("shrub", "bush"), ("plant",), "a low woody perennial plant usually having several major stems", ()),
    ("group", ("group", "grouping"), ("abstraction",), "any number of entities considered as a unit", ()),
    ("vegetation", ("vegetation", "flora"), ("group",), "all the plant life in a particular region or period", ()),
    ("brush_vegetation", ("brush", "brushwood", "coppice", "thicket"), ("vegetation",), "a dense growth of bushes or small trees", ()),
    ("taxonomic_group", ("taxonomic_group", "taxonomic_category", "taxon"), ("group",), "animal or plant group having natural relations", ()),
    ("genus", ("genus",), ("taxonomic_group",), "a taxonomic group containing one or more species", ()),
    ("pan_genus", ("pan", "genus_pan"), ("genus",), "chimpanzees; more closely related to Australopithecus than to other pongids", ()),
    ("spiritual_being", ("spiritual_being", "supernatural_being"), ("abstraction",), "an incorporeal being believed to have the power to affect the course of human events", ()),
    ("deity", ("deity", "divinity", "god", "immortal"), ("spiritual_being",), "any supernatural being worshipped as controlling some part of the world or some aspect of life", ()),
    ("pan_deity", ("pan", "goat_god"), ("deity",), "(Greek mythology) god of fields and woods and shepherds and flocks; represented as a man with the legs and horns and ears of a goat", ()),
    # artifacts: utensils and implements
    ("artifact", ("artifact", "artefact"), ("whole",), "a man-made object taken as a whole", ()),
    ("instrumentality", ("instrumentality", "instrumentation"), ("artifact",), "an artifact (or system of artifacts) that is instrumental in accomplishing some end", ()),
    ("implement", ("implement",), ("instrumentality",), "instrumentation (a piece of equipment or tool) used to effect an end", ()),
    ("utensil", ("utensil",), ("implement",), "an implement for practical use (especially in a household)", ()),
    ("cooking_utensil", ("cooking_utensil", "cookware"), ("utensil",), "a kitchen utensil made of material that does not melt easily; used for cooking", ()),
    ("pan_cooking", ("pan", "cooking_pan"), ("cooking_utensil",), "cooking utensil consisting of wide metal vessel", ("handle",)),
    ("frying_pan", ("frying_pan", "frypan", "skillet"), ("pan_cooking",), "a pan used for frying foods", ()),
    ("saucepan", ("saucepan",), ("pan_cooking",), "a deep pan with a handle; used for stewing or boiling", ()),
    ("pot", ("pot",), ("cooking_utensil",), "metal or earthenware cooking vessel that is usually round and deep; often has a handle and lid", ("handle", "lid")),
    ("tableware", ("tableware",), ("utensil",), "articles for use at the table (dishes and silverware and glassware)", ()),
    ("cutlery", ("cutlery", "eating_utensil"), ("tableware",), "tableware implements for cutting and eating food", ()),
    ("fork", ("fork",), ("cutlery",), "cutlery used for serving and eating food", ()),
    ("spoon", ("spoon",), ("cutlery",), "a piece of cutlery with a shallow bowl-shaped container and a handle; used to stir or serve or take up food", ("handle",)),
    ("knife", ("knife",), ("cutlery",), "edge tool used as a cutting instrument; has a pointed blade with a sharp edge and a handle", ("handle",)),
    ("plate", ("plate",), ("tableware",), "dish on which food is served or from which food is eaten", ()),
    ("cleaning_implement", ("cleaning_implement", "cleaning_device", "cleaning_equipment"), ("implement",), "any of a large class of implements used for cleaning", ()),
    ("broom", ("broom",), ("cleaning_implement",), "a cleaning implement for sweeping; bundle of straws or twigs attached to a long handle", ("handle",)),
    ("mop", ("mop", "swab"), ("cleaning_implement",), "cleaning implement consisting of absorbent material fastened to a handle; for cleaning floors", ("handle",)),
    ("dustpan", ("dustpan",), ("cleaning_implement",), "a short-handled receptacle into which dust can be swept", ()),
    ("brush_implement", ("brush",), ("cleaning_implement",), "an implement that has hairs or bristles firmly set into a handle", ("bristle", "handle")),
    ("sponge_implement", ("sponge",), ("cleaning_implement",), "a porous mass of interlacing fibers that absorbs water and is used for washing and cleaning", ()),
    # containers
    ("article", ("article",), ("artifact",), "one of a class of artifacts", ()),
    ("ware", ("ware",), ("article",), "articles of the same kind or material; usually used in combination", ()),
    ("container", ("container",), ("ware",), "any object that can be used to hold things", ()),
    ("vessel_container", ("vessel",), ("container",), "an object used as a container (especially for liquids)", ()),
    ("bowl", ("bowl",), ("vessel_container",), "a dish that is round and open at the top for serving foods", ()),
    ("bucket", ("bucket", "pail"), ("vessel_container",), "a roughly cylindrical vessel that is open at the top; usually has a handle", ("handle",)),
    ("pan_container", ("pan",), ("container",), "shallow container made of metal", ()),
    ("basket", ("basket", "handbasket"), ("container",), "a container that is usually woven and has handles", ("handle",)),
    ("hamper", ("hamper",), ("basket",), "a basket usually with a cover", ()),
    # devices and appliances
    ("device", ("device",), ("instrumentality",), "an instrumentality invented for a particular purpose", ()),
    ("appliance", ("appliance",), ("device",), "durable goods for home or office use", ()),
    ("kitchen_appliance", ("kitchen_appliance",), ("appliance",), "a home appliance used in preparing food", ()),
    ("stove", ("stove", "kitchen_stove", "cooking_stove"), ("kitchen_appliance",), "a kitchen appliance used for cooking food", ()),
    ("oven", ("oven",), ("kitchen_appliance",), "kitchen appliance in which food is cooked or heated", ()),
    ("white_goods", ("white_goods",), ("appliance",), "large electrical home appliances (washing machines and dryers) that are typically finished in white enamel", ()),
    ("washer_machine", ("washer", "automatic_washer", "washing_machine"), ("white_goods",), "a home appliance for washing clothes and linens automatically", ()),
    ("dryer", ("dryer", "drier", "clothes_dryer"), ("white_goods",), "an appliance that removes moisture from laundry", ()),
    ("iron_appliance", ("iron", "smoothing_iron", "flatiron"), ("appliance",), "home appliance consisting of a flat metal base that is heated and used to smooth cloth", ("handle",)),
    ("vacuum", ("vacuum", "vacuum_cleaner"), ("appliance",), "an electrical home appliance that cleans by suction", ()),
    ("washer_ring", ("washer",), ("device",), "seal consisting of a flat disk placed to prevent leakage", ()),
    ("hanger", ("hanger", "coat_hanger", "clothes_hanger"), ("device",), "anything from which something can be hung; a curved piece for hanging clothes", ()),
    ("clothespin", ("clothespin", "clothes_pin", "clothes_peg"), ("device",), "wood or plastic fastener for holding clothes on a clothesline", ()),
    # coverings, clothing, fabric
    ("covering", ("covering",), ("artifact",), "an artifact that covers something else (usually to protect or shelter or conceal it)", ()),
    ("lid", ("lid",), ("covering",), "a movable top or cover for closing the opening at the top of a pot or jar", ()),
    ("clothing", ("clothing", "apparel", "wearable"), ("covering",), "a covering designed to be worn on a person's body", ()),
    ("garment", ("garment",), ("clothing",), "an article of clothing", ()),
    ("sock", ("sock",), ("garment",), "cloth covering for the foot; worn inside the shoe", ()),
    ("shirt", ("shirt",), ("garment",), "a garment worn on the upper half of the body", ()),
    ("trousers", ("trousers", "pants"), ("garment",), "a garment extending from the waist to the knee or ankle, covering each leg separately", ()),
    ("fabric", ("fabric", "cloth", "material", "textile"), ("artifact",), "artifact made by weaving or felting or knitting or crocheting natural or synthetic fibers", ()),
    ("piece_of_cloth", ("piece_of_cloth", "piece_of_material"), ("fabric",), "a separate part consisting of fabric", ()),
    ("rag", ("rag", "shred"), ("piece_of_cloth",), "a small piece of cloth or paper", ()),
    ("towel", ("towel",), ("piece_of_cloth",), "a rectangular piece of absorbent cloth (or paper) for drying or wiping", ()),
    ("paper_towel", ("paper_towel",), ("towel",), "a disposable towel made of absorbent paper", ()),
    ("sheet", ("sheet", "bed_sheet"), ("piece_of_cloth",), "bed linen consisting of a large rectangular piece of cotton or linen cloth", ()),
    ("blanket", ("blanket", "cover"), ("piece_of_cloth",), "bedding that keeps a person warm in bed", ()),
    ("duster", ("duster", "dustcloth", "dustrag"), ("piece_of_cloth",), "a piece of cloth used for dusting", ()),
    # substances and food
    ("substance", ("substance",), ("matter",), "the real physical matter of which a person or thing consists", ()),
    ("fiber", ("fiber", "fibre"), ("substance",), "a slender and greatly elongated substance capable of being spun into yarn", ()),
    ("bristle", ("bristle",), ("fiber",), "a stiff fiber (coarse hair or filament); natural or synthetic", ()),
    ("ingredient", ("ingredient", "fixings"), ("substance",), "food that is a component of a mixture in cooking", ()),
    ("flavorer", ("flavorer", "flavourer", "flavoring", "seasoner", "seasoning"), ("ingredient",), "something added to food primarily for the savor it imparts", ()),
    ("garlic", ("garlic", "ail"), ("flavorer",), "aromatic bulb used as seasoning", ()),
    ("salt", ("salt", "table_salt", "common_salt"), ("flavorer",), "white crystalline form of especially sodium chloride used to season and preserve food", ()),
    ("pepper", ("pepper", "peppercorn"), ("flavorer",), "pungent seasoning from the berry of the common pepper plant; whole or ground", ()),
    ("sugar", ("sugar", "refined_sugar"), ("flavorer",), "a white crystalline carbohydrate used as a sweetener and preservative", ()),
    ("food", ("food", "nutrient"), ("substance",), "any substance that can be metabolized by an animal to give energy and build tissue", ()),
    ("foodstuff", ("foodstuff", "food_product"), ("food",), "a substance that can be used or prepared for use as food", ()),
    ("flour", ("flour",), ("foodstuff",), "fine powdery foodstuff obtained by grinding and sifting the meal of a cereal grain", ()),
    ("oil", ("oil", "edible_oil"), ("foodstuff",), "a slippery and viscous edible liquid used in cooking and for frying", ()),
    ("egg", ("egg", "eggs"), ("foodstuff",), "oval reproductive body of a fowl (especially a hen) used as food", ()),
    ("produce", ("produce", "green_goods"), ("food",), "fresh fruits and vegetables grown for the market", ()),
    ("vegetable", ("vegetable", "veggie"), ("produce",), "edible seeds or roots or stems or leaves or bulbs or tubers", ()),
    ("onion", ("onion",), ("vegetable",), "the bulb of an onion plant used in cooking", ()),
    ("dairy_product", ("dairy_product",), ("food",), "milk and butter and cheese", ()),
    ("milk", ("milk",), ("dairy_product",), "a white nutritious liquid secreted by mammals and used as food by human beings", ()),
    ("butter", ("butter",), ("dairy_product",), "an edible emulsion of fat globules made by churning milk or cream; for cooking and table use", ()),
    ("cleansing_agent", ("cleansing_agent", "cleanser", "cleaner"), ("substance",), "a preparation used in cleaning something", ()),
    ("soap", ("soap",), ("cleansing_agent",), "a cleansing agent made from the salts of vegetable or animal fats", ()),
    ("detergent", ("detergent",), ("cleansing_agent",), "a surface-active chemical widely used in industry and laundering", ()),
    ("bleach", ("bleach",), ("cleansing_agent",), "a chemical agent used to whiten fabric and remove stains; also disinfects", ()),
    ("chemical_element", ("chemical_element", "element"), ("substance",), "any of the more than 100 known substances that cannot be interconverted or broken down", ()),
    ("metallic_element", ("metallic_element", "metal"), ("chemical_element",), "any of several chemical elements that are usually shiny solids that conduct heat or electricity", ()),
    ("iron_metal", ("iron", "fe", "atomic_number_26"), ("metallic_element",), "a heavy ductile magnetic metallic element; is silver-white in pure form but readily rusts", ()),
]

# rank order for lemmas with several senses; all other lemmas keep
# inventory order.  iron and sponge deliberately rank the household sense
# second so disambiguation has to overcome the default.
SENSE_ORDER = {
    "pan": ["pan_cooking", "pan_deity", "pan_container", "pan_genus"],
    "iron": ["iron_metal", "iron_appliance"],
    "sponge": ["sponge_animal", "sponge_implement"],
    "brush": ["brush_implement", "brush_vegetation"],
    "washer": ["washer_machine", "washer_ring"],
    "flora": ["plant", "vegetation"],
}


def build_lexicon():
    keys = [row[0] for row in SYNSETS]
    assert len(keys) == len(set(keys)), "duplicate synset keys"
    offset_of = {key: f"{10000 + 250 * i:08d}" for i, key in enumerate(keys)}
    sid_of = {key: f"{offset_of[key]}-n" for key in keys}

    synsets = {}
    for key, lemmas, parents, gloss, meronyms in SYNSETS:
        synsets[sid_of[key]] = Synset(
            id=sid_of[key], pos="n", lemmas=list(lemmas), gloss=gloss,
            hypernyms=[sid_of[p] for p in parents],
            meronyms=[sid_of[m] for m in meronyms],
        )

    lemma_index: dict[tuple[str, str], list[str]] = {}
    for key, lemmas, *_ in SYNSETS:
        for lemma in lemmas:
            bucket = lemma_index.setdefault((lemma, "n"), [])
            if sid_of[key] not in bucket:
                bucket.append(sid_of[key])
    for lemma, order in SENSE_ORDER.items():
        lemma_index[(lemma, "n")] = [sid_of[k] for k in order]

    index = LexiconIndex(synsets, lemma_index)
    # one parse/write round trip materializes the inverse links (hyponyms,
    # holonyms) so the shipped files carry both directions, as real ones do
    first_index, first_data = write_lexicon(index)
    index_text, data_text = write_lexicon(parse_lexicon(first_index, first_data))
    header = ("  1 This file is part of the bundled miniature lexicon fixture.\n"
              "  2 It follows the standard index/data database line layout.\n")
    return header + index_text, header + data_text, sid_of


# ---------------------------------------------------------------------------
# Corpus frequencies (content words only; counts tuned so that very general
# taxonomy terms fall under the 5.0 information-content threshold)
# ---------------------------------------------------------------------------

FREQUENCIES = {
    # very general terms: IC < 5.0 given the total below (threshold count ~= total / 148.4)
    "entity": 1500, "abstraction": 800, "matter": 2400, "substance": 2000,
    "object": 2600, "whole": 1400, "artifact": 700, "instrumentality": 600,
    "implement": 2500, "covering": 1500, "produce": 800, "group": 1800,
    "article": 700, "ware": 500,
    "thing": 3000, "time": 2800, "people": 2600, "way": 2400, "world": 2000,
    "life": 1900, "man": 1800, "day": 1700, "part": 1600, "house": 1500,
    "work": 1400, "place": 1300, "water": 1200, "home": 1100, "person": 1000,
    # mid-generality terms that must survive rule 1
    "food": 300, "container": 320, "clothing": 300, "fabric": 250,
    "vegetable": 200, "utensil": 100, "appliance": 200, "device": 150,
    "garment": 80, "tableware": 40, "foodstuff": 90, "vessel": 180,
    "ingredient": 150, "cutlery": 30, "cloth": 220, "material": 330,
    # seed and leaf words (seeds are exempt from rule 1; milk deliberately
    # falls below the threshold to exercise the exemption)
    "milk": 800, "salt": 280, "sugar": 260, "butter": 150, "egg": 320,
    "pan": 90, "pot": 110, "stove": 70, "oven": 85, "garlic": 60,
    "onion": 75, "pepper": 95, "oil": 310, "flour": 88, "knife": 120,
    "spoon": 65, "fork": 60, "bowl": 105, "plate": 140, "washer": 25,
    "dryer": 22, "iron": 260, "detergent": 18, "bleach": 20, "sock": 45,
    "shirt": 160, "trousers": 55, "blanket": 70, "towel": 95, "sheet": 180,
    "hamper": 12, "basket": 85, "hanger": 15, "clothespin": 8, "broom": 40,
    "mop": 25, "bucket": 60, "sponge": 35, "brush": 130, "rag": 30,
    "soap": 90, "vacuum": 55, "duster": 10, "dustpan": 6,
    # other vocabulary seen in glosses and documents
    "kitchen": 240, "drawer": 48, "cupboard": 36, "pantry": 14,
    "refrigerator": 42, "closet": 52, "dresser": 28, "bed": 330,
    "bathroom": 60, "laundry": 44, "garage": 58, "sink": 66, "shelf": 50,
    "cook": 180, "bake": 90, "fry": 55, "boil": 48, "heat": 210,
    "wash": 150, "clean": 260, "sweep": 38, "scrub": 26, "wipe": 44,
    "dry": 130, "dust": 64, "store": 300, "metal": 170, "plastic": 120,
    "wood": 200, "paper": 280, "cotton": 90, "wool": 60, "glass": 150,
    "god": 220, "animal": 330, "flower": 110, "tree": 320, "stone": 140,
    "fire": 230, "dress": 125, "eat": 290, "drink": 160, "sleep": 150,
    "season": 105, "flavor": 50, "mix": 85, "stir": 40, "cut": 240,
    "serve": 130, "press": 95, "hang": 70, "carry": 180, "collect": 90,
}


# ---------------------------------------------------------------------------
# Stopwords
# ---------------------------------------------------------------------------

STOPWORDS = """a an the of in on at to for with and or is are was were be been
being by as from that this these those it its not no but if when where which
who whom what all any each every some such than then too very will would can
could may might must shall should do does did done has have had having he she
they them him his her their you your we our i me my us so also more most other
into onto up down out over under between especially usually often"""


# ---------------------------------------------------------------------------
# Document corpus for the relatedness index (50 documents)
# ---------------------------------------------------------------------------

DOCUMENTS = [
    ("Kitchen", "kitchen cupboard drawer shelf pantry counter sink stove oven refrigerator pan pot utensil cookware tableware food cooking kitchen appliance"),
    ("Cooking", "cooking cook pan pot stove heat simmer recipe utensil cookware food meal prepare kitchen vessel boiling stewing"),
    ("Frying", "fry frying pan skillet frypan oil heat stove butter saucepan sizzle cook crisp"),
    ("Baking", "bake baking oven flour sugar butter egg dough bread cake heat kitchen batter"),
    ("Boiling", "boil boiling pot water saucepan stove heat simmer soup stew deep"),
    ("Recipes", "recipe ingredient ingredients food dish meal flavor cook add mixture fixings component"),
    ("Seasoning", "seasoning seasoner flavorer flavoring flavor garlic salt pepper spice savor taste season pungent aromatic bulb add food"),
    ("Vegetables", "vegetable veggie produce onion garlic bulb fresh market green grown edible roots stems"),
    ("Dairy", "dairy milk butter cheese cream churn product nutritious white cold liquid emulsion fat"),
    ("Groceries", "food nutrient foodstuff grocery store market shop produce goods buy supermarket town"),
    ("Pantry", "pantry shelf cupboard flour sugar oil salt pepper onion garlic store jar kitchen stock"),
    ("Refrigeration", "refrigerator cold milk butter egg fresh food store chill kitchen preserve"),
    ("Tableware", "tableware plate dish cutlery fork spoon knife table serve eating silverware glassware utensil"),
    ("Cutlery", "cutlery knife fork spoon blade sharp cut eat stir serve handle table implement"),
    ("Containers", "container vessel bowl bucket basket box hold storage store pail woven handles object kitchen"),
    ("Dishes", "dish bowl plate round open serve food table top"),
    ("Appliances", "appliance device stove oven washer dryer vacuum machine electrical heavy home durable goods kitchen household"),
    ("Stoves", "stove kitchen_stove range oven cooking heat hot burner appliance kitchen fire gas food"),
    ("Heating", "heat hot heated warm warmth fire stove oven iron base temperature"),
    ("Eating", "eat eating meal food fork spoon plate dinner breakfast hunger bite"),
    ("Drinks", "drink milk water glass liquid beverage cup thirst"),
    ("Laundry", "laundry wash washing washer washing_machine automatic dryer drier detergent bleach clothes linens clothing garment basket hamper iron press smooth"),
    ("Washing", "wash washing clean water soap detergent scrub rinse launder clothes stain"),
    ("Clothing", "clothing apparel wearable garment shirt trousers pants sock dress wear worn body cloth cover"),
    ("Garments", "garment shirt sock trousers dress wardrobe closet hanger clothes wear fold"),
    ("Fabrics", "fabric cloth material textile cotton wool linen fiber weave knit woven soft piece"),
    ("Linens", "linen sheet bed_sheet blanket bedding bed cotton white cloth towel rectangular warm sleep"),
    ("Bedroom", "bedroom bed dresser drawer closet blanket sheet sock sleep furniture house"),
    ("Bathroom", "bathroom sink towel soap bath shower toilet hamper house wash dry"),
    ("Closets", "closet hanger coat_hanger shirt trousers clothes hang store shelf house wardrobe broom mop iron appliance vacuum"),
    ("Ironing", "iron smoothing_iron flatiron press smooth wrinkle cloth shirt heated flat base board laundry"),
    ("Drying", "dry drying dryer towel moisture wipe air laundry absorbent paper"),
    ("Cleaning", "clean cleaning broom mop sponge brush rag duster dustpan vacuum scrub sweep wipe dust floor household chores implement"),
    ("Sweeping", "sweep sweeping broom dustpan floor dust straws twigs bundle collect pile"),
    ("Scrubbing", "scrub scrubbing brush sponge bristles mop bucket water floor soap stain clean"),
    ("Dusting", "dust dusting duster dustcloth rag cloth wipe shelf furniture"),
    ("Mopping", "mop swab bucket floor water wet absorbent clean pail"),
    ("Soapmaking", "soap cleansing_agent cleanser cleaner detergent bleach lather fats salts preparation stain whiten laundering surface"),
    ("Absorbents", "absorb absorbent sponge porous water fibers mass towel paper soak"),
    ("Sinks", "sink kitchen bathroom faucet water soap sponge dish wash basin drain"),
    ("Plumbing", "plumbing pipe leak seal washer ring disk gasket faucet prevent leakage flat"),
    ("Materials", "metal steel plastic wood glass paper material made shiny solid vessel wide"),
    ("Metals", "metal metallic_element element iron fe steel ductile magnetic silver rusts conduct chemical alloy bond"),
    ("Chemistry", "chemical element substance compound chemistry bond reaction atom molecule interconverted"),
    ("Mythology", "mythology greek god goat_god deity divinity immortal pan worship temple myth fields woods shepherds flocks horns supernatural"),
    ("Primates", "chimpanzee chimp primate pan genus_pan australopithecus pongids ape hairy jungle species"),
    ("MarineLife", "sea ocean marine animal fish coral sponge filter feeder multicellular primitive skeleton creature water"),
    ("Forests", "forest woods tree shrub bush brush brushwood thicket coppice dense growth plant hide wildlife"),
    ("Gardens", "garden plant flower vegetable grow soil seed bulb green shrub"),
    ("Storage", "store storage shelf box container cupboard closet garage keep organize stack"),
]


# ---------------------------------------------------------------------------
# Relation dump (exactly 200 lines; mixed 5-column and 4-column layouts)
# ---------------------------------------------------------------------------

USED_FOR = [
    # recipe
    ("pan", "fry", 5.0), ("pan", "cook", 4.0), ("pot", "boil", 5.0),
    ("pot", "cook", 4.0), ("stove", "heat", 6.0), ("stove", "cook", 5.0),
    ("oven", "bake", 6.0), ("oven", "heat", 4.5), ("knife", "cut", 6.0),
    ("spoon", "stir", 5.0), ("fork", "eat", 5.0), ("bowl", "mix", 5.0),
    ("plate", "serve", 4.0), ("garlic", "season", 4.0), ("salt", "season", 6.0),
    ("pepper", "season", 5.0), ("sugar", "sweeten", 5.0), ("butter", "bake", 4.5),
    ("egg", "bake", 4.0), ("flour", "bake", 6.0), ("milk", "drink", 5.0),
    ("oil", "fry", 5.0), ("food", "eat", 6.0), ("cooking_utensil", "cook", 4.5),
    ("container", "store", 5.0), ("cutlery", "eat", 4.0),
    # laundry
    ("washer", "wash", 6.0), ("dryer", "dry", 6.0), ("detergent", "wash", 5.0),
    ("detergent", "clean", 5.0), ("iron", "press", 5.0), ("iron", "smooth", 5.0),
    ("hanger", "hang", 5.0), ("clothespin", "hang", 5.0), ("shirt", "dress", 5.0),
    ("towel", "dry", 5.0), ("basket", "carry", 5.0), ("hamper", "store", 4.0),
    ("bleach", "whiten", 5.0), ("blanket", "warm", 5.0), ("clothing", "dress", 4.5),
    ("garment", "dress", 4.5),
    # cleaning
    ("broom", "sweep", 6.0), ("mop", "scrub", 5.0), ("mop", "clean", 5.0),
    ("bucket", "carry", 5.0), ("sponge", "scrub", 5.0), ("sponge", "absorb", 5.0),
    ("rag", "wipe", 5.0), ("soap", "wash", 5.0), ("soap", "clean", 5.0),
    ("vacuum", "clean", 6.0), ("duster", "dust", 5.0), ("brush", "scrub", 4.5),
    ("dustpan", "collect", 4.5), ("paper_towel", "wipe", 5.0),
    ("paper_towel", "dry", 4.5), ("cleaning_implement", "clean", 4.5),
    # deliberately weak noisy assertions (kept but should score low)
    ("container", "wash", 2.0), ("soap", "sweep", 1.5),
    # contextually wrong senses; the sense gate must drop these
    ("pan", "worship", 3.0), ("iron", "bond", 2.0), ("sponge", "filter", 2.0),
    ("brush", "hide", 2.0), ("washer", "seal", 3.0),
]

HAS_PROPERTY = [
    # recipe
    ("container", "plastic", 5.0), ("pot", "heavy", 5.0), ("knife", "sharp", 6.0),
    ("milk", "white", 5.0), ("milk", "cold", 5.0), ("butter", "soft", 5.0),
    ("salt", "white", 5.0), ("egg", "fragile", 5.0), ("plate", "flat", 5.0),
    ("bowl", "round", 5.0), ("garlic", "pungent", 5.0), ("onion", "round", 5.0),
    ("oil", "slippery", 5.0), ("sugar", "sweet", 6.0), ("flour", "white", 5.0),
    ("stove", "hot", 5.0),
    # laundry
    ("towel", "cotton", 5.0), ("towel", "soft", 5.0), ("sock", "warm", 5.0),
    ("washer", "heavy", 5.0), ("sheet", "white", 5.0), ("blanket", "soft", 5.0),
    ("iron", "hot", 5.0), ("hanger", "plastic", 4.5), ("detergent", "soapy", 5.0),
    ("bleach", "strong", 5.0), ("fabric", "soft", 4.5),
    # cleaning
    ("paper_towel", "paper", 6.0), ("paper_towel", "disposable", 5.0),
    ("sponge", "absorbent", 6.0), ("rag", "old", 5.0), ("soap", "slippery", 5.0),
    ("bucket", "plastic", 4.0), ("broom", "long", 5.0),
    # wrong-sense noise
    ("pan", "hairy", 2.0), ("broom", "sharp", 1.5),
    ("sheet", "sharp", 1.5),
]

AT_LOCATION = [
    # recipe objects
    ("pan", "cupboard", 5.0), ("pan", "kitchen", 4.5), ("pot", "cupboard", 5.0),
    ("knife", "drawer", 6.0), ("spoon", "drawer", 5.0), ("fork", "drawer", 5.0),
    ("plate", "cupboard", 5.0), ("bowl", "cupboard", 4.5), ("garlic", "pantry", 4.5),
    ("onion", "pantry", 4.5), ("salt", "shelf", 4.5), ("pepper", "shelf", 5.0),
    ("milk", "refrigerator", 6.0), ("butter", "refrigerator", 5.0),
    ("egg", "refrigerator", 5.0), ("flour", "pantry", 5.0), ("sugar", "pantry", 4.5),
    ("oil", "pantry", 4.5), ("food", "container", 5.0), ("food", "refrigerator", 4.0),
    ("food", "store", 4.0), ("tableware", "cupboard", 4.5), ("stove", "kitchen", 5.0),
    ("oven", "kitchen", 5.0),
    # laundry objects
    ("sock", "dresser", 5.0), ("sock", "drawer", 4.5), ("shirt", "closet", 5.0),
    ("trousers", "closet", 5.0), ("washer", "laundry", 6.0), ("dryer", "laundry", 5.0),
    ("towel", "bathroom", 5.0), ("sheet", "bed", 5.0), ("blanket", "bed", 5.0),
    ("hamper", "bathroom", 4.5), ("basket", "closet", 4.5), ("detergent", "laundry", 5.0),
    ("bleach", "laundry", 4.5), ("iron", "closet", 4.5), ("hanger", "closet", 5.0),
    ("clothespin", "clothesline", 4.0), ("clothing", "closet", 5.0),
    ("garment", "closet", 4.5),
    # cleaning objects
    ("soap", "sink", 6.0), ("soap", "bathroom", 4.5), ("sponge", "sink", 4.5),
    ("broom", "closet", 5.0), ("mop", "closet", 4.5), ("bucket", "garage", 4.5),
    ("vacuum", "closet", 4.5), ("rag", "garage", 5.0), ("duster", "closet", 4.5),
    ("dustpan", "closet", 4.5), ("paper_towel", "kitchen", 4.5), ("brush", "sink", 4.5),
    # location-in-location evidence (containment and second hops)
    ("cupboard", "kitchen", 5.0), ("drawer", "kitchen", 4.0), ("pantry", "kitchen", 5.0),
    ("refrigerator", "kitchen", 5.0), ("shelf", "kitchen", 4.5), ("sink", "kitchen", 5.0),
    ("container", "kitchen", 4.0), ("dresser", "bedroom", 4.0), ("dresser", "house", 4.0),
    ("bedroom", "house", 5.0), ("closet", "house", 5.0), ("laundry", "house", 5.0),
    ("bathroom", "house", 5.0), ("bed", "house", 4.0),
    ("sink", "house", 4.0), ("garage", "house", 4.0), ("drawer", "house", 4.0),
    ("kitchen", "house", 5.0), ("store", "town", 3.0),
]

IS_A_DUMP = [
    ("pan", "cookware", 3.0), ("broom", "tool", 2.0), ("soap", "toiletry", 2.0),
    ("skillet", "pan", 3.0), ("sock", "clothing", 3.0),
]

# lines exercising ingest filtering: unknown relations, other languages,
# multiword ends, duplicates, malformed rows
NOISE_LINES = [
    "/a/[/r/Antonym/,/c/en/hot/,/c/en/cold/]\t/r/Antonym\t/c/en/hot\t/c/en/cold\t{\"weight\": 2.0}",
    "/a/[/r/RelatedTo/,/c/en/pan/,/c/en/pot/]\t/r/RelatedTo\t/c/en/pan\t/c/en/pot\t{\"weight\": 1.5}",
    "/a/[/r/CapableOf/,/c/en/broom/,/c/en/sweep/]\t/r/CapableOf\t/c/en/broom\t/c/en/sweep\t{\"weight\": 1.0}",
    "/a/[/r/HasA/,/c/en/pot/,/c/en/lid/]\t/r/HasA\t/c/en/pot\t/c/en/lid\t{\"weight\": 1.0}",
    "/a/[/r/UsedFor/,/c/fr/casserole/,/c/fr/cuisiner/]\t/r/UsedFor\t/c/fr/casserole\t/c/fr/cuisiner\t{\"weight\": 3.0}",
    "/a/[/r/AtLocation/,/c/fr/savon/,/c/fr/evier/]\t/r/AtLocation\t/c/fr/savon\t/c/fr/evier\t{\"weight\": 2.0}",
    "/a/[/r/IsA/,/c/de/topf/,/c/de/gefaess/]\t/r/IsA\t/c/de/topf\t/c/de/gefaess\t{\"weight\": 1.0}",
    "/a/[/r/UsedFor/,/c/es/sarten/,/c/en/fry/]\t/r/UsedFor\t/c/es/sarten\t/c/en/fry\t{\"weight\": 2.0}",
    "/a/[/r/UsedFor/,/c/en/food/,/c/en/satisfy_hunger/]\t/r/UsedFor\t/c/en/food\t/c/en/satisfy_hunger\t{\"weight\": 4.0}",
    "/a/[/r/AtLocation/,/c/en/pot/,/c/en/kitchen_cabinet/]\t/r/AtLocation\t/c/en/pot\t/c/en/kitchen_cabinet\t{\"weight\": 3.0}",
    "/a/[/r/UsedFor/,/c/en/broom/,/c/en/sweep/]\t/r/UsedFor\t/c/en/broom\t/c/en/sweep\t{\"weight\": 3.0}",
    "/a/[/r/AtLocation/,/c/en/soap/,/c/en/sink/]\t/r/AtLocation\t/c/en/soap\t/c/en/sink\t{\"weight\": 2.0}",
    "/a/[/r/UsedFor/,/c/en/mirror]\t/r/UsedFor\t/c/en/mirror",
    "/a/[/r/AtLocation/,/c/en/cup/,/c/en/shelf/]\t/r/AtLocation\t/c/en/cup\t/c/en/shelf\tnot-json",
]

# a few rows in the simplified 4-column layout
SIMPLE_LINES = [
    "UsedFor\tknife\tspread\t5.0",
    "UsedFor\tsheet\tsleep\t4.5",
    "AtLocation\tblanket\tcloset\t4.5",
    "HasProperty\trag\tdirty\t5.0",
    "HasProperty\tduster\tsoft\t2.0",
    "AtLocation\tbucket\tsink\t2.0",
]


def build_conceptnet() -> str:
    lines = []

    def uri_line(rel, start, end, weight):
        assertion = f"/a/[/r/{rel}/,/c/en/{start}/,/c/en/{end}/]"
        return (f"{assertion}\t/r/{rel}\t/c/en/{start}\t/c/en/{end}"
                f"\t{{\"weight\": {weight}}}")

    for start, end, weight in USED_FOR:
        lines.append(uri_line("UsedFor", start, end, weight))
    for start, end, weight in HAS_PROPERTY:
        lines.append(uri_line("HasProperty", start, end, weight))
    for start, end, weight in AT_LOCATION:
        lines.append(uri_line("AtLocation", start, end, weight))
    for start, end, weight in IS_A_DUMP:
        lines.append(uri_line("IsA", start, end, weight))
    lines.extend(SIMPLE_LINES)
    lines.extend(NOISE_LINES)
    assert len(lines) == 200, f"dump must be exactly 200 lines, got {len(lines)}"
    return "\n".join(lines) + "\n"




# ---------------------------------------------------------------------------
# Gold standards: hand labels over a curated triple subset per scenario.
# Sense labels use inventory keys; relation targets use graph entity ids.
# ---------------------------------------------------------------------------

GOLD_SENSES = {
    "recipe": {
        "pan": "pan_cooking", "pot": "pot", "stove": "stove", "oven": "oven",
        "garlic": "garlic", "onion": "onion", "salt": "salt", "pepper": "pepper",
        "oil": "oil", "butter": "butter", "egg": "egg", "flour": "flour",
        "sugar": "sugar", "milk": "milk", "knife": "knife", "spoon": "spoon",
        "fork": "fork", "bowl": "bowl", "plate": "plate",
    },
    "laundry": {
        "washer": "washer_machine", "dryer": "dryer", "iron": "iron_appliance",
        "detergent": "detergent", "bleach": "bleach", "sock": "sock",
        "shirt": "shirt", "trousers": "trousers", "blanket": "blanket",
        "towel": "towel", "sheet": "sheet", "hamper": "hamper",
        "basket": "basket", "hanger": "hanger", "clothespin": "clothespin",
    },
    "cleaning": {
        "broom": "broom", "mop": "mop", "bucket": "bucket",
        "sponge": "sponge_implement", "brush": "brush_implement", "rag": "rag",
        "soap": "soap", "vacuum": "vacuum", "duster": "duster",
        "dustpan": "dustpan", "paper_towel": "paper_towel",
    },
    "mini": {"pan": "pan_cooking", "stove": "stove", "garlic": "garlic"},
}

GOLD_RELATIONS = {
    "recipe": [
        ("pan", "IsA", "cooking_utensil", 1), ("pan", "IsA", "utensil", 1),
        ("pan", "IsA", "cutlery", 0), ("pan", "UsedFor", "fry", 1),
        ("pan", "UsedFor", "cook", 1), ("pan", "UsedFor", "season", 0),
        ("pan", "AtLocation", "cupboard", 1), ("pan", "AtLocation", "kitchen", 1),
        ("pan", "AtLocation", "pantry", 0), ("pan", "HasProperty", "pungent", 0),
        ("pot", "IsA", "cooking_utensil", 1), ("pot", "IsA", "utensil", 1),
        ("pot", "IsA", "tableware", 0), ("pot", "UsedFor", "boil", 1),
        ("pot", "UsedFor", "cook", 1), ("pot", "HasProperty", "heavy", 1),
        ("pot", "AtLocation", "cupboard", 1), ("pot", "AtLocation", "refrigerator", 0),
        ("stove", "IsA", "kitchen_appliance", 1), ("stove", "IsA", "device", 1),
        ("stove", "IsA", "utensil", 0), ("stove", "UsedFor", "heat", 1),
        ("stove", "UsedFor", "cook", 1), ("stove", "UsedFor", "eat", 0),
        ("stove", "HasProperty", "hot", 1), ("stove", "AtLocation", "kitchen", 1),
        ("oven", "IsA", "kitchen_appliance", 1), ("oven", "IsA", "cutlery", 0),
        ("oven", "UsedFor", "bake", 1), ("oven", "UsedFor", "heat", 1),
        ("oven", "HasProperty", "fragile", 0), ("oven", "AtLocation", "kitchen", 1),
        ("garlic", "IsA", "flavorer", 1), ("garlic", "IsA", "ingredient", 1),
        ("garlic", "IsA", "cooking_utensil", 0), ("garlic", "UsedFor", "season", 1),
        ("garlic", "UsedFor", "fry", 0), ("garlic", "HasProperty", "pungent", 1),
        ("garlic", "AtLocation", "pantry", 1), ("garlic", "AtLocation", "kitchen", 1),
        ("onion", "IsA", "food", 1), ("onion", "IsA", "flavorer", 0),
        ("onion", "HasProperty", "round", 1), ("onion", "AtLocation", "pantry", 1),
        ("onion", "UsedFor", "drink", 0),
        ("salt", "IsA", "flavorer", 1), ("salt", "IsA", "ingredient", 1),
        ("salt", "IsA", "dairy_product", 0), ("salt", "UsedFor", "season", 1),
        ("salt", "HasProperty", "white", 1), ("salt", "AtLocation", "shelf", 1),
        ("salt", "AtLocation", "refrigerator", 0),
        ("pepper", "IsA", "flavorer", 1), ("pepper", "IsA", "foodstuff", 0),
        ("pepper", "UsedFor", "season", 1), ("pepper", "AtLocation", "shelf", 1),
        ("pepper", "HasProperty", "sweet", 0),
        ("oil", "IsA", "foodstuff", 1), ("oil", "IsA", "flavorer", 0),
        ("oil", "UsedFor", "fry", 1), ("oil", "UsedFor", "sweeten", 0),
        ("oil", "HasProperty", "slippery", 1), ("oil", "AtLocation", "pantry", 1),
        ("butter", "IsA", "dairy_product", 1), ("butter", "IsA", "food", 1),
        ("butter", "IsA", "cooking_utensil", 0), ("butter", "UsedFor", "bake", 1),
        ("butter", "HasProperty", "soft", 1), ("butter", "AtLocation", "refrigerator", 1),
        ("butter", "AtLocation", "cupboard", 0),
        ("egg", "IsA", "foodstuff", 1), ("egg", "IsA", "food", 1),
        ("egg", "IsA", "flavorer", 0), ("egg", "UsedFor", "bake", 1),
        ("egg", "HasProperty", "fragile", 1), ("egg", "HasProperty", "sharp", 0),
        ("egg", "AtLocation", "refrigerator", 1),
        ("flour", "IsA", "foodstuff", 1), ("flour", "IsA", "dairy_product", 0),
        ("flour", "UsedFor", "bake", 1), ("flour", "HasProperty", "white", 1),
        ("flour", "AtLocation", "pantry", 1),
        ("sugar", "IsA", "flavorer", 1), ("sugar", "IsA", "device", 0),
        ("sugar", "UsedFor", "sweeten", 1), ("sugar", "HasProperty", "sweet", 1),
        ("sugar", "AtLocation", "pantry", 1),
        ("milk", "IsA", "dairy_product", 1), ("milk", "IsA", "food", 1),
        ("milk", "IsA", "flavorer", 0), ("milk", "UsedFor", "drink", 1),
        ("milk", "UsedFor", "fry", 0), ("milk", "HasProperty", "white", 1),
        ("milk", "HasProperty", "cold", 1), ("milk", "AtLocation", "refrigerator", 1),
        ("knife", "IsA", "cutlery", 1), ("knife", "IsA", "tableware", 1),
        ("knife", "IsA", "cooking_utensil", 0), ("knife", "UsedFor", "cut", 1),
        ("knife", "UsedFor", "spread", 1), ("knife", "UsedFor", "boil", 0),
        ("knife", "HasProperty", "sharp", 1), ("knife", "AtLocation", "drawer", 1),
        ("spoon", "IsA", "cutlery", 1), ("spoon", "IsA", "kitchen_appliance", 0),
        ("spoon", "UsedFor", "stir", 1), ("spoon", "AtLocation", "drawer", 1),
        ("spoon", "HasProperty", "hot", 0),
        ("fork", "IsA", "cutlery", 1), ("fork", "IsA", "tableware", 1),
        ("fork", "IsA", "foodstuff", 0), ("fork", "UsedFor", "eat", 1),
        ("fork", "UsedFor", "drink", 0), ("fork", "AtLocation", "drawer", 1),
        ("bowl", "IsA", "container", 1), ("bowl", "IsA", "cutlery", 0),
        ("bowl", "UsedFor", "mix", 1), ("bowl", "UsedFor", "heat", 0),
        ("bowl", "HasProperty", "round", 1), ("bowl", "AtLocation", "cupboard", 1),
        ("plate", "IsA", "tableware", 1), ("plate", "IsA", "utensil", 1),
        ("plate", "IsA", "container", 0), ("plate", "UsedFor", "serve", 1),
        ("plate", "HasProperty", "flat", 1), ("plate", "AtLocation", "cupboard", 1),
        ("plate", "AtLocation", "pantry", 0),
    ],
    "laundry": [
        ("washer", "IsA", "white_goods", 1), ("washer", "IsA", "appliance", 1),
        ("washer", "IsA", "garment", 0), ("washer", "UsedFor", "wash", 1),
        ("washer", "UsedFor", "dry", 0), ("washer", "HasProperty", "heavy", 1),
        ("washer", "AtLocation", "laundry", 1),
        ("dryer", "IsA", "white_goods", 1), ("dryer", "IsA", "appliance", 1),
        ("dryer", "IsA", "fabric", 0), ("dryer", "UsedFor", "dry", 1),
        ("dryer", "UsedFor", "wash", 0), ("dryer", "AtLocation", "laundry", 1),
        ("iron", "IsA", "appliance", 1), ("iron", "IsA", "device", 1),
        ("iron", "IsA", "clothing", 0), ("iron", "UsedFor", "press", 1),
        ("iron", "UsedFor", "smooth", 1), ("iron", "UsedFor", "hang", 0),
        ("iron", "HasProperty", "hot", 1), ("iron", "AtLocation", "closet", 1),
        ("detergent", "IsA", "cleansing_agent", 1), ("detergent", "IsA", "garment", 0),
        ("detergent", "UsedFor", "wash", 1), ("detergent", "UsedFor", "clean", 1),
        ("detergent", "HasProperty", "soapy", 1), ("detergent", "AtLocation", "laundry", 1),
        ("bleach", "IsA", "cleansing_agent", 1), ("bleach", "IsA", "appliance", 0),
        ("bleach", "UsedFor", "whiten", 1), ("bleach", "HasProperty", "strong", 1),
        ("bleach", "AtLocation", "laundry", 1),
        ("sock", "IsA", "garment", 1), ("sock", "IsA", "clothing", 1),
        ("sock", "IsA", "appliance", 0), ("sock", "AtLocation", "dresser", 1),
        ("sock", "AtLocation", "drawer", 1), ("sock", "HasProperty", "warm@property", 1),
        ("sock", "UsedFor", "press", 0),
        ("shirt", "IsA", "garment", 1), ("shirt", "IsA", "clothing", 1),
        ("shirt", "IsA", "white_goods", 0), ("shirt", "UsedFor", "dress", 1),
        ("shirt", "AtLocation", "closet", 1), ("shirt", "HasProperty", "soapy", 0),
        ("trousers", "IsA", "garment", 1), ("trousers", "IsA", "clothing", 1),
        ("trousers", "IsA", "cleansing_agent", 0), ("trousers", "AtLocation", "closet", 1),
        ("trousers", "UsedFor", "whiten", 0),
        ("blanket", "IsA", "piece_of_cloth", 1), ("blanket", "IsA", "fabric", 1),
        ("blanket", "IsA", "appliance", 0), ("blanket", "UsedFor", "warm", 1),
        ("blanket", "HasProperty", "soft", 1), ("blanket", "AtLocation", "bed", 1),
        ("blanket", "AtLocation", "closet", 1),
        ("towel", "IsA", "piece_of_cloth", 1), ("towel", "IsA", "fabric", 1),
        ("towel", "IsA", "garment", 0), ("towel", "UsedFor", "dry", 1),
        ("towel", "UsedFor", "press", 0), ("towel", "HasProperty", "cotton", 1),
        ("towel", "HasProperty", "soft", 1), ("towel", "AtLocation", "bathroom", 1),
        ("sheet", "IsA", "piece_of_cloth", 1), ("sheet", "IsA", "device", 0),
        ("sheet", "UsedFor", "sleep", 1), ("sheet", "HasProperty", "white", 1),
        ("sheet", "HasProperty", "sharp", 0), ("sheet", "AtLocation", "bed", 1),
        ("hamper", "IsA", "basket", 1), ("hamper", "IsA", "container", 1),
        ("hamper", "IsA", "white_goods", 0), ("hamper", "UsedFor", "store", 1),
        ("hamper", "UsedFor", "dress", 0), ("hamper", "AtLocation", "bathroom", 1),
        ("basket", "IsA", "container", 1), ("basket", "IsA", "fabric", 0),
        ("basket", "UsedFor", "carry", 1), ("basket", "UsedFor", "sleep", 0),
        ("basket", "AtLocation", "closet", 1),
        ("hanger", "IsA", "device", 1), ("hanger", "IsA", "garment", 0),
        ("hanger", "UsedFor", "hang", 1), ("hanger", "UsedFor", "wash", 0),
        ("hanger", "HasProperty", "plastic", 1), ("hanger", "AtLocation", "closet", 1),
        ("clothespin", "IsA", "device", 1), ("clothespin", "IsA", "clothing", 0),
        ("clothespin", "UsedFor", "hang", 1), ("clothespin", "AtLocation", "bed", 0),
    ],
    "cleaning": [
        ("broom", "IsA", "cleaning_implement", 1), ("broom", "IsA", "cleansing_agent", 0),
        ("broom", "UsedFor", "sweep", 1), ("broom", "UsedFor", "wash", 0),
        ("broom", "HasProperty", "long", 1), ("broom", "HasProperty", "sharp", 0),
        ("broom", "AtLocation", "closet", 1),
        ("mop", "IsA", "cleaning_implement", 1), ("mop", "IsA", "container", 0),
        ("mop", "UsedFor", "scrub", 1), ("mop", "UsedFor", "clean", 1),
        ("mop", "UsedFor", "sweep", 0), ("mop", "AtLocation", "closet", 1),
        ("bucket", "IsA", "container", 1), ("bucket", "IsA", "cleaning_implement", 0),
        ("bucket", "UsedFor", "carry", 1), ("bucket", "UsedFor", "dust", 0),
        ("bucket", "HasProperty", "plastic", 1), ("bucket", "AtLocation", "garage", 1),
        ("sponge", "IsA", "cleaning_implement", 1), ("sponge", "IsA", "fabric", 0),
        ("sponge", "UsedFor", "scrub", 1), ("sponge", "UsedFor", "absorb", 1),
        ("sponge", "UsedFor", "sweep", 0), ("sponge", "HasProperty", "absorbent", 1),
        ("sponge", "AtLocation", "sink", 1),
        ("brush", "IsA", "cleaning_implement", 1), ("brush", "IsA", "cleansing_agent", 0),
        ("brush", "UsedFor", "scrub", 1), ("brush", "UsedFor", "absorb", 0),
        ("brush", "AtLocation", "sink", 1),
        ("rag", "IsA", "piece_of_cloth", 1), ("rag", "IsA", "fabric", 1),
        ("rag", "IsA", "cleaning_implement", 0), ("rag", "UsedFor", "wipe", 1),
        ("rag", "UsedFor", "collect", 0), ("rag", "HasProperty", "old", 1),
        ("rag", "HasProperty", "dirty", 1), ("rag", "AtLocation", "garage", 1),
        ("soap", "IsA", "cleansing_agent", 1), ("soap", "IsA", "device", 0),
        ("soap", "UsedFor", "wash", 1), ("soap", "UsedFor", "clean", 1),
        ("soap", "UsedFor", "sweep", 0), ("soap", "HasProperty", "slippery", 1),
        ("soap", "AtLocation", "sink", 1), ("soap", "AtLocation", "bathroom", 1),
        ("vacuum", "IsA", "device", 1), ("vacuum", "IsA", "piece_of_cloth", 0),
        ("vacuum", "UsedFor", "clean", 1), ("vacuum", "HasProperty", "absorbent", 0),
        ("vacuum", "AtLocation", "closet", 1),
        ("duster", "IsA", "piece_of_cloth", 1), ("duster", "IsA", "container", 0),
        ("duster", "UsedFor", "dust", 1), ("duster", "UsedFor", "carry", 0),
        ("duster", "AtLocation", "closet", 1),
        ("dustpan", "IsA", "cleaning_implement", 1), ("dustpan", "IsA", "fabric", 0),
        ("dustpan", "UsedFor", "collect", 1), ("dustpan", "HasProperty", "slippery", 0),
        ("dustpan", "AtLocation", "closet", 1),
        ("paper_towel", "IsA", "piece_of_cloth", 1), ("paper_towel", "IsA", "cleansing_agent", 0),
        ("paper_towel", "UsedFor", "wipe", 1), ("paper_towel", "UsedFor", "dry", 1),
        ("paper_towel", "HasProperty", "paper", 1), ("paper_towel", "HasProperty", "disposable", 1),
        ("paper_towel", "HasProperty", "old", 0), ("paper_towel", "AtLocation", "kitchen", 1),
    ],
    "mini": [
        ("pan", "IsA", "utensil", 1), ("pan", "UsedFor", "fry", 1),
        ("pan", "UsedFor", "cook", 1), ("pan", "AtLocation", "cupboard", 1),
        ("pan", "UsedFor", "season", 0),
        ("stove", "IsA", "device", 1), ("stove", "UsedFor", "heat", 1),
        ("stove", "HasProperty", "hot", 1), ("stove", "IsA", "ingredient", 0),
        ("garlic", "IsA", "ingredient", 1), ("garlic", "UsedFor", "season", 1),
        ("garlic", "HasProperty", "pungent", 1), ("garlic", "UsedFor", "fry", 0),
        ("garlic", "AtLocation", "pantry", 1),
    ],
}


def write_gold(out, sid_of):
    gold_dir = out / "gold"
    for scenario, senses in GOLD_SENSES.items():
        lines = []
        for seed, rel, target, label in GOLD_RELATIONS[scenario]:
            lines.append(f"REL\t{seed}\t{rel}\t{target}\t{label}")
        for seed, key in senses.items():
            lines.append(f"SENSE\t{seed}\t{sid_of[key]}")
        (gold_dir / f"{scenario}.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Seed lists and configs
# ---------------------------------------------------------------------------

SEED_FILES = {
    "recipe.txt": ["pan", "pot", "stove", "oven", "garlic", "onion", "salt",
                   "pepper", "oil", "butter", "egg", "flour", "sugar", "milk",
                   "knife", "spoon", "fork", "bowl", "plate"],
    "laundry.txt": ["washer", "dryer", "iron", "detergent", "bleach", "sock",
                    "shirt", "trousers", "blanket", "towel", "sheet", "hamper",
                    "basket", "hanger", "clothespin"],
    "cleaning.txt": ["broom", "mop", "bucket", "sponge", "brush", "rag",
                     "soap", "vacuum", "duster", "dustpan", "paper_towel"],
    "wsd_kitchen.txt": ["pan", "stove", "garlic"],
    "wsd_laundry.txt": ["washer", "dryer", "iron"],
    "wsd_cleaning.txt": ["broom", "sponge", "brush", "rag"],
    "wsd_mixed.txt": ["towel", "soap", "bucket"],
}

COMMON_CONFIG = """\
lexicon=../lexicon
edges=../conceptnet.tsv
corpus=../frequencies.tsv
stopwords=../stopwords.txt
esa_corpus=../esa_corpus.tsv
min_children=2
ic_threshold=5.0
alpha=0.75
root_prior=0.05
method=exact
samples=20000
seed=7
"""

SCENARIO_META = {
    "recipe": ("recipe.txt", "kitchen"),
    "laundry": ("laundry.txt", "house"),
    "cleaning": ("cleaning.txt", "house"),
}


def write_configs(out):
    configs = out / "configs"
    for name, (seed_file, environment) in SCENARIO_META.items():
        text = COMMON_CONFIG + (
            f"seeds=../seeds/{seed_file}\n"
            f"gold=../gold/{name}.tsv\n"
            f"environment={environment}\n"
        )
        (configs / f"{name}.cfg").write_text(text, encoding="utf-8")

    eval_all = COMMON_CONFIG + "scenarios=recipe,laundry,cleaning\n"
    for name, (seed_file, environment) in SCENARIO_META.items():
        eval_all += (
            f"{name}.seeds=../seeds/{seed_file}\n"
            f"{name}.gold=../gold/{name}.tsv\n"
            f"{name}.environment={environment}\n"
        )
    (configs / "eval_all.cfg").write_text(eval_all, encoding="utf-8")

    mini = COMMON_CONFIG + (
        "seeds=../seeds/wsd_kitchen.txt\n"
        "gold=../gold/mini.tsv\n"
        "environment=kitchen\n"
    )
    (configs / "mini.cfg").write_text(mini, encoding="utf-8")


# ---------------------------------------------------------------------------


def main(out=DATA):
    out = Path(out)
    for sub in ("lexicon", "seeds", "gold", "configs"):
        (out / sub).mkdir(parents=True, exist_ok=True)

    index_text, data_text, sid_of = build_lexicon()
    (out / "lexicon" / "index.noun").write_text(index_text, encoding="utf-8")
    (out / "lexicon" / "data.noun").write_text(data_text, encoding="utf-8")

    lexicon = parse_lexicon(index_text, data_text)
    assert len(lexicon.senses("pan")) == 4, "pan must carry four noun senses"
    assert len(lexicon.roots) == 1, "the hierarchy must have a single root"

    total = sum(FREQUENCIES.values())
    lines = [f"{word}\t{count}" for word, count in FREQUENCIES.items()]
    (out / "frequencies.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"frequency corpus: {len(FREQUENCIES)} words, total {total}")

    stopwords = sorted(set(STOPWORDS.split()))
    (out / "stopwords.txt").write_text("\n".join(stopwords) + "\n", encoding="utf-8")

    assert len(DOCUMENTS) == 50, f"expected 50 documents, got {len(DOCUMENTS)}"
    doc_lines = [f"{title}\t{text}" for title, text in DOCUMENTS]
    (out / "esa_corpus.tsv").write_text("\n".join(doc_lines) + "\n", encoding="utf-8")

    (out / "conceptnet.tsv").write_text(build_conceptnet(), encoding="utf-8")

    for name, words in SEED_FILES.items():
        (out / "seeds" / name).write_text("\n".join(words) + "\n", encoding="utf-8")

    write_configs(out)
    write_gold(out, sid_of)
    print(f"lexicon: {len(lexicon)} synsets")
    print("fixtures written to", out)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write the bundled data files.")
    parser.add_argument("out_dir", nargs="?", default=DATA,
                        help="directory to write into (default: %(default)s)")
    main(parser.parse_args().out_dir)
