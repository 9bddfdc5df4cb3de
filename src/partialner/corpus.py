"""Corpus data model: CoNLL ingestion, BIO span codecs, and synthetic data.

Tag indexing is fixed by LabelScheme: index 0 is O, category i owns indices
1 + 2i (B-) and 2 + 2i (I-).  All corpus types are immutable after
construction and safe to share between threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Sequence

from .rng import STREAM_SYNTH, seeded_rng

DOCSTART = "-DOCSTART-"


class ParseError(ValueError):
    """Malformed CoNLL input; messages carry the 1-based line number."""


class ConfigError(ValueError):
    """Invalid generator or experiment configuration."""


@dataclass(frozen=True)
class LabelScheme:
    """Category set and its BIO tag index layout."""

    categories: tuple[str, ...]

    def __post_init__(self):
        cats = tuple(self.categories)
        object.__setattr__(self, "categories", cats)
        if not cats:
            raise ValueError("LabelScheme needs at least one category")
        if len(set(cats)) != len(cats):
            raise ValueError(f"duplicate categories: {cats}")
        if any(not c or c.split() != [c] for c in cats):
            raise ValueError("category names must be non-empty, without whitespace")

    @property
    def tag_count(self) -> int:
        return 1 + 2 * len(self.categories)

    @property
    def o_index(self) -> int:
        return 0

    def b_index(self, category: str) -> int:
        return 1 + 2 * self._cat_pos(category)

    def i_index(self, category: str) -> int:
        return 2 + 2 * self._cat_pos(category)

    def category_of(self, index: int) -> str | None:
        """Category owning a tag index, None for O."""
        self._check(index)
        return None if index == 0 else self.categories[(index - 1) // 2]

    def is_begin(self, index: int) -> bool:
        self._check(index)
        return index > 0 and (index - 1) % 2 == 0

    def is_inside(self, index: int) -> bool:
        self._check(index)
        return index > 0 and (index - 1) % 2 == 1

    def tag_name(self, index: int) -> str:
        self._check(index)
        if index == 0:
            return "O"
        prefix = "B" if self.is_begin(index) else "I"
        return f"{prefix}-{self.category_of(index)}"

    def tag_index(self, name: str) -> int:
        try:
            return _tag_table(self)[name]
        except KeyError:
            raise ValueError(
                f"unknown tag {name!r} for categories {self.categories}") from None

    def _cat_pos(self, category: str) -> int:
        try:
            return self.categories.index(category)
        except ValueError:
            raise ValueError(f"unknown category {category!r}") from None

    def _check(self, index: int) -> None:
        if not 0 <= index < self.tag_count:
            raise ValueError(f"tag index {index} out of range [0, {self.tag_count})")


@lru_cache(maxsize=None)
def _tag_table(scheme: LabelScheme) -> dict[str, int]:
    return {scheme.tag_name(i): i for i in range(scheme.tag_count)}


@dataclass(frozen=True, order=True)
class EntitySpan:
    """Half-open token span [start, end) carrying an entity category."""

    start: int
    end: int  # exclusive
    category: str

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError(f"bad span bounds [{self.start}, {self.end})")


@dataclass(frozen=True)
class Sentence:
    """Pre-tokenized sentence, optionally with hard BIO tag indices."""

    tokens: tuple[str, ...]
    labels: tuple[int, ...] | None = None

    def __post_init__(self):
        tokens = tuple(self.tokens)
        object.__setattr__(self, "tokens", tokens)
        if not tokens:
            raise ValueError("empty sentence")
        if any(not t for t in tokens):
            raise ValueError("empty token string")
        if self.labels is not None:
            labels = tuple(int(l) for l in self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != len(tokens):
                raise ValueError(f"{len(labels)} labels for {len(tokens)} tokens")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Corpus:
    """Sentences plus the label scheme they are tagged under."""

    sentences: tuple[Sentence, ...]
    scheme: LabelScheme
    name: str = ""

    def __post_init__(self):
        sents = tuple(self.sentences)
        object.__setattr__(self, "sentences", sents)
        c = self.scheme.tag_count
        for i, s in enumerate(sents):
            if s.labels is not None and any(not 0 <= l < c for l in s.labels):
                raise ValueError(f"sentence {i}: tag index out of range for scheme")

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

    @property
    def fully_labelled(self) -> bool:
        return all(s.labels is not None for s in self.sentences)

    def gold_spans(self) -> list[list[EntitySpan]]:
        """Per-sentence spans decoded from the hard labels."""
        if not self.fully_labelled:
            raise ValueError(f"corpus {self.name!r} has unlabelled sentences")
        return [decode_bio(s.labels, self.scheme) for s in self.sentences]

    def total_entities(self) -> int:
        return sum(len(spans) for spans in self.gold_spans())


def encode_bio(spans: Sequence[EntitySpan], length: int, scheme: LabelScheme) -> list[int]:
    """BIO tag indices for non-overlapping spans over `length` tokens."""
    ordered = sorted(spans)
    labels = [scheme.o_index] * length
    prev = None
    for span in ordered:
        if span.end > length:
            raise ValueError(f"span {span} exceeds sentence length {length}")
        if prev is not None and span.start < prev.end:
            raise ValueError(f"overlapping spans {prev} and {span}")
        labels[span.start] = scheme.b_index(span.category)
        inside = scheme.i_index(span.category)
        for k in range(span.start + 1, span.end):
            labels[k] = inside
        prev = span
    return labels


def decode_bio(labels: Sequence[int], scheme: LabelScheme) -> list[EntitySpan]:
    """Spans from BIO tags; a stray I- opens a span (conlleval-style repair).

    Total on any index sequence in [0, tag_count): a category change inside
    an I- run closes the open span and starts a new one.
    """
    spans: list[EntitySpan] = []
    open_cat: str | None = None
    open_start = 0

    def close(k: int) -> None:
        nonlocal open_cat
        if open_cat is not None:
            spans.append(EntitySpan(open_start, k, open_cat))
            open_cat = None

    for k, tag in enumerate(labels):
        cat = scheme.category_of(tag)
        if cat is None:
            close(k)
        elif scheme.is_begin(tag) or cat != open_cat:
            close(k)
            open_cat, open_start = cat, k
        # else: I- continuing the open span of the same category
    close(len(labels))
    return spans


def parse_conll(text: str, scheme: LabelScheme, name: str = "") -> Corpus:
    """Parse whitespace-column CoNLL text; the last column is the NER tag.

    IOB1 input converts to BIO: an I-X that does not continue an X entity
    becomes B-X (the identity on well-formed BIO input).  Lines whose first
    token is `-DOCSTART-` are document separators and are dropped.
    """
    sentences: list[Sentence] = []
    tokens: list[str] = []
    labels: list[int] = []

    def flush() -> None:
        if tokens:
            sentences.append(Sentence(tuple(tokens), _to_bio(labels, scheme)))
            tokens.clear()
            labels.clear()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            flush()
            continue
        if parts[0] == DOCSTART:
            continue
        if len(parts) < 2:
            raise ParseError(f"line {lineno}: expected token and tag columns, got {raw!r}")
        try:
            index = scheme.tag_index(parts[-1])
        except ValueError:
            raise ParseError(f"line {lineno}: unknown tag {parts[-1]!r}") from None
        tokens.append(parts[0])
        labels.append(index)
    flush()
    return Corpus(tuple(sentences), scheme, name)


def _to_bio(labels: Sequence[int], scheme: LabelScheme) -> tuple[int, ...]:
    """IOB1 to BIO: I-X not preceded by a tag of category X becomes B-X."""
    out: list[int] = []
    prev_cat: str | None = None
    for tag in labels:
        cat = scheme.category_of(tag)
        if cat is not None and scheme.is_inside(tag) and cat != prev_cat:
            tag = scheme.b_index(cat)
        out.append(tag)
        prev_cat = cat
    return tuple(out)


def serialize_conll(corpus: Corpus) -> str:
    """CoNLL text: one `token TAG` line per token, blank line between sentences."""
    blocks = []
    for s in corpus.sentences:
        if s.labels is None:
            raise ValueError("cannot serialize unlabelled sentences")
        blocks.append("\n".join(
            f"{t} {corpus.scheme.tag_name(l)}" for t, l in zip(s.tokens, s.labels)))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def infer_scheme(*texts: str) -> LabelScheme:
    """LabelScheme from the union of categories appearing in CoNLL texts."""
    cats: set[str] = set()
    for text in texts:
        for raw in text.splitlines():
            parts = raw.split()
            if not parts or parts[0] == DOCSTART or len(parts) < 2:
                continue
            tag = parts[-1]
            if tag == "O":
                continue
            if len(tag) < 3 or tag[1] != "-" or tag[0] not in "BI":
                raise ParseError(f"unrecognized tag {tag!r}")
            cats.add(tag[2:])
    if not cats:
        raise ParseError("no entity tags found to infer a scheme from")
    return LabelScheme(tuple(sorted(cats)))


def read_conll(paths: Sequence[str], scheme: LabelScheme | None = None) -> list[Corpus]:
    """Corpora of CoNLL files, each named after its file, under `scheme` or
    else the scheme inferred from all the files together."""
    texts = [Path(p).read_text(encoding="utf-8") for p in paths]
    scheme = scheme or infer_scheme(*texts)
    return [parse_conll(t, scheme, Path(p).name) for t, p in zip(texts, paths)]


# --- synthetic corpus generation -------------------------------------------

DEFAULT_CATEGORIES = ("PER", "LOC", "ORG")

_PER_FIRST = ("Anna", "Omar", "Lucia", "Petra", "Ivan", "Maya", "Tomas",
              "Greta", "Hugo", "Nadia", "Felix", "Iris", "Dario", "Selma",
              "Arvid", "Leila", "Marco", "Edith", "Joram", "Tessa", "Viktor",
              "Alma", "Ruben", "Noor")
_PER_LAST = ("Keller", "Okafor", "Lindqvist", "Moreau", "Fujita", "Novak",
             "Castillo", "Haugen", "Szabo", "Duran", "Whitfield", "Stone",
             "Bergman", "Iwata", "Reyes", "Holt", "Mercer", "Winton")
_CITIES = ("Oslo", "Madrid", "Dresden", "Cairo", "Havana", "Toledo", "Geneva",
           "Nairobi", "Quito", "Lima", "Riga", "Porto", "Davao", "Tunis",
           "Osaka", "Bergen", "Split", "Leeds", "Ghent", "Turin", "Basel",
           "Kyoto", "Quebec", "Seville", "Cusco", "Bern", "Malmo", "Derry",
           "Varna", "Arles")
_PLACE_BASE = ("Hope", "Stone", "Garda", "Mira", "Vela", "Onda", "Elm",
               "Crag", "Fern", "Clay", "Ridge", "Birch", "Heron", "Otter",
               "Cedar", "Aspen", "Brook", "Cliff", "Dune", "Vale", "Moss",
               "Pine", "Wren", "Slate", "Frost", "Glen", "Heath", "Tarn",
               "Reef", "Knoll")
_PLACE_END = ("ford", "bridge", "haven", "field", "wick",
              "mere", "dale", "holm", "gate", "port")
# Two-token places kept deliberately frequent so I-LOC has steady support.
_PLACE_PAIRS = ("Port Stone", "Lake Garda", "New Hope", "East Vela",
                "West Onda", "North Ridge", "South Fern", "Port Mira",
                "Lake Heron", "New Crag", "East Birch", "West Clay")
_ORG_BASE = ("Nordic", "Delta", "Orion", "Atlas", "Vector",
             "Quill", "Ember", "Cobalt", "Argent", "Summit", "Kestrel",
             "Umbra", "Vera", "Norte", "Zenith", "Apex", "Helix", "Quanta",
             "Forge", "Anvil", "Crux", "Vertex", "Halcyon", "Meridian",
             "Sable", "Onyx", "Tessera", "Ardent", "Solstice", "Pinnacle")
_ORG_END = ("corp", "tech", "soft", "net", "sys", "gen", "chem", "ware")
_ORG_PAIRS = ("Atlas Works", "Nordic Bank", "Orion Labs", "Delta Group",
              "Vector Press", "Summit Capital", "Ember Works", "Cobalt Bank",
              "Quill Press", "Argent Capital", "Kestrel Labs", "Zenith Group")
_ORG_SINGLE = ("Vantix", "Qorvia", "Telmor", "Dynaxa", "Ubrik", "Soltara",
               "Veridian", "Omnira", "Kaplex", "Arvex", "Fenwick", "Lumora")

# Surface words deliberately recur across categories (Stone, Lima, ...) and
# as lowercase non-entity tokens in the templates, so category and
# entity-hood depend on context, not on the word alone.  Each pool mixes a
# frequent head (repeated entries weight the uniform draw) with a long tail
# of single-token surfaces that occur only once or twice in the default
# corpus; under heavy masking some tail surfaces keep their mentions while
# others lose all of them, which is what makes low keep fractions
# interesting.  Tail surfaces are one token on purpose: each is a single
# isolated decision for the model, not a span half-shared with the head.
DEFAULT_GAZETTEERS: Mapping[str, tuple[str, ...]] = {
    "PER": _PER_FIRST + tuple(f"{f} {l}" for f in _PER_FIRST for l in _PER_LAST),
    "LOC": (_CITIES + _PLACE_PAIRS) * 12
           + tuple(f"{b}{e}" for b in _PLACE_BASE for e in _PLACE_END),
    "ORG": (_ORG_SINGLE + _ORG_PAIRS) * 12
           + tuple(f"{b}{e}" for b in _ORG_BASE for e in _ORG_END),
}

DEFAULT_TEMPLATES = (
    # no entities (2 of 28)
    "rates fell on Monday .",
    "the stone bridge flooded .",
    # one entity (6 of 28)
    "{PER} resigned .",
    "{PER} declined comment .",
    "storms hit {LOC} .",
    "mayor of {LOC} quit .",
    "{ORG} posted profits .",
    "analysts praised {ORG} .",
    # two entities (14 of 28)
    "{PER} lives in {LOC} .",
    "{PER} joined {ORG} in May .",
    "{PER} met {PER} .",
    "{ORG} opened in {LOC} .",
    "{PER} flew to {LOC} .",
    "{ORG} and {ORG} merged .",
    "{PER} criticized {ORG} .",
    "{LOC} and {LOC} agreed .",
    "{ORG} moved to {LOC} .",
    "{PER} sued {ORG} .",
    "{PER} visited {LOC} in March .",
    "{ORG} hired {PER} .",
    "{LOC} hosted {PER} .",
    "{ORG} denied {PER} entry .",
    # three or more entities (6 of 28)
    "{PER} of {ORG} visited {LOC} .",
    "{PER} and {PER} toured {LOC} .",
    "{ORG} sent {PER} to {LOC} .",
    "{PER} , {PER} and {PER} attended .",
    "{ORG} , {ORG} and {LOC} were named .",
    "{PER} left {LOC} for {LOC} .",
)


@dataclass(frozen=True)
class SynthConfig:
    """Configuration for the template-based synthetic corpus generator."""

    n_sentences: int = 2000
    seed: int = 0
    categories: tuple[str, ...] = DEFAULT_CATEGORIES
    gazetteers: Mapping[str, tuple[str, ...]] | None = None  # None: built-in defaults
    templates: tuple[str, ...] | None = None                 # None: built-in defaults
    name: str = "synthetic"

    def __post_init__(self):
        if self.n_sentences < 0:
            raise ConfigError("n_sentences must be >= 0")

    @staticmethod
    def from_dict(data: Mapping) -> "SynthConfig":
        """Config from parsed JSON: lists become tuples, unknown keys are errors."""
        data = dict(data)
        unknown = set(data) - set(SynthConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown synth config keys: {sorted(unknown)}")
        for key in ("categories", "templates"):
            if data.get(key) is not None:
                data[key] = tuple(data[key])
        if data.get("gazetteers") is not None:
            data["gazetteers"] = {c: tuple(v) for c, v in data["gazetteers"].items()}
        return SynthConfig(**data)


@dataclass(frozen=True)
class _Slot:
    category: str


def _parse_template(template: str, scheme: LabelScheme,
                    gazetteers: Mapping[str, tuple[str, ...]]) -> list:
    pieces: list = []
    for word in template.split():
        if word.startswith("{") and word.endswith("}") and len(word) > 2:
            cat = word[1:-1]
            if cat not in scheme.categories:
                raise ConfigError(f"template slot {word!r} names an unknown category")
            if not gazetteers.get(cat):
                raise ConfigError(f"empty gazetteer for category {cat!r}")
            pieces.append(_Slot(cat))
        else:
            pieces.append(word)
    if not pieces:
        raise ConfigError(f"blank template {template!r}")
    return pieces


def generate_synthetic(config: SynthConfig) -> Corpus:
    """Deterministic template-filled corpus with exact gold labels.

    Each sentence picks one template uniformly, then fills every slot with a
    uniform gazetteer draw (multi-word surfaces yield B-/I- runs).
    """
    scheme = LabelScheme(tuple(config.categories))
    gaz = {c: tuple(v) for c, v in
           (config.gazetteers or DEFAULT_GAZETTEERS).items()}
    templates = DEFAULT_TEMPLATES if config.templates is None else tuple(config.templates)
    if not templates:
        raise ConfigError("empty template pool")
    parsed = [_parse_template(t, scheme, gaz) for t in templates]
    rng = seeded_rng(config.seed, STREAM_SYNTH)
    sentences = []
    for _ in range(config.n_sentences):
        pieces = parsed[rng.integers(len(parsed))]
        tokens: list[str] = []
        spans: list[EntitySpan] = []
        for piece in pieces:
            if isinstance(piece, _Slot):
                pool = gaz[piece.category]
                words = pool[rng.integers(len(pool))].split()
                spans.append(EntitySpan(len(tokens), len(tokens) + len(words), piece.category))
                tokens.extend(words)
            else:
                tokens.append(piece)
        labels = encode_bio(spans, len(tokens), scheme)
        sentences.append(Sentence(tuple(tokens), tuple(labels)))
    return Corpus(tuple(sentences), scheme, config.name)
