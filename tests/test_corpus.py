"""Label scheme layout, BIO codecs, CoNLL parsing, synthetic generation."""
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialner.corpus import (ConfigError, Corpus, DEFAULT_CATEGORIES,
                               EntitySpan, LabelScheme, ParseError, Sentence,
                               SynthConfig, decode_bio, encode_bio,
                               generate_synthetic, infer_scheme, parse_conll,
                               read_conll, serialize_conll)


class TestLabelScheme:
    def test_layout(self, scheme):
        assert scheme.tag_count == 7
        assert scheme.o_index == 0
        assert scheme.b_index("PER") == 1 and scheme.i_index("PER") == 2
        assert scheme.b_index("ORG") == 5 and scheme.i_index("ORG") == 6

    def test_tag_names_roundtrip(self, scheme):
        names = tuple(scheme.tag_name(i) for i in range(scheme.tag_count))
        assert names == ("O", "B-PER", "I-PER", "B-LOC", "I-LOC", "B-ORG", "I-ORG")
        for i, n in enumerate(names):
            assert scheme.tag_index(n) == i

    def test_category_of(self, scheme):
        assert scheme.category_of(0) is None
        assert scheme.category_of(3) == "LOC"
        assert scheme.is_begin(3) and not scheme.is_inside(3)
        assert scheme.is_inside(4) and not scheme.is_begin(4)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            LabelScheme(())
        with pytest.raises(ValueError):
            LabelScheme(("PER", "PER"))
        with pytest.raises(ValueError):
            LabelScheme(("A B",))
        with pytest.raises(ValueError):
            LabelScheme(("PER",)).tag_index("B-LOC")
        with pytest.raises(ValueError):
            LabelScheme(("PER",)).category_of(3)


class TestEntitySpan:
    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            EntitySpan(2, 2, "PER")
        with pytest.raises(ValueError):
            EntitySpan(-1, 2, "PER")

    def test_covers_and_order(self, scheme):
        # half-open: the span covers tokens 1 and 2, not 3
        labels = encode_bio([EntitySpan(1, 3, "LOC")], 4, scheme)
        assert labels == [0, scheme.b_index("LOC"), scheme.i_index("LOC"), 0]
        assert EntitySpan(0, 1, "PER") < EntitySpan(1, 2, "PER")


class TestBioCodec:
    def test_encode_hand_case(self, scheme):
        spans = [EntitySpan(0, 2, "PER"), EntitySpan(3, 4, "LOC")]
        assert encode_bio(spans, 5, scheme) == [1, 2, 0, 3, 0]

    def test_decode_hand_case(self, scheme):
        assert decode_bio([1, 2, 0, 3, 0], scheme) == [
            EntitySpan(0, 2, "PER"), EntitySpan(3, 4, "LOC")]

    def test_stray_inside_opens_span(self, scheme):
        # conlleval-style repair: I- without a preceding B- still counts
        assert decode_bio([0, 2, 2, 0], scheme) == [EntitySpan(1, 3, "PER")]

    def test_category_change_splits_runs(self, scheme):
        assert decode_bio([2, 4], scheme) == [
            EntitySpan(0, 1, "PER"), EntitySpan(1, 2, "LOC")]

    def test_adjacent_begins_split(self, scheme):
        assert decode_bio([1, 1], scheme) == [
            EntitySpan(0, 1, "PER"), EntitySpan(1, 2, "PER")]

    def test_encode_rejects_overlap_and_overflow(self, scheme):
        with pytest.raises(ValueError):
            encode_bio([EntitySpan(0, 2, "PER"), EntitySpan(1, 3, "LOC")], 4, scheme)
        with pytest.raises(ValueError):
            encode_bio([EntitySpan(0, 5, "PER")], 4, scheme)

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=12))
    def test_decode_total_and_repair_stable(self, labels):
        """Any tag sequence decodes; re-encoding the result is a fixpoint."""
        scheme = LabelScheme(DEFAULT_CATEGORIES)
        spans = decode_bio(labels, scheme)
        for a, b in zip(spans, spans[1:]):
            assert a.end <= b.start
        repaired = encode_bio(spans, len(labels), scheme)
        assert decode_bio(repaired, scheme) == spans

    @given(st.data())
    def test_encode_decode_roundtrip(self, data):
        scheme = LabelScheme(DEFAULT_CATEGORIES)
        length = data.draw(st.integers(1, 14))
        spans, cursor = [], 0
        while cursor < length:
            start = data.draw(st.integers(cursor, length))
            if start >= length:
                break
            end = data.draw(st.integers(start + 1, length))
            spans.append(EntitySpan(
                start, end, data.draw(st.sampled_from(DEFAULT_CATEGORIES))))
            cursor = end
        assert decode_bio(encode_bio(spans, length, scheme), scheme) == spans


SAMPLE = """\
-DOCSTART- -X- -X- O

Anna B-PER
Keller I-PER
visited O
Oslo B-LOC

Vantix B-ORG
"""


class TestConll:
    def test_parse_sample(self, scheme):
        corpus = parse_conll(SAMPLE, scheme, "sample")
        assert len(corpus) == 2
        assert corpus.sentences[0].tokens == ("Anna", "Keller", "visited", "Oslo")
        assert corpus.sentences[0].labels == (1, 2, 0, 3)
        assert corpus.name == "sample"

    def test_docstart_dropped(self, scheme):
        corpus = parse_conll(SAMPLE, scheme)
        assert all(s.tokens[0] != "-DOCSTART-" for s in corpus)

    def test_iob1_conversion(self, scheme):
        # plain I- after O or at sentence start begins an entity
        text = "Oslo I-LOC\nBergen I-LOC\n\nMadrid I-LOC\n"
        corpus = parse_conll(text, scheme)
        spans = corpus.gold_spans()
        assert spans[0] == [EntitySpan(0, 2, "LOC")]
        assert spans[1] == [EntitySpan(0, 1, "LOC")]

    def test_iob1_conversion_is_the_per_tag_rule_exhaustively(self):
        # every tag sequence of length 1-6 over 2 categories, one sentence each
        scheme = LabelScheme(("A", "B"))

        def to_bio(labels):  # I-X not preceded by a tag of category X becomes B-X
            out, prev = [], None
            for tag in labels:
                cat = scheme.category_of(tag)
                if cat is not None and scheme.is_inside(tag) and cat != prev:
                    tag = scheme.b_index(cat)
                out.append(tag)
                prev = cat
            return tuple(out)
        seqs = [seq for n in range(1, 7)
                for seq in itertools.product(range(scheme.tag_count), repeat=n)]
        text = "\n\n".join("\n".join(f"t {scheme.tag_name(l)}" for l in seq) for seq in seqs)
        corpus = parse_conll(text, scheme)
        assert len(corpus) == len(seqs) == 19530
        for seq, sentence in zip(seqs, corpus):
            assert sentence.labels == to_bio(seq), seq

    def test_unknown_tag_reports_line(self, scheme):
        with pytest.raises(ParseError, match="line 2"):
            parse_conll("Anna B-PER\nx B-MISC\n", scheme)

    def test_empty_token_line_rejected(self, scheme):
        with pytest.raises(ParseError):
            parse_conll("B-PER\n", scheme)

    def test_serialize_parse_roundtrip(self, tiny_corpus):
        text = serialize_conll(tiny_corpus)
        back = parse_conll(text, tiny_corpus.scheme, tiny_corpus.name)
        assert back == tiny_corpus

    @pytest.mark.parametrize("n_categories", [1, 2, 3, 4])
    def test_serialize_equals_per_token_tag_names(self, n_categories):
        scheme = LabelScheme(tuple(f"C{i}" for i in range(n_categories)))
        every = list(range(scheme.tag_count))  # each tag index, then reversed
        sentences = (Sentence(tuple(f"t{i}" for i in every), tuple(every)),
                     Sentence(("x",), (0,)),
                     Sentence(tuple(f"r{i}" for i in every), tuple(reversed(every))))
        corpus = Corpus(sentences, scheme, "every-tag")
        want = "\n\n".join("\n".join(f"{t} {scheme.tag_name(l)}"
                                     for t, l in zip(s.tokens, s.labels))
                           for s in sentences) + "\n"
        assert serialize_conll(corpus) == want

    def test_synthetic_roundtrip(self, small_splits):
        train, _, _ = small_splits
        assert parse_conll(serialize_conll(train), train.scheme, train.name) == train

    def test_infer_scheme_sorted_union(self):
        scheme = infer_scheme("a B-ZZZ\n\nb I-AAA\n", "c B-MMM\n")
        assert scheme.categories == ("AAA", "MMM", "ZZZ")

    @pytest.mark.parametrize("text,line", [
        ("Anna B-PER\nKeller\n", 2),                       # one column
        ("Anna B-PER\n\nOslo X-LOC\n", 3),                 # tag not O, B-X or I-X
        ("Anna PER\nKeller\n", 1),                         # two faults: the first is named
        ("Anna\nKeller PER\n", 1),
        ("-DOCSTART- O\nAnna B-PER\n\nx\n", 4),
    ], ids=["one-column", "bad-tag-shape", "tag-fault-first", "column-fault-first",
            "after-docstart"])
    def test_one_grammar_names_one_line(self, scheme, text, line):
        for read in (infer_scheme, lambda t: parse_conll(t, scheme)):
            with pytest.raises(ParseError, match=rf"^line {line}: "):
                read(text)

    def test_docstart_inside_a_sentence_does_not_split_it(self, scheme):
        text = "Anna B-PER\n-DOCSTART- -X- O\nKeller I-PER\n\nOslo I-LOC\n"
        corpus = parse_conll(text, scheme)
        assert [s.tokens for s in corpus] == [("Anna", "Keller"), ("Oslo",)]
        assert corpus.gold_spans() == [[EntitySpan(0, 2, "PER")], [EntitySpan(0, 1, "LOC")]]
        assert infer_scheme(text).categories == ("LOC", "PER")

    def test_read_conll_names_the_file_of_an_error(self, tmp_path, scheme):
        good, bad = tmp_path / "good.conll", tmp_path / "bad.conll"
        good.write_text("Anna B-PER\n")
        bad.write_text("Oslo O\nBergen B-MISC\n")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(bad))}: line 2: unknown tag"):
            read_conll([str(good), str(bad)], scheme)
        bad.write_text("Oslo O\nBergen X-LOC\n")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(bad))}: line 2: unrecognized"):
            read_conll([str(good), str(bad)])
        bad.write_bytes("Oslo O\nZürich B-LOC\n".encode("latin-1"))
        with pytest.raises(ParseError, match=rf"^{re.escape(str(bad))}: 'utf-8' codec"):
            read_conll([str(good), str(bad)])
        bad.write_text("Oslo O\n")  # a file with no entities reads under the files' scheme
        assert [len(c) for c in read_conll([str(good), str(bad)])] == [1, 1]

    def test_infer_scheme_needs_entities(self):
        with pytest.raises(ParseError):
            infer_scheme("just O\nwords O\n")


class TestSentenceAndCorpus:
    def test_sentence_validation(self):
        with pytest.raises(ValueError):
            Sentence(())
        with pytest.raises(ValueError):
            Sentence(("a", ""))
        with pytest.raises(ValueError):
            Sentence(("a", "b"), (0,))

    def test_corpus_checks_label_range(self, scheme):
        with pytest.raises(ValueError):
            Corpus((Sentence(("a",), (9,)),), scheme)

    def test_gold_spans_needs_labels(self, scheme):
        corpus = Corpus((Sentence(("a",), None),), scheme)
        assert not corpus.fully_labelled
        with pytest.raises(ValueError):
            corpus.gold_spans()

    def test_total_entities(self, tiny_corpus):
        assert tiny_corpus.total_entities() == 10


class TestSynthetic:
    def test_deterministic(self):
        cfg = SynthConfig(n_sentences=50, seed=3)
        assert generate_synthetic(cfg) == generate_synthetic(cfg)

    def test_seed_changes_text(self):
        a = generate_synthetic(SynthConfig(n_sentences=50, seed=3))
        b = generate_synthetic(SynthConfig(n_sentences=50, seed=4))
        assert a != b

    def test_shape_and_labels(self):
        corpus = generate_synthetic(SynthConfig(n_sentences=40, seed=1, name="g"))
        assert len(corpus) == 40
        assert corpus.name == "g"
        assert corpus.fully_labelled
        assert corpus.total_entities() > 0
        assert corpus.scheme.categories == DEFAULT_CATEGORIES

    def test_every_category_appears(self, small_splits):
        train, _, _ = small_splits
        seen = {s.category for spans in train.gold_spans() for s in spans}
        assert seen == set(DEFAULT_CATEGORIES)

    def test_multi_token_entities_exist(self, small_splits):
        train, _, _ = small_splits
        widths = {s.end - s.start for spans in train.gold_spans() for s in spans}
        assert 1 in widths and 2 in widths

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_sentences=-1)

    @pytest.mark.parametrize("change,message", [
        (dict(templates=("{PER} met {XYZ} .",)), "slot '{XYZ}' names an unknown category"),
        (dict(templates=("{PER} left .",), gazetteers={"PER": ()}),
         "empty gazetteer for category 'PER'"),
        (dict(templates=("{LOC} rose .", "   ")), "blank template '   '"),
        (dict(templates=()), "empty template pool"),
        (dict(templates=("{PER} met -DOCSTART- .",)), "-DOCSTART- as a template or gazetteer word"),
        (dict(gazetteers={"PER": ("Anna", "Omar -DOCSTART-")}),
         "-DOCSTART- as a template or gazetteer word"),
    ], ids=["unknown-slot", "empty-gazetteer", "blank-template", "empty-pool",
            "docstart-template-word", "docstart-gazetteer-word"])
    def test_bad_templates(self, change, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            generate_synthetic(SynthConfig(n_sentences=5, seed=1, **change))
