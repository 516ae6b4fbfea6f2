"""Triple store, TSV parsing, slot indices, and split construction."""
from dataclasses import replace

import pytest

from negmine.kb import (
    HEAD,
    TAIL,
    KnowledgeBase,
    LabeledTriple,
    ParseError,
    Phrase,
    build_true_negative_split,
    load_tsv,
    save_tsv,
)


def t(rel, head, tail, label=1):
    return LabeledTriple(Phrase.parse(head), rel, Phrase.parse(tail), label)


class TestPhrase:
    def test_parse_lowercases_and_tokenizes(self):
        p = Phrase.parse("  Expensive   PET ")
        assert p.tokens == ("expensive", "pet")
        assert p.text == "expensive pet"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Phrase.parse("   ")

    def test_tab_and_newline_rejected(self):
        with pytest.raises(ValueError):
            Phrase(("bad\ttoken",))
        with pytest.raises(ValueError):
            Phrase(("bad\ntoken",))

    def test_ordering_is_lexicographic_on_tokens(self):
        assert Phrase.parse("apple") < Phrase.parse("banana")
        assert Phrase.parse("a b") < Phrase.parse("a c")

    def test_equality_and_hash(self):
        assert Phrase.parse("A  b") == Phrase(("a", "b"))
        assert hash(Phrase.parse("a b")) == hash(Phrase(("a", "b")))


class TestLabeledTriple:
    def test_label_validation(self):
        with pytest.raises(ValueError):
            t("r", "a", "b", label=2)

    def test_key_ignores_label(self):
        assert t("r", "a", "b", 1).key() == t("r", "a", "b", 0).key()

    def test_replace_slot(self):
        orig = t("r", "a", "b")
        swapped = orig.replace(HEAD, Phrase.parse("c"))
        assert swapped.head == Phrase.parse("c")
        assert swapped.tail == orig.tail
        assert swapped.label == 0

    def test_phrase_accessor(self):
        x = t("r", "a", "b")
        assert x.phrase(HEAD) == Phrase.parse("a")
        assert x.phrase(TAIL) == Phrase.parse("b")
        with pytest.raises(ValueError):
            x.phrase("middle")


class TestKnowledgeBase:
    def test_rejects_duplicates_and_negatives(self):
        with pytest.raises(ValueError):
            KnowledgeBase([t("r", "a", "b"), t("r", "a", "b")])
        with pytest.raises(ValueError):
            KnowledgeBase([t("r", "a", "b", label=0)])

    def test_slot_index_and_membership(self):
        kb = KnowledgeBase([t("r", "a", "b"), t("r", "c", "b"), t("s", "a", "d")])
        assert kb.slot_phrases("r", HEAD) == {Phrase.parse("a"), Phrase.parse("c")}
        assert kb.slot_phrases("r", TAIL) == {Phrase.parse("b")}
        assert kb.slot_phrases("s", TAIL) == {Phrase.parse("d")}
        assert kb.slot_phrases("missing", HEAD) == frozenset()
        assert kb.contains(t("r", "a", "b"))
        assert kb.contains(t("r", "a", "b", label=0))  # membership ignores label
        assert not kb.contains(t("r", "b", "a"))

    def test_phrases_first_occurrence_order(self):
        kb = KnowledgeBase([t("r", "a", "b"), t("r", "b", "c")])
        assert kb.phrases == (Phrase.parse("a"), Phrase.parse("b"), Phrase.parse("c"))

    def test_relations(self):
        kb = KnowledgeBase([t("r", "a", "b"), t("s", "a", "b")])
        assert kb.relations == {"r", "s"}

    def test_id_rows_decode_to_triples(self):
        kb = KnowledgeBase([t("s", "a", "b"), t("r", "b c", "a")])
        probe = [t("r", "a", "a", label=0), t("s", "b c", "b", label=0)]
        assert kb.ids.decode(kb.ids.encode(probe)) == probe
        assert kb.ids.decode(kb.ids.encode(kb.triples)) == [replace(x, label=0) for x in kb.triples]
        with pytest.raises(ValueError, match="does not store"):
            kb.ids.decode(kb.ids.encode([t("r", "a", "zzz")]))


class TestLoadTsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "kb.tsv"
        triples = [t("IsA", "horse", "expensive pet"), t("HasA", "horse", "tail")]
        save_tsv(triples, path)
        assert load_tsv(path) == triples

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "kb.tsv"
        triples = [t("IsA", "a", "b"), t("IsA", "a", "c")]
        save_tsv(triples, path)
        before = path.read_bytes()

        def crash_midway():
            yield triples[0]
            raise RuntimeError("crashed while writing")

        with pytest.raises(RuntimeError):
            save_tsv(crash_midway(), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_labels_roundtrip(self, tmp_path):
        path = tmp_path / "kb.tsv"
        triples = [t("IsA", "a", "b", 1), t("IsA", "a", "c", 0)]
        save_tsv(triples, path, with_labels=True)
        assert load_tsv(path, has_labels=True) == triples

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("# header\n\nIsA\thorse\tpet\n  \n")
        assert load_tsv(path) == [t("IsA", "horse", "pet")]

    def test_duplicates_collapsed_with_warning(self, tmp_path, caplog):
        path = tmp_path / "kb.tsv"
        path.write_text("IsA\ta\tb\nIsA\tA\tB\nIsA\ta\tc\n")
        with caplog.at_level("WARNING", logger="negmine.kb"):
            triples = load_tsv(path)
        assert triples == [t("IsA", "a", "b"), t("IsA", "a", "c")]
        assert any("1 duplicate" in r.getMessage() for r in caplog.records)

    def test_field_count_error_carries_line_number(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("IsA\ta\tb\nIsA\tonly-two\n")
        with pytest.raises(ParseError, match=r"kb\.tsv:2"):
            load_tsv(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("IsA\ta\tb\t7\n")
        with pytest.raises(ParseError, match="label"):
            load_tsv(path, has_labels=True)

    def test_empty_relation_rejected(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text(" \ta\tb\n")
        with pytest.raises(ParseError, match="relation"):
            load_tsv(path)

    def test_column_order_remap(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("horse\tIsA\tpet\n")
        assert load_tsv(path, column_order="hrt") == [t("IsA", "horse", "pet")]
        with pytest.raises(ValueError):
            load_tsv(path, column_order="rhh")

    def test_phrases_normalized_on_load(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("IsA\t Horse \tEXPENSIVE  pet\n")
        assert load_tsv(path) == [t("IsA", "horse", "expensive pet")]


class TestTrueNegativeSplit:
    def _kb(self, n_pos=10, n_neg=4):
        triples = []
        for i in range(n_pos):
            triples.append(t("IsA", f"h{i}", f"t{i}"))
            triples.append(t("HasA", f"h{i}", f"u{i}"))
        for i in range(n_neg):
            triples.append(t("NotIsA", f"h{i}", f"w{i}"))
            triples.append(t("NotHasA", f"h{i}", f"x{i}"))
        return KnowledgeBase(triples)

    def test_errors_without_negation_pairs(self):
        kb = KnowledgeBase([t("IsA", "a", "b")])
        with pytest.raises(ValueError, match="no relation pairs"):
            build_true_negative_split(kb)

    def test_rewrites_and_balances(self):
        kb = self._kb()
        out = build_true_negative_split(kb, seed=7)
        # Negated relations vanish; labels 0 appear only in eval splits.
        assert out.relations == {"IsA", "HasA"}
        for split in (out.splits.validation, out.splits.test):
            pos = [x for x in split if x.label == 1]
            neg = [x for x in split if x.label == 0]
            assert len(pos) == len(neg) == 4  # 2 per relation from 4 negatives
            assert all(x.relation in ("IsA", "HasA") for x in split)
        assert all(x.label == 1 for x in out.splits.train)
        # 20 positives minus 8 held out for eval.
        assert len(out.splits.train) == 12
        assert out.splits.train == list(out.triples)

    def test_per_relation_balance(self):
        kb = self._kb()
        out = build_true_negative_split(kb, seed=0)
        for split in (out.splits.validation, out.splits.test):
            for rel in ("IsA", "HasA"):
                pos = [x for x in split if x.relation == rel and x.label == 1]
                neg = [x for x in split if x.relation == rel and x.label == 0]
                assert len(pos) == len(neg) == 2

    def test_eval_triples_disjoint_from_train(self):
        out = build_true_negative_split(self._kb(), seed=3)
        train_keys = {x.key() for x in out.splits.train}
        for split in (out.splits.validation, out.splits.test):
            for x in split:
                assert x.key() not in train_keys

    def test_deterministic_given_seed(self):
        a = build_true_negative_split(self._kb(), seed=5)
        b = build_true_negative_split(self._kb(), seed=5)
        assert a.splits.validation == b.splits.validation
        assert a.splits.test == b.splits.test
        assert a.splits.train == b.splits.train

    def test_errors_when_too_few_positives(self):
        triples = [t("IsA", "a", "b"), t("NotIsA", "a", "c"), t("NotIsA", "a", "d")]
        kb = KnowledgeBase(triples)
        with pytest.raises(ValueError, match="balance"):
            build_true_negative_split(kb)

    def test_negated_heads_tails_preserved(self):
        kb = KnowledgeBase([t("IsA", f"h{i}", f"t{i}") for i in range(6)] + [t("NotIsA", "zebra", "cheap pet")])
        out = build_true_negative_split(kb, seed=0)
        rewritten = [x for s in (out.splits.validation, out.splits.test) for x in s if x.label == 0]
        assert rewritten == [t("IsA", "zebra", "cheap pet", 0)]
