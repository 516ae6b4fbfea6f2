"""Baseline negative samplers: lexicon, phrase graph, and draw contracts."""
import numpy as np
import pytest
from conftest import RecordingRng, id_rows
from conftest import make_triple as t

from negmine.kb import HEAD, TAIL, KnowledgeBase, ParseError, Phrase
from negmine.samplers import (
    AntonymLexicon,
    EntityGraph,
    load_antonyms,
    sample_antonyms,
    sample_sans,
    sample_slots,
    sample_uniform,
    save_antonyms,
)
from negmine.scorer import CORRUPT_RETRIES


def p(text):
    return Phrase.parse(text)


class TestAntonymLexicon:
    def test_lookup(self):
        lex = AntonymLexicon({"hot": ("adjective", ["cold", "cool"])})
        assert "hot" in lex and len(lex) == 1
        assert lex.pos_class("hot") == "adjective"
        assert lex.antonyms("hot") == ("cold", "cool")
        assert lex.pos_class("cold") is None
        assert lex.antonyms("cold") == ()

    def test_self_map_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            AntonymLexicon({"hot": ("adjective", ["cold", "hot"])})

    def test_bad_class_rejected(self):
        with pytest.raises(ValueError, match="word class"):
            AntonymLexicon({"hot": ("adverb", ["cold"])})

    def test_empty_and_duplicate_antonyms_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            AntonymLexicon({"hot": ("adjective", [])})
        with pytest.raises(ValueError, match="duplicate"):
            AntonymLexicon({"hot": ("adjective", ["cold", "cold"])})

    def test_multiword_tokens_rejected(self):
        with pytest.raises(ValueError, match="single"):
            AntonymLexicon({"very hot": ("adjective", ["cold"])})
        with pytest.raises(ValueError, match="single"):
            AntonymLexicon({"hot": ("adjective", ["very cold"])})


class TestAntonymTsv:
    def test_roundtrip(self, tmp_path):
        lex = AntonymLexicon(
            {
                "hot": ("adjective", ["cold", "cool"]),
                "rise": ("verb", ["fall"]),
                "day": ("noun", ["night"]),
            }
        )
        path = tmp_path / "antonyms.tsv"
        save_antonyms(lex, path)
        loaded = load_antonyms(path)
        assert set(loaded.tokens()) == set(lex.tokens())
        for tok in lex.tokens():
            assert loaded.pos_class(tok) == lex.pos_class(tok)
            assert loaded.antonyms(tok) == lex.antonyms(tok)

    def test_layout_sorted_by_token(self, tmp_path):
        lex = AntonymLexicon({"up": ("adjective", ["down"]), "big": ("adjective", ["small"])})
        path = tmp_path / "a.tsv"
        save_antonyms(lex, path)
        assert path.read_text() == "big\tadjective\tsmall\nup\tadjective\tdown\n"

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("# lexicon\n\nhot\tadjective\tcold\n")
        assert load_antonyms(path).tokens() == ("hot",)

    def test_lowercases_input(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("Hot\tadjective\tCold\n")
        lex = load_antonyms(path)
        assert lex.antonyms("hot") == ("cold",)

    def test_malformed_lines(self, tmp_path):
        cases = [
            ("hot\tadjective\n", "fields"),
            ("hot\tadverb\tcold\n", "word class"),
            ("hot\tadjective\thot\n", "itself"),
            ("hot\tadjective\tcold\nhot\tadjective\tcool\n", "duplicate token"),
        ]
        for text, match in cases:
            path = tmp_path / "bad.tsv"
            path.write_text(text)
            with pytest.raises(ParseError, match=match) as exc_info:
                load_antonyms(path)
            assert str(path) in str(exc_info.value)

    def test_rewrite_byte_identical(self, tmp_path):
        lex = AntonymLexicon({"hot": ("adjective", ["cold", "cool"])})
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        save_antonyms(lex, a)
        save_antonyms(lex, b)
        assert a.read_bytes() == b.read_bytes()


def chain_kb():
    return KnowledgeBase([t("R", "a", "b"), t("R", "b", "c"), t("R", "c", "d")])


def hood(graph, kb, text):
    """The neighbourhood of KB phrase `text`, as phrases in id order."""
    i = kb.phrase_positions[p(text)]
    return [kb.phrases[j] for j in graph.members[graph.offsets[i] : graph.offsets[i + 1]]]


class TestEntityGraph:
    def test_chain_neighborhoods(self):
        kb = chain_kb()
        assert hood(EntityGraph.from_kb(kb, 2), kb, "a") == [p("b"), p("c")]
        assert hood(EntityGraph.from_kb(kb, 1), kb, "a") == [p("b")]
        assert hood(EntityGraph.from_kb(kb, 1), kb, "b") == [p("a"), p("c")]
        assert hood(EntityGraph.from_kb(kb, 3), kb, "a") == [p("b"), p("c"), p("d")]
        assert hood(EntityGraph.from_kb(kb, 10), kb, "a") == [p("b"), p("c"), p("d")]

    def test_symmetry(self):
        kb = chain_kb()
        for hops in (1, 2, 3):
            g = EntityGraph.from_kb(kb, hops)
            for phrase in kb.phrases:
                for other in hood(g, kb, phrase.text):
                    assert phrase in hood(g, kb, other.text)

    def test_self_loops_dropped(self):
        kb = KnowledgeBase([t("R", "a", "a"), t("R", "a", "b")])
        g = EntityGraph.from_kb(kb, 1)
        assert hood(g, kb, "a") == [p("b")]
        assert hood(g, kb, "b") == [p("a")]

    def test_isolated_phrase_empty(self):
        kb = KnowledgeBase([t("R", "a", "a")])
        assert hood(EntityGraph.from_kb(kb, 2), kb, "a") == []

    def test_unknown_phrase_empty(self):
        # Phrases the KB does not store have no neighbourhood: every entry skips.
        kb = chain_kb()
        graph = EntityGraph.from_kb(kb, 2)
        probe = id_rows(kb.ids, [t("R", "zzz", "yyy")])
        assert sample_sans(graph, kb, probe, 20, np.random.default_rng(0)).triples() == []

    def test_hops_validated(self):
        with pytest.raises(ValueError, match="hops"):
            EntityGraph.from_kb(chain_kb(), 0)


class TestSampleUniform:
    def test_differs_in_exactly_one_slot(self):
        kb = KnowledgeBase([t("R", f"h{i}", f"t{i}") for i in range(5)])
        outs = sample_uniform(kb, kb.ids.rows[:1], 200, np.random.default_rng(0)).triples()
        assert len(outs) == 200
        for out in outs:
            assert out.label == 0
            changed = (out.head != kb.triples[0].head) + (out.tail != kb.triples[0].tail)
            assert changed == 1
            assert not kb.contains(out)

    def test_two_phrase_vocabulary_single_draw(self):
        kb = KnowledgeBase([t("R", "p", "p"), t("R", "q", "q")])
        positive = kb.triples[0]
        for seed in range(20):
            [out] = sample_uniform(kb, kb.ids.rows[:1], 1, np.random.default_rng(seed)).triples()
            assert out in (t("R", "q", "p", 0), t("R", "p", "q", 0))
            if out.head != positive.head:
                assert out == t("R", "q", "p", 0)

    def test_replacement_frequencies_near_uniform(self):
        # 5 disjoint positives over 10 phrases; no corruption is ever in-KB.
        kb = KnowledgeBase([t("R", f"p{2 * i}", f"p{2 * i + 1}") for i in range(5)])
        positive = kb.triples[0]
        counts: dict = {phrase: 0 for phrase in kb.phrases}
        n = 10_000
        for out in sample_uniform(kb, kb.ids.rows[:1], n, np.random.default_rng(7)).triples():
            slot = HEAD if out.head != positive.head else TAIL
            counts[out.phrase(slot)] += 1
        # p0/p1 can fill only the opposite slot: probability 1/2 x 1/9 each;
        # the other eight phrases arrive from either slot: probability 1/9.
        for phrase, count in counts.items():
            prob = 1 / 18 if phrase in (p("p0"), p("p1")) else 1 / 9
            sigma = (n * prob * (1 - prob)) ** 0.5
            assert abs(count - n * prob) <= 3 * sigma, (phrase.text, count)

    def test_skips_when_every_draw_in_kb(self):
        # All cross pairs present: any single-slot replacement is a positive.
        names = ["a", "b", "c"]
        kb = KnowledgeBase([t("R", x, y) for x in names for y in names])
        assert sample_uniform(kb, kb.ids.rows[:1], 1, np.random.default_rng(0)).triples() == []

    def test_skips_single_phrase_vocabulary(self):
        kb = KnowledgeBase([t("R", "p", "p")])
        assert sample_uniform(kb, kb.ids.rows, 3, np.random.default_rng(0)).triples() == []

    def test_seeded_sequence_reproducible(self):
        kb = KnowledgeBase([t("R", f"h{i}", f"t{i}") for i in range(4)])
        seq = lambda seed: sample_uniform(kb, kb.ids.rows, 1, np.random.default_rng(seed)).rows
        np.testing.assert_array_equal(seq(3), seq(3))
        assert not np.array_equal(seq(3), seq(4))


def changed_slot(out, positive):
    """The one slot `out` changed from `positive`."""
    assert (out.head != positive.head) + (out.tail != positive.tail) == 1
    assert out.relation == positive.relation
    return HEAD if out.head != positive.head else TAIL


class TestSampleSlots:
    def test_single_valid_head_draw(self):
        kb = KnowledgeBase([t("R", "a", "x"), t("R", "c", "y")])
        positive = kb.triples[0]
        outs = set()
        for s in range(30):
            [out] = sample_slots(kb, kb.ids.rows[:1], 1, np.random.default_rng(s)).triples()
            outs.add(out)
        assert outs == {t("R", "c", "x", 0), t("R", "a", "y", 0)}

    def test_replacement_stays_in_slot_pool(self):
        rng = np.random.default_rng(1)
        kb = KnowledgeBase(
            [t("R", f"h{i}", f"t{j}") for i in range(4) for j in range(4) if (i + j) % 2]
        )
        for positive in kb.triples:
            for out in sample_slots(kb, id_rows(kb.ids, [positive]), 20, rng).triples():
                assert out.label == 0 and not kb.contains(out)
                slot = changed_slot(out, positive)
                assert out.phrase(slot) in kb.slot_phrases(positive.relation, slot)

    def test_empty_head_pool_attempts_tail(self):
        # Sole R-head: both coin flips land on the tail pool {y}, where every
        # swap stays in-KB, so each entry spends its whole budget there and
        # is skipped.
        kb = KnowledgeBase([t("R", "a", "x"), t("R", "a", "y")])
        rng = RecordingRng(0)
        assert sample_slots(kb, kb.ids.rows[:1], 8, rng).triples() == []
        (flip_high, flips), *draws = rng.calls
        assert flip_high == 2 and set(flips.tolist()) == {0, 1}
        assert len(draws) == CORRUPT_RETRIES
        for highs, _ in draws:
            assert highs.tolist() == [1] * 8

    def test_both_pools_empty_skips(self):
        kb = KnowledgeBase([t("R", "a", "x")])
        rng = RecordingRng(0)
        assert sample_slots(kb, kb.ids.rows[:1], 3, rng).triples() == []
        assert len(rng.calls) == 1  # the coin flips; no entry draws

    def test_unknown_relation_skips(self):
        # A relation the KB does not store has seen no phrase in either slot.
        kb = KnowledgeBase([t("R", "a", "x"), t("R", "b", "y")])
        probe = id_rows(kb.ids, [t("S", "a", "x")])
        assert sample_slots(kb, probe, 5, np.random.default_rng(0)).triples() == []

    def test_out_of_kb_probe(self):
        kb = KnowledgeBase([t("R", "a", "x"), t("R", "b", "y"), t("R", "c", "z")])
        probe = t("R", "a", "y")
        for seed in range(10):
            draws = sample_slots(kb, id_rows(kb.ids, [probe]), 3, np.random.default_rng(seed))
            for out in draws.triples():
                assert not kb.contains(out)
                slot = changed_slot(out, probe)
                assert out.phrase(slot) in kb.slot_phrases("R", slot)
        # A phrase the KB does not store survives in the unflipped slot and
        # cannot be decoded, as in `sample_uniform`.
        draws = sample_slots(kb, id_rows(kb.ids, [t("R", "q", "w")]), 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="does not store"):
            draws.triples()

    def test_seeded_sequence_reproducible(self):
        kb = KnowledgeBase(
            [t("R", f"h{i}", f"t{j}") for i in range(3) for j in range(3) if i != j]
        )
        seq = lambda seed: sample_slots(kb, kb.ids.rows, 1, np.random.default_rng(seed)).rows
        np.testing.assert_array_equal(seq(5), seq(5))


def antonym_of(lexicon, positive, rng):
    """The antonym edit of a positive stored alone in its KB."""
    return sample_antonyms(lexicon, KnowledgeBase([positive]), positive, rng)


class TestSampleAntonyms:
    def lexicon(self):
        return AntonymLexicon(
            {
                "good": ("adjective", ["bad"]),
                "hot": ("adjective", ["cold", "cool"]),
                "rise": ("verb", ["fall"]),
            }
        )

    def test_single_lexicon_hit(self):
        lex = self.lexicon()
        positive = t("HasProperty", "good dog", "friendly")
        out = antonym_of(lex, positive, np.random.default_rng(0))
        assert out == t("HasProperty", "bad dog", "friendly", 0)

    def test_no_match_skips(self):
        lex = self.lexicon()
        positive = t("HasProperty", "quiet dog", "sleepy")
        assert antonym_of(lex, positive, np.random.default_rng(0)) is None

    def test_head_tried_before_tail(self):
        lex = self.lexicon()
        positive = t("HasProperty", "hot pan", "good tool")
        out = antonym_of(lex, positive, np.random.default_rng(0))
        assert out.tail == positive.tail
        assert out.head in (p("cold pan"), p("cool pan"))

    def test_tail_used_when_head_has_no_entry(self):
        lex = self.lexicon()
        positive = t("HasProperty", "stone wall", "good cover")
        out = antonym_of(lex, positive, np.random.default_rng(0))
        assert out == t("HasProperty", "stone wall", "bad cover", 0)

    def test_replacement_never_identity_and_covers_options(self):
        lex = self.lexicon()
        positive = t("HasProperty", "hot pan", "heavy")
        seen = set()
        rng = np.random.default_rng(2)
        for _ in range(50):
            out = antonym_of(lex, positive, rng)
            assert out.head.tokens[0] in ("cold", "cool")
            seen.add(out.head.tokens[0])
        assert seen == {"cold", "cool"}

    def test_first_matching_token_wins(self):
        lex = AntonymLexicon(
            {"hot": ("adjective", ["cold"]), "good": ("adjective", ["bad"])}
        )
        positive = t("HasProperty", "hot good soup", "cheap")
        out = antonym_of(lex, positive, np.random.default_rng(0))
        assert out.head == p("cold good soup")

    def test_in_kb_collisions_redrawn(self):
        lex = AntonymLexicon({"hot": ("adjective", ["cold", "cool"])})
        kb = KnowledgeBase([t("R", "hot tea", "nice"), t("R", "cold tea", "nice")])
        for seed in range(20):
            out = sample_antonyms(lex, kb, kb.triples[0], np.random.default_rng(seed))
            assert out == t("R", "cool tea", "nice", 0)

    def test_in_kb_exhaustion_skips(self):
        lex = AntonymLexicon({"hot": ("adjective", ["cold"])})
        kb = KnowledgeBase([t("R", "hot tea", "nice"), t("R", "cold tea", "nice")])
        assert sample_antonyms(lex, kb, kb.triples[0], np.random.default_rng(0)) is None

    def test_seeded_reproducible(self):
        lex = self.lexicon()
        positive = t("HasProperty", "hot pan", "heavy")
        draw = lambda seed: [
            antonym_of(lex, positive, np.random.default_rng(seed)) for _ in range(5)
        ]
        assert draw(9) == draw(9)


class TestSampleSans:
    def test_chain_two_hop_outputs(self):
        kb = chain_kb()
        graph = EntityGraph.from_kb(kb, 2)
        positive = kb.triples[0]  # (a, R, b)
        head_pool = {p("b"), p("c")}  # within 2 hops of a
        tail_pool = {p("a"), p("c"), p("d")}  # within 2 hops of b
        for seed in range(40):
            draws = sample_sans(graph, kb, kb.ids.rows[:1], 1, np.random.default_rng(seed))
            [out] = draws.triples()
            assert out.label == 0 and not kb.contains(out)
            if changed_slot(out, positive) == HEAD:
                assert out.head in head_pool
            else:
                assert out.tail in tail_pool

    def test_chain_one_hop_outputs(self):
        kb = chain_kb()
        graph = EntityGraph.from_kb(kb, 1)
        draw = lambda seed: sample_sans(graph, kb, kb.ids.rows[:1], 1, np.random.default_rng(seed))
        outs = {out for seed in range(40) for out in draw(seed).triples()}
        # nbhd(a, 1) = {b}; nbhd(b, 1) = {a, c}; (a,R,c) collides with nothing.
        assert outs == {t("R", "b", "b", 0), t("R", "a", "a", 0), t("R", "a", "c", 0)}

    def test_isolated_phrase_skips(self):
        kb = KnowledgeBase([t("R", "a", "a")])
        graph = EntityGraph.from_kb(kb, 2)
        rng = RecordingRng(0)
        assert sample_sans(graph, kb, kb.ids.rows[:1], 3, rng).triples() == []
        assert len(rng.calls) == 1  # the coin flips; no entry draws

    def test_hops_validated(self):
        with pytest.raises(ValueError, match="hops"):
            EntityGraph.from_kb(chain_kb(), 0)

    def test_in_kb_exhaustion_skips(self):
        # Every 1-hop swap of (a,R,b) is (b,R,b) or (a,R,a), both stored.
        kb = KnowledgeBase(
            [t("R", "a", "b"), t("R", "b", "a"), t("R", "a", "a"), t("R", "b", "b")]
        )
        graph = EntityGraph.from_kb(kb, 1)
        rng = RecordingRng(0)
        assert sample_sans(graph, kb, kb.ids.rows[:1], 4, rng).triples() == []
        assert len(rng.calls) == 1 + CORRUPT_RETRIES

    def test_seeded_reproducible(self):
        kb = chain_kb()
        graph = EntityGraph.from_kb(kb, 2)
        seq = lambda seed: sample_sans(graph, kb, kb.ids.rows, 1, np.random.default_rng(seed)).rows
        np.testing.assert_array_equal(seq(11), seq(11))
