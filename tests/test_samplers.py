"""Baseline negative samplers: lexicon, phrase graph, and draw contracts."""
import numpy as np
import pytest
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


class ScriptedRng:
    """Stand-in generator returning scripted integers() draws, then zeros."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.calls = []

    def integers(self, bound):
        self.calls.append(int(bound))
        return self.draws.pop(0) if self.draws else 0


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


class TestEntityGraph:
    def test_chain_neighborhoods(self):
        g = EntityGraph.from_kb(chain_kb())
        assert g.within(p("a"), 2) == [p("b"), p("c")]
        assert g.within(p("a"), 1) == [p("b")]
        assert g.within(p("b"), 1) == [p("a"), p("c")]
        assert g.within(p("a"), 3) == [p("b"), p("c"), p("d")]
        assert g.within(p("a"), 10) == [p("b"), p("c"), p("d")]

    def test_symmetry(self):
        g = EntityGraph.from_kb(chain_kb())
        for phrase, neighbors in g.adjacency.items():
            for other in neighbors:
                assert phrase in g.adjacency[other]

    def test_self_loops_dropped(self):
        g = EntityGraph.from_kb(KnowledgeBase([t("R", "a", "a"), t("R", "a", "b")]))
        assert g.neighbors(p("a")) == frozenset({p("b")})

    def test_isolated_phrase_empty(self):
        g = EntityGraph.from_kb(KnowledgeBase([t("R", "a", "a")]))
        assert g.within(p("a"), 2) == []

    def test_unknown_phrase_empty(self):
        g = EntityGraph.from_kb(chain_kb())
        assert g.within(p("zzz"), 2) == []

    def test_hops_validated(self):
        g = EntityGraph.from_kb(chain_kb())
        with pytest.raises(ValueError, match="hops"):
            g.within(p("a"), 0)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="self-loop"):
            EntityGraph({p("a"): frozenset({p("a")})})
        with pytest.raises(ValueError, match="asymmetric"):
            EntityGraph({p("a"): frozenset({p("b")}), p("b"): frozenset()})


class TestSampleUniform:
    def test_differs_in_exactly_one_slot(self):
        kb = KnowledgeBase([t("R", f"h{i}", f"t{i}") for i in range(5)])
        outs = sample_uniform(kb, [kb.triples[0]], 200, np.random.default_rng(0))
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
            [out] = sample_uniform(kb, [positive], 1, np.random.default_rng(seed))
            assert out in (t("R", "q", "p", 0), t("R", "p", "q", 0))
            if out.head != positive.head:
                assert out == t("R", "q", "p", 0)

    def test_replacement_frequencies_near_uniform(self):
        # 5 disjoint positives over 10 phrases; no corruption is ever in-KB.
        kb = KnowledgeBase([t("R", f"p{2 * i}", f"p{2 * i + 1}") for i in range(5)])
        positive = kb.triples[0]
        counts: dict = {phrase: 0 for phrase in kb.phrases}
        n = 10_000
        for out in sample_uniform(kb, [positive], n, np.random.default_rng(7)):
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
        assert sample_uniform(kb, [kb.triples[0]], 1, np.random.default_rng(0)) == []

    def test_skips_single_phrase_vocabulary(self):
        kb = KnowledgeBase([t("R", "p", "p")])
        assert sample_uniform(kb, list(kb.triples), 3, np.random.default_rng(0)) == []

    def test_seeded_sequence_reproducible(self):
        kb = KnowledgeBase([t("R", f"h{i}", f"t{i}") for i in range(4)])
        seq = lambda seed: sample_uniform(kb, list(kb.triples), 1, np.random.default_rng(seed))
        assert seq(3) == seq(3)
        assert seq(3) != seq(4)


class TestSampleSlots:
    def test_single_valid_head_draw(self):
        kb = KnowledgeBase([t("R", "a", "x"), t("R", "c", "y")])
        positive = kb.triples[0]
        outs = {sample_slots(kb, positive, np.random.default_rng(s)) for s in range(30)}
        assert outs == {t("R", "c", "x", 0), t("R", "a", "y", 0)}

    def test_replacement_stays_in_slot_pool(self):
        rng = np.random.default_rng(1)
        kb = KnowledgeBase(
            [t("R", f"h{i}", f"t{j}") for i in range(4) for j in range(4) if (i + j) % 2]
        )
        for positive in kb.triples:
            for _ in range(20):
                out = sample_slots(kb, positive, rng)
                if out is None:
                    continue
                assert out.label == 0 and not kb.contains(out)
                slot = HEAD if out.head != positive.head else TAIL
                assert out.phrase(slot) in kb.slot_phrases(positive.relation, slot)

    def test_empty_head_pool_attempts_tail(self):
        # Sole R-head: every tail swap stays in-KB, so the sampler must spend
        # its whole budget drawing from the tail pool before skipping.
        kb = KnowledgeBase([t("R", "a", "x"), t("R", "a", "y")])
        rng = ScriptedRng([])
        assert sample_slots(kb, kb.triples[0], rng) is None
        assert len(rng.calls) == 2 * CORRUPT_RETRIES
        assert all(bound == 2 or bound == 1 for bound in rng.calls)
        # Every draw call (bound 1) targets the singleton tail pool {y}.
        assert rng.calls.count(1) == CORRUPT_RETRIES

    def test_both_pools_empty_skips(self):
        kb = KnowledgeBase([t("R", "a", "x")])
        assert sample_slots(kb, kb.triples[0], np.random.default_rng(0)) is None

    def test_out_of_kb_probe(self):
        kb = KnowledgeBase([t("R", "a", "x"), t("R", "b", "y")])
        probe = t("R", "c", "z")
        for seed in range(10):
            out = sample_slots(kb, probe, np.random.default_rng(seed))
            assert out is not None and not kb.contains(out)
            slot = HEAD if out.head != probe.head else TAIL
            assert out.phrase(slot) in kb.slot_phrases("R", slot)

    def test_seeded_sequence_reproducible(self):
        kb = KnowledgeBase(
            [t("R", f"h{i}", f"t{j}") for i in range(3) for j in range(3) if i != j]
        )
        seq = lambda seed: [
            sample_slots(kb, pos, np.random.default_rng(seed)) for pos in kb.triples
        ]
        assert seq(5) == seq(5)


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
        out = sample_antonyms(lex, positive, None, np.random.default_rng(0))
        assert out == t("HasProperty", "bad dog", "friendly", 0)

    def test_no_match_skips(self):
        lex = self.lexicon()
        positive = t("HasProperty", "quiet dog", "sleepy")
        assert sample_antonyms(lex, positive, None, np.random.default_rng(0)) is None

    def test_head_tried_before_tail(self):
        lex = self.lexicon()
        positive = t("HasProperty", "hot pan", "good tool")
        out = sample_antonyms(lex, positive, None, np.random.default_rng(0))
        assert out.tail == positive.tail
        assert out.head in (p("cold pan"), p("cool pan"))

    def test_tail_used_when_head_has_no_entry(self):
        lex = self.lexicon()
        positive = t("HasProperty", "stone wall", "good cover")
        out = sample_antonyms(lex, positive, None, np.random.default_rng(0))
        assert out == t("HasProperty", "stone wall", "bad cover", 0)

    def test_replacement_never_identity_and_covers_options(self):
        lex = self.lexicon()
        positive = t("HasProperty", "hot pan", "heavy")
        seen = set()
        rng = np.random.default_rng(2)
        for _ in range(50):
            out = sample_antonyms(lex, positive, None, rng)
            assert out.head.tokens[0] in ("cold", "cool")
            seen.add(out.head.tokens[0])
        assert seen == {"cold", "cool"}

    def test_phrase_class_gates_replacement_site(self):
        # Head's first tagged token is an adjective with no entry, so its
        # nouns are not eligible; the tail's verb is replaced instead.
        lex = AntonymLexicon(
            {"car": ("noun", ["bus"]), "rise": ("verb", ["fall"])}
        )
        tags = {"fast": "adjective", "car": "noun", "rise": "verb"}.get
        positive = t("CapableOf", "fast car", "rise")
        out = sample_antonyms(lex, positive, tags, np.random.default_rng(0))
        assert out == t("CapableOf", "fast car", "fall", 0)

    def test_first_matching_token_wins(self):
        lex = AntonymLexicon(
            {"hot": ("adjective", ["cold"]), "good": ("adjective", ["bad"])}
        )
        positive = t("HasProperty", "hot good soup", "cheap")
        out = sample_antonyms(lex, positive, None, np.random.default_rng(0))
        assert out.head == p("cold good soup")

    def test_in_kb_collisions_redrawn(self):
        lex = AntonymLexicon({"hot": ("adjective", ["cold", "cool"])})
        kb = KnowledgeBase([t("R", "hot tea", "nice"), t("R", "cold tea", "nice")])
        for seed in range(20):
            out = sample_antonyms(lex, kb.triples[0], None, np.random.default_rng(seed), kb=kb)
            assert out == t("R", "cool tea", "nice", 0)

    def test_in_kb_exhaustion_skips(self):
        lex = AntonymLexicon({"hot": ("adjective", ["cold"])})
        kb = KnowledgeBase([t("R", "hot tea", "nice"), t("R", "cold tea", "nice")])
        assert sample_antonyms(lex, kb.triples[0], None, np.random.default_rng(0), kb=kb) is None

    def test_seeded_reproducible(self):
        lex = self.lexicon()
        positive = t("HasProperty", "hot pan", "heavy")
        draw = lambda seed: [
            sample_antonyms(lex, positive, None, np.random.default_rng(seed)) for _ in range(5)
        ]
        assert draw(9) == draw(9)


class TestSampleSans:
    def test_chain_two_hop_outputs(self):
        kb = chain_kb()
        graph = EntityGraph.from_kb(kb)
        positive = kb.triples[0]  # (a, R, b)
        head_pool = {p("b"), p("c")}  # within 2 hops of a
        tail_pool = {p("a"), p("c"), p("d")}  # within 2 hops of b
        for seed in range(40):
            out = sample_sans(graph, kb, positive, 2, np.random.default_rng(seed))
            assert out is not None and out.label == 0 and not kb.contains(out)
            if out.head != positive.head:
                assert out.head in head_pool
            else:
                assert out.tail in tail_pool

    def test_chain_one_hop_outputs(self):
        kb = chain_kb()
        graph = EntityGraph.from_kb(kb)
        positive = kb.triples[0]
        outs = {
            sample_sans(graph, kb, positive, 1, np.random.default_rng(seed))
            for seed in range(40)
        }
        # nbhd(a, 1) = {b}; nbhd(b, 1) = {a, c}; (a,R,c) collides with nothing.
        assert outs == {t("R", "b", "b", 0), t("R", "a", "a", 0), t("R", "a", "c", 0)}

    def test_isolated_phrase_skips(self):
        kb = KnowledgeBase([t("R", "a", "a")])
        graph = EntityGraph.from_kb(kb)
        assert sample_sans(graph, kb, kb.triples[0], 2, np.random.default_rng(0)) is None

    def test_hops_validated(self):
        kb = chain_kb()
        graph = EntityGraph.from_kb(kb)
        with pytest.raises(ValueError, match="hops"):
            sample_sans(graph, kb, kb.triples[0], 0, np.random.default_rng(0))

    def test_in_kb_exhaustion_skips(self):
        # Every 1-hop swap of (a,R,b) is (b,R,b) or (a,R,a), both stored.
        kb = KnowledgeBase(
            [t("R", "a", "b"), t("R", "b", "a"), t("R", "a", "a"), t("R", "b", "b")]
        )
        graph = EntityGraph.from_kb(kb)
        assert sample_sans(graph, kb, kb.triples[0], 1, np.random.default_rng(0)) is None

    def test_seeded_reproducible(self):
        kb = chain_kb()
        graph = EntityGraph.from_kb(kb)
        seq = lambda seed: [
            sample_sans(graph, kb, pos, 2, np.random.default_rng(seed)) for pos in kb.triples
        ]
        assert seq(11) == seq(11)
