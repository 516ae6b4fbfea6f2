"""Tests for the planted-rule corpus generator."""
import numpy as np
import pytest

from negmine.kb import KnowledgeBase, build_true_negative_split
from negmine.samplers import sample_antonyms
from negmine.synthetic import (
    QUALITIES,
    SyntheticSpec,
    cluster_pair,
    entity_phrase,
    generate_kb,
    generate_lexicon,
    quality_of,
    relation_name,
)

SMALL = SyntheticSpec(
    clusters=4, cluster_size=6, relations=8, density=0.8, negative_fraction=0.25, seed=3
)


class TestSpecValidation:
    def test_defaults_valid(self):
        spec = SyntheticSpec()
        assert spec.relations >= 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"clusters": 1},
            {"cluster_size": 0},
            {"cluster_size": 7},
            {"relations": 0},
            {"relations": 1000},
            {"density": 0.0},
            {"density": 1.5},
            {"negative_fraction": -0.1},
            {"negative_fraction": 0.9},
            {"phrase_tokens": 2},
            {"negation_prefix": ""},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticSpec(**kwargs)

    def test_negative_fraction_must_leave_training_data(self):
        with pytest.raises(ValueError, match="smaller than density"):
            SyntheticSpec(density=0.5, negative_fraction=0.5)


class TestClusterPair:
    def test_first_block_links_adjacent_clusters(self):
        spec = SyntheticSpec()
        for k in range(spec.clusters):
            a, b = cluster_pair(spec, k)
            assert (a, b) == (k, (k + 1) % spec.clusters)

    def test_pairs_always_distinct(self):
        spec = SyntheticSpec()
        for k in range(spec.relations):
            a, b = cluster_pair(spec, k)
            assert a != b

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            cluster_pair(SMALL, SMALL.relations)


class TestEntityPhrase:
    def test_token_layout(self):
        p = entity_phrase(SMALL, 2, 3)
        assert p.tokens == ("dull", "kind2", f"e{2 * 6 + 3}")

    def test_phrase_tokens_appends_cluster_traits(self):
        spec = SyntheticSpec(phrase_tokens=5)
        p = entity_phrase(spec, 2, 3)
        assert p.tokens[3:] == ("trait2x0", "trait2x1")
        assert len(entity_phrase(spec, 0, 0).tokens) == 5

    def test_qualities_alternate_evenly(self):
        qs = [quality_of(entity_phrase(SMALL, 0, i)) for i in range(SMALL.cluster_size)]
        assert qs.count(QUALITIES[0]) == qs.count(QUALITIES[1])

    def test_unique_across_clusters(self):
        phrases = {
            entity_phrase(SMALL, c, i)
            for c in range(SMALL.clusters)
            for i in range(SMALL.cluster_size)
        }
        assert len(phrases) == SMALL.clusters * SMALL.cluster_size

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            entity_phrase(SMALL, SMALL.clusters, 0)
        with pytest.raises(ValueError):
            entity_phrase(SMALL, 0, SMALL.cluster_size)


class TestGenerateKb:
    def test_exact_counts(self):
        # Per relation: 18 quality-agreeing pairs and 18 disagreeing ones.
        kb = generate_kb(SMALL)
        n_pos = int(round(0.8 * 18))
        n_neg = int(round(0.25 * 18))
        by_rel: dict[str, int] = {}
        for t in kb.triples:
            by_rel[t.relation] = by_rel.get(t.relation, 0) + 1
        for k in range(SMALL.relations):
            assert by_rel[relation_name(SMALL, k)] == n_pos
            assert by_rel[relation_name(SMALL, k, negated=True)] == n_neg
        assert len(kb) == SMALL.relations * (n_pos + n_neg)

    def test_relation_inventory(self):
        kb = generate_kb(SMALL)
        expected = {f"rel{k}" for k in range(8)} | {f"Notrel{k}" for k in range(8)}
        assert set(kb.relations) == expected

    def test_positives_satisfy_planted_rule(self):
        kb = generate_kb(SMALL)
        for t in kb.triples:
            negated = t.relation.startswith(SMALL.negation_prefix)
            k = int(t.relation.removeprefix(SMALL.negation_prefix).removeprefix("rel"))
            a, b = cluster_pair(SMALL, k)
            assert t.head.tokens[1] == f"kind{a}"
            assert t.tail.tokens[1] == f"kind{b}"
            agree = quality_of(t.head) == quality_of(t.tail)
            assert agree != negated

    def test_all_labels_positive(self):
        # Negated statements are stored facts; the split rewrite flips them.
        kb = generate_kb(SMALL)
        assert all(t.label == 1 for t in kb.triples)

    def test_deterministic(self):
        assert generate_kb(SMALL).triples == generate_kb(SMALL).triples

    def test_seed_changes_sample(self):
        other = SyntheticSpec(
            clusters=4, cluster_size=6, relations=8, density=0.8,
            negative_fraction=0.25, seed=4,
        )
        a = {t.key() for t in generate_kb(SMALL).triples}
        b = {t.key() for t in generate_kb(other).triples}
        assert a != b

    def test_full_density_stores_every_true_pair(self):
        spec = SyntheticSpec(
            clusters=3, cluster_size=4, relations=3, density=1.0,
            negative_fraction=0.5, seed=0,
        )
        kb = generate_kb(spec)
        per_rel = spec.cluster_size**2 // 2
        assert sum(not t.relation.startswith("Not") for t in kb.triples) == 3 * per_rel

    def test_default_scale(self):
        kb = generate_kb(SyntheticSpec())
        positives = sum(not t.relation.startswith("Not") for t in kb.triples)
        base_relations = {r for r in kb.relations if not r.startswith("Not")}
        assert positives >= 3000
        assert len(base_relations) >= 10


class TestSplitCompatibility:
    def test_split_balances_each_relation(self):
        kb = generate_kb(SMALL)
        split = build_true_negative_split(kb, seed=0)
        splits = split.splits
        n_neg = int(round(0.25 * 18))
        for part in (splits.validation, splits.test):
            by_rel_label: dict[tuple[str, int], int] = {}
            for t in part:
                key = (t.relation, t.label)
                by_rel_label[key] = by_rel_label.get(key, 0) + 1
            for k in range(SMALL.relations):
                rel = relation_name(SMALL, k)
                assert by_rel_label[(rel, 0)] == by_rel_label[(rel, 1)] == n_neg // 2
        assert len(splits.train) == SMALL.relations * (14 - n_neg)

    def test_eval_negatives_break_the_rule(self):
        split = build_true_negative_split(generate_kb(SMALL), seed=0)
        for t in split.splits.validation + split.splits.test:
            agree = quality_of(t.head) == quality_of(t.tail)
            assert agree == (t.label == 1)


class TestLexicon:
    def test_quality_antonyms(self):
        lex = generate_lexicon()
        assert lex.antonyms("bright") == ("dull",)
        assert lex.antonyms("dull") == ("bright",)
        assert lex.pos_class("bright") == "adjective"

    def test_antonym_sampler_flips_quality(self):
        kb = generate_kb(SMALL)
        lex = generate_lexicon()
        rng = np.random.default_rng(0)
        pos = kb.triples[0]
        neg = sample_antonyms(lex, kb, pos, rng)
        assert neg is not None and neg.label == 0
        # The head quality flips, producing a rule-violating statement.
        assert quality_of(neg.head) != quality_of(pos.head)
        assert quality_of(neg.head) != quality_of(neg.tail)
        assert not kb.contains(neg)
