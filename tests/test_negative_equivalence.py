"""The integer-id negative generators against reference implementations.

`reference_generate_candidates` is the object-level loop that
`generate_candidates` replaced: one `Phrase` substitution, slot check and
`kb.contains` per neighbor. The vectorized generator must return the same
list, element for element. `reference_within` is the `Phrase`-set BFS that
`EntityGraph.from_kb` replaced; the k-hop pools must hold the same phrases.
Corruption draws, for training and for the uniform, slot and k-hop
samplers, are replayed from the values a recording generator handed out,
over pools built here from the object API, and checked against
`kb.contains`.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import RecordingRng, corrupt

from negmine.candidates import Candidate, generate_candidates
from negmine.kb import HEAD, SLOTS, TAIL, KnowledgeBase, LabeledTriple, Phrase
from negmine.retrieval import build_index, knn
from negmine.samplers import EntityGraph, sample_sans, sample_slots, sample_uniform
from negmine.scorer import (
    CORRUPT_RETRIES,
    CORRUPTION_MODES,
    TrainConfig,
    corruption_examples,
)

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def reference_generate_candidates(kb, index, k):
    """Candidate generation one neighbor at a time, over `Phrase` objects."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    neighbor_cache = {}
    seen = set()
    out = []
    for positive in kb.triples:
        for slot in (HEAD, TAIL):
            original = positive.phrase(slot)
            neighbors = neighbor_cache.get(original)
            if neighbors is None:
                neighbors = knn(index, original, k)
                neighbor_cache[original] = neighbors
            allowed = kb.slot_phrases(positive.relation, slot)
            for rank, (replacement, _) in enumerate(neighbors, start=1):
                if replacement not in allowed:
                    continue
                triple = positive.replace(slot, replacement, label=0)
                if kb.contains(triple):
                    continue
                key = triple.key()
                if key in seen:
                    continue
                seen.add(key)
                out.append(Candidate(triple, positive, slot, rank))
    return out


def phrase(i):
    return Phrase((f"p{i}",))


@st.composite
def small_kbs(draw, max_phrases=8, max_relations=3):
    """Dense random KBs over few phrases, so phrases repeat across slots."""
    n_phrases = draw(st.integers(2, max_phrases))
    n_relations = draw(st.integers(1, max_relations))
    phrase_ids = st.integers(0, n_phrases - 1)
    cells = st.tuples(st.integers(0, n_relations - 1), phrase_ids, phrase_ids)
    keys = draw(st.lists(cells, min_size=1, max_size=30, unique=True))
    return KnowledgeBase(
        [LabeledTriple(phrase(h), f"r{r}", phrase(t)) for r, h, t in keys]
    )


@st.composite
def kbs_with_index(draw):
    kb = draw(small_kbs())
    extra = draw(st.integers(0, 4))
    # Extra non-KB phrases sit in the index and can be anyone's neighbor.
    phrases = list(kb.phrases) + [Phrase((f"x{i}",)) for i in range(extra)]
    order = draw(st.permutations(phrases))
    # Coarse 1-D embeddings make exact distance ties common.
    coords = draw(st.lists(st.integers(0, 3), min_size=len(order), max_size=len(order)))
    table = {p: np.array([float(c)]) for p, c in zip(order, coords)}
    index = build_index(order, lambda p: table[p])
    k = draw(st.integers(1, len(phrases) + 2))  # also k >= the phrase count
    return kb, index, k


class TestCandidatesEquivalence:
    @SETTINGS
    @given(kbs_with_index())
    def test_equals_reference_loop(self, case):
        kb, index, k = case
        assert generate_candidates(kb, index, k) == reference_generate_candidates(kb, index, k)

    def test_knn_called_once_per_kb_phrase_in_kb_order(self, monkeypatch):
        import negmine.candidates as candidates

        kb = KnowledgeBase(
            [LabeledTriple(phrase(a), "r", phrase(b)) for a, b in ((0, 1), (1, 2), (2, 0), (3, 1))]
        )
        index = build_index(list(kb.phrases), lambda p: np.array([float(p.text[1:])]))
        calls = []

        def recording_knn(index, query, k):
            calls.append(query)
            return knn(index, query, k)

        monkeypatch.setattr(candidates, "knn", recording_knn)
        generate_candidates(kb, index, 2)
        assert calls == list(kb.phrases)

    def test_kb_phrase_missing_from_index_raises(self):
        kb = KnowledgeBase([LabeledTriple(phrase(0), "r", phrase(1))])
        index = build_index([phrase(0), Phrase(("x",))], lambda p: np.zeros(2))
        with pytest.raises(ValueError, match="not in index"):
            generate_candidates(kb, index, 1)

    def test_block_boundaries_do_not_change_the_list(self, monkeypatch):
        import negmine.candidates as candidates

        rng = np.random.default_rng(3)
        cells = rng.integers((15, 3, 15), size=(80, 3))
        triples = [LabeledTriple(phrase(a), f"r{r}", phrase(b)) for a, r, b in cells]
        kb = KnowledgeBase(list(dict.fromkeys(triples)))
        table = {p: rng.normal(size=3) for p in kb.phrases}
        index = build_index(list(kb.phrases), lambda p: table[p])
        expected = reference_generate_candidates(kb, index, 5)
        monkeypatch.setattr(candidates, "_BLOCK_CELLS", 7)  # 1 positive per block
        assert generate_candidates(kb, index, 5) == expected


def reference_within(kb, phrase, hops):
    """Phrases 1..hops head-tail edges from `phrase`, itself excluded, sorted."""
    adjacency = {}
    for t in kb.triples:
        if t.head != t.tail:
            adjacency.setdefault(t.head, set()).add(t.tail)
            adjacency.setdefault(t.tail, set()).add(t.head)
    seen = {phrase}
    frontier = {phrase}
    reached = set()
    for _ in range(hops):
        frontier = {q for p in frontier for q in adjacency.get(p, ())} - seen
        if not frontier:
            break
        reached |= frontier
        seen |= frontier
    return sorted(reached)


def in_id_order(kb, phrases):
    return sorted(phrases, key=kb.phrase_positions.__getitem__)


def replay(kb, entries, calls):
    """Corruptions rebuilt from recorded draws, one (positive, mode, pool) entry at a time.

    An entry replaces its positive's `mode` field ("head", "relation" or
    "tail") by a draw over `pool` without the original, in pool order; with
    nothing left it draws nothing. Returns the negatives and, per entry, how
    many of its draws collided with a stored positive.
    """
    def choices(e):
        positive, mode, pool = entries[e]
        return [x for x in pool if x != getattr(positive, mode)]

    result = [None] * len(entries)
    collisions = [0] * len(entries)
    pending = [e for e in range(len(entries)) if choices(e)]
    for highs, draws in calls:
        assert len(highs) == len(pending)
        still = []
        for e, high, j in zip(pending, highs.tolist(), draws.tolist()):
            positive, mode, _ = entries[e]
            assert high == len(choices(e))
            neg = replace(positive, **{mode: choices(e)[j]}, label=0)
            if kb.contains(neg):
                collisions[e] += 1
                still.append(e)
            else:
                result[e] = neg
        pending = still
    return [n for n in result if n is not None], collisions


def check_draw_contract(kb, entries, collisions, negatives):
    """Kept entries differ from their positive in exactly their mode's slot,
    take the replacement from their pool, and are out-of-KB; an entry is
    skipped only when its pool holds nothing but the original, or after
    every retry collided.

    Returns the kept and skipped counts per mode.
    """
    kept = iter(negatives)
    per_mode = {m: 0 for m in CORRUPTION_MODES}
    skipped = {m: 0 for m in CORRUPTION_MODES}
    for (positive, entry_mode, pool), n_collided in zip(entries, collisions):
        original = getattr(positive, entry_mode)
        if not [x for x in pool if x != original] or n_collided == CORRUPT_RETRIES:
            skipped[entry_mode] += 1
            continue
        assert n_collided < CORRUPT_RETRIES
        neg = next(kept)
        per_mode[entry_mode] += 1
        assert neg.label == 0
        assert not kb.contains(neg)
        assert getattr(neg, entry_mode) in pool
        changed = {m: getattr(neg, m) != getattr(positive, m) for m in CORRUPTION_MODES}
        assert changed == {m: m == entry_mode for m in CORRUPTION_MODES}
    assert next(kept, None) is None
    return per_mode, skipped


def uniform_pool(kb, mode):
    return sorted(kb.relations) if mode == "relation" else list(kb.phrases)


@st.composite
def kbs_with_probes(draw):
    """A small KB and its positives plus triples over its own phrases and
    relations, some stored, some not."""
    kb = draw(small_kbs(max_phrases=5, max_relations=2))
    phrases = st.sampled_from(kb.phrases)
    cells = st.tuples(phrases, st.sampled_from(sorted(kb.relations)), phrases)
    probes = draw(st.lists(cells, max_size=6))
    return kb, list(kb.triples) + [LabeledTriple(h, r, t) for h, r, t in probes]


class TestCorruptionDraws:
    @SETTINGS
    @given(
        small_kbs(max_phrases=4, max_relations=2),
        st.integers(1, 5),
        st.sampled_from(CORRUPTION_MODES + ("cycle",)),
        st.integers(0, 2**32 - 1),
    )
    def test_rows_follow_the_draw_contract(self, kb, per_positive, mode, seed):
        config = TrainConfig(negatives_per_positive=per_positive, corruption_mode=mode)
        modes = config.modes()
        pool = {"head": len(kb.phrases), "relation": len(kb.relations), "tail": len(kb.phrases)}
        if any(pool[m] < 2 for m in modes):
            with pytest.raises(ValueError, match="too small"):
                corruption_examples(kb, kb.ids.encode(kb.triples), config, np.random.default_rng(seed))
            return
        rng = RecordingRng(seed)
        rows = corruption_examples(kb, kb.ids.encode(kb.triples), config, rng)
        negatives = kb.ids.decode(rows)
        entries = [(p, m, uniform_pool(kb, m)) for p in kb.triples for m in modes]
        expected, collisions = replay(kb, entries, rng.calls)
        assert negatives == expected
        assert len(rng.calls) <= CORRUPT_RETRIES
        per_mode, skipped = check_draw_contract(kb, entries, collisions, negatives)
        for m in CORRUPTION_MODES:
            assert per_mode[m] + skipped[m] == modes.count(m) * len(kb)

    @SETTINGS
    @given(small_kbs(max_phrases=4, max_relations=3), st.integers(0, 2**32 - 1))
    def test_corrupt_is_the_same_draw_for_one_positive(self, kb, seed):
        modes = (["head", "tail"] if len(kb.phrases) > 1 else []) + (
            ["relation"] if len(kb.relations) > 1 else []
        )
        for mode in modes:
            rng = RecordingRng(seed)
            neg = corrupt(kb, kb.triples[0], mode, rng)
            expected, _ = replay(kb, [(kb.triples[0], mode, uniform_pool(kb, mode))], rng.calls)
            assert ([neg] if neg is not None else []) == expected


class TestUniformDraws:
    @SETTINGS
    @given(small_kbs(max_phrases=4, max_relations=2), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_negatives_follow_the_draw_contract(self, kb, per_positive, seed):
        rng = RecordingRng(seed)
        negatives = sample_uniform(kb, list(kb.triples), per_positive, rng)
        if len(kb.phrases) < 2:
            assert negatives == [] and rng.calls == []
            return
        (flip_high, flips), *draws = rng.calls
        assert flip_high == 2 and len(flips) == per_positive * len(kb)
        # One coin flip per entry picks its slot, kept through every retry.
        positives = [p for p in kb.triples for _ in range(per_positive)]
        entries = [
            (p, SLOTS[f], uniform_pool(kb, SLOTS[f])) for p, f in zip(positives, flips.tolist())
        ]
        expected, collisions = replay(kb, entries, draws)
        assert negatives == expected
        assert len(draws) <= CORRUPT_RETRIES
        check_draw_contract(kb, entries, collisions, negatives)


def slot_pool(kb, relation, slot):
    return in_id_order(kb, kb.slot_phrases(relation, slot))


class TestSlotDraws:
    @SETTINGS
    @given(kbs_with_probes(), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_negatives_follow_the_draw_contract(self, case, per_positive, seed):
        kb, positives = case
        rng = RecordingRng(seed)
        negatives = sample_slots(kb, positives, per_positive, rng)
        (flip_high, flips), *draws = rng.calls
        assert flip_high == 2 and len(flips) == per_positive * len(positives)
        # The flipped slot, or the other one when the flipped pool holds
        # nothing but the original; kept through every retry.
        entries = []
        for p, f in zip([p for p in positives for _ in range(per_positive)], flips.tolist()):
            slot, other = SLOTS[f], SLOTS[1 - f]
            if not [q for q in slot_pool(kb, p.relation, slot) if q != p.phrase(slot)]:
                slot = other
            entries.append((p, slot, slot_pool(kb, p.relation, slot)))
        expected, collisions = replay(kb, entries, draws)
        assert negatives == expected
        assert len(draws) <= CORRUPT_RETRIES
        check_draw_contract(kb, entries, collisions, negatives)


class TestKHopDraws:
    @SETTINGS
    @given(small_kbs(), st.integers(1, 4))
    def test_pools_equal_the_reference_walk(self, kb, hops):
        graph = EntityGraph.from_kb(kb, hops)
        assert len(graph.offsets) == len(kb.phrases) + 1
        for i, phrase in enumerate(kb.phrases):
            members = graph.members[graph.offsets[i] : graph.offsets[i + 1]]
            assert [kb.phrases[j] for j in members] == in_id_order(
                kb, reference_within(kb, phrase, hops)
            )

    @SETTINGS
    @given(kbs_with_probes(), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_negatives_follow_the_draw_contract(self, case, hops, per_positive, seed):
        kb, positives = case
        rng = RecordingRng(seed)
        negatives = sample_sans(EntityGraph.from_kb(kb, hops), kb, positives, per_positive, rng)
        (flip_high, flips), *draws = rng.calls
        assert flip_high == 2 and len(flips) == per_positive * len(positives)
        entries = [
            (p, SLOTS[f], in_id_order(kb, reference_within(kb, p.phrase(SLOTS[f]), hops)))
            for p, f in zip([p for p in positives for _ in range(per_positive)], flips.tolist())
        ]
        expected, collisions = replay(kb, entries, draws)
        assert negatives == expected
        assert len(draws) <= CORRUPT_RETRIES
        check_draw_contract(kb, entries, collisions, negatives)
