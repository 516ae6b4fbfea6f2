"""The integer-id negative generators against reference implementations.

`reference_generate_candidates` is the object-level loop that
`generate_candidates` replaced: one `Phrase` substitution, slot check and
`kb.contains` per neighbor. The vectorized generator must return the same
list, element for element. Corruption draws, for training and for the
uniform sampler, are replayed from the values a recording generator handed
out and checked against `kb.contains`.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import corrupt

from negmine.candidates import Candidate, generate_candidates
from negmine.kb import HEAD, TAIL, KnowledgeBase, LabeledTriple, Phrase
from negmine.retrieval import build_index, knn
from negmine.samplers import sample_uniform
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


class RecordingRng:
    """A Generator stand-in that keeps every `integers` call's highs and draws."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def integers(self, high, size=None):
        draws = self.rng.integers(high, size=size)
        self.calls.append((np.array(high), np.array(draws)))
        return draws


def replay(kb, entries, calls):
    """Corruptions rebuilt from recorded draws, one (positive, mode) entry at a time.

    Returns the negatives and, per entry, how many of its draws collided
    with a stored positive.
    """
    relations = sorted(kb.relations)
    result = [None] * len(entries)
    collisions = [0] * len(entries)
    pending = list(range(len(entries)))
    for highs, draws in calls:
        assert len(highs) == len(pending)
        still = []
        for e, high, j in zip(pending, highs.tolist(), draws.tolist()):
            positive, mode = entries[e]
            if mode == "relation":
                pool, original = relations, positive.relation
            else:
                pool, original = list(kb.phrases), positive.phrase(HEAD if mode == "head" else TAIL)
            assert high == len(pool) - 1
            skip = pool.index(original)
            replacement = pool[j + 1 if j >= skip else j]
            if mode == "relation":
                neg = LabeledTriple(positive.head, replacement, positive.tail, 0)
            else:
                neg = positive.replace(HEAD if mode == "head" else TAIL, replacement, label=0)
            if kb.contains(neg):
                collisions[e] += 1
                still.append(e)
            else:
                result[e] = neg
        pending = still
    return [n for n in result if n is not None], collisions


def check_draw_contract(kb, entries, collisions, negatives):
    """Kept entries differ from their positive in exactly their mode's slot and
    are out-of-KB; an entry is skipped only after every retry collided.

    Returns the kept and skipped counts per mode.
    """
    kept = iter(negatives)
    per_mode = {m: 0 for m in CORRUPTION_MODES}
    skipped = {m: 0 for m in CORRUPTION_MODES}
    for (positive, entry_mode), n_collided in zip(entries, collisions):
        if n_collided == CORRUPT_RETRIES:
            skipped[entry_mode] += 1
            continue
        assert n_collided < CORRUPT_RETRIES
        neg = next(kept)
        per_mode[entry_mode] += 1
        assert neg.label == 0
        assert not kb.contains(neg)
        changed = {
            "head": neg.head != positive.head,
            "relation": neg.relation != positive.relation,
            "tail": neg.tail != positive.tail,
        }
        assert changed == {m: m == entry_mode for m in CORRUPTION_MODES}
    assert next(kept, None) is None
    return per_mode, skipped


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
                corruption_examples(kb, list(kb.triples), config, np.random.default_rng(seed))
            return
        rng = RecordingRng(seed)
        rows = corruption_examples(kb, list(kb.triples), config, rng)
        negatives = kb.ids.decode(rows)
        entries = [(p, m) for p in kb.triples for m in modes]
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
            expected, _ = replay(kb, [(kb.triples[0], mode)], rng.calls)
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
        entries = [(p, (HEAD, TAIL)[f]) for p, f in zip(positives, flips.tolist())]
        expected, collisions = replay(kb, entries, draws)
        assert negatives == expected
        assert len(draws) <= CORRUPT_RETRIES
        check_draw_contract(kb, entries, collisions, negatives)
