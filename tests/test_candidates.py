"""Candidate generation: filter chain, ordering, dedup, and validation."""
import numpy as np
import pytest
from conftest import candidate_table, reference_generate_candidates

from negmine.candidates import (
    Candidate,
    CandidateTable,
    generate_candidates,
    read_candidates_tsv,
    validate_candidates,
    write_candidates_tsv,
)
from negmine.kb import HEAD, TAIL, KnowledgeBase, LabeledTriple, Phrase
from negmine.retrieval import build_index


def t(rel, head, tail, label=1):
    return LabeledTriple(Phrase.parse(head), rel, Phrase.parse(tail), label)


def line_embed(order):
    """1-D embeddings along a line, nearest neighbors are list neighbors."""
    table = {p: np.array([float(i)]) for i, p in enumerate(order)}
    return lambda p: table[p]


class TestGenerate:
    def test_in_kb_removal_spec_example(self):
        # a and c are mutual nearest neighbors; substituting c for a in
        # (a, R, b) reproduces the stored (c, R, b) and must be dropped.
        kb = KnowledgeBase([t("R", "a", "b"), t("R", "c", "b")])
        index = build_index(list(kb.phrases), line_embed([Phrase.parse("a"), Phrase.parse("c"), Phrase.parse("b")]))
        out = generate_candidates(kb, index, 1)
        head_from_a = [c for c in out if c.source == kb.triples[0] and c.slot == HEAD]
        assert head_from_a == []

    def test_slot_filter(self):
        # q is s's nearest neighbor but never appears in R's head slot.
        kb = KnowledgeBase([t("R", "s", "b"), t("S", "q", "b")])
        order = [Phrase.parse(x) for x in ("s", "q", "b")]
        index = build_index(list(kb.phrases), line_embed(order))
        out = generate_candidates(kb, index, 1)
        assert all(c.triple.head != Phrase.parse("q") or c.triple.relation != "R" for c in out)

    def test_substitutions_hit_both_slots_in_order(self):
        # Two positives sharing relation R so slot membership admits swaps.
        kb = KnowledgeBase([t("R", "a", "b"), t("R", "c", "d")])
        order = [Phrase.parse(x) for x in ("a", "c", "b", "d")]
        index = build_index(list(kb.phrases), line_embed(order))
        out = generate_candidates(kb, index, 3)
        # Deterministic order: positives in KB order, head before tail.
        sources = [(c.source.head.text, c.slot) for c in out]
        assert sources == sorted(
            sources, key=lambda s: (["a", "c"].index(s[0]), [HEAD, TAIL].index(s[1]))
        )
        for c in out:
            assert not kb.contains(c.triple)
            assert c.triple.phrase(c.slot) in kb.slot_phrases(c.triple.relation, c.slot)
            other = TAIL if c.slot == HEAD else HEAD
            assert c.triple.phrase(other) == c.source.phrase(other)

    def test_neighbor_rank_ascending_within_slot(self):
        kb = KnowledgeBase([t("R", "a", "x"), t("R", "b", "x"), t("R", "c", "x"), t("R", "d", "x")])
        order = [Phrase.parse(s) for s in ("a", "b", "c", "d", "x")]
        index = build_index(list(kb.phrases), line_embed(order))
        out = generate_candidates(kb, index, 3)
        for source in kb.triples:
            ranks = [c.neighbor_rank for c in out if c.source == source and c.slot == HEAD]
            assert ranks == sorted(ranks)

    def test_global_dedup_keeps_first(self):
        # (a,R,b) and (c,R,b) both propose (d,R,b) via head substitution.
        kb = KnowledgeBase([t("R", "a", "b"), t("R", "c", "b"), t("R", "d", "e")])
        order = [Phrase.parse(s) for s in ("a", "d", "c", "b", "e")]
        index = build_index(list(kb.phrases), line_embed(order))
        out = generate_candidates(kb, index, 2)
        d_head = [c for c in out if c.triple == t("R", "d", "b", 0)]
        assert len(d_head) == 1
        assert d_head[0].source == kb.triples[0]  # first occurrence wins

    def test_at_most_2k_per_positive(self):
        rng = np.random.default_rng(0)
        triples = [t("R", f"h{i}", f"u{rng.integers(20)}") for i in range(20)]
        kb = KnowledgeBase(list(dict.fromkeys(triples)))
        table = {p: rng.normal(size=4) for p in kb.phrases}
        index = build_index(list(kb.phrases), lambda p: table[p])
        k = 3
        out = generate_candidates(kb, index, k)
        per_source: dict = {}
        for c in out:
            per_source[c.source.key()] = per_source.get(c.source.key(), 0) + 1
        assert all(n <= 2 * k for n in per_source.values())

    def test_regeneration_identical(self):
        rng = np.random.default_rng(5)
        triples = list(dict.fromkeys(t("R", f"h{rng.integers(12)}", f"u{rng.integers(12)}") for _ in range(30)))
        kb = KnowledgeBase(triples)
        table = {p: rng.normal(size=4) for p in kb.phrases}
        index = build_index(list(kb.phrases), lambda p: table[p])
        assert list(generate_candidates(kb, index, 4)) == list(generate_candidates(kb, index, 4))

    def test_unstored_neighbor_does_not_read_the_last_slot_cell(self):
        # x is only in the index: a's nearest neighbor, so head neighbor id -1
        # under relation R0 (id 0). pack_slot(0, head, -1) is -1, the slot
        # table's last cell (tail of R1, the last relation, holding z, the
        # last phrase), which is set.
        kb = KnowledgeBase([t("R0", "a", "b"), t("R1", "c", "z")])
        ids = kb.ids
        assert ids.pack_slot(0, 0, -1) == -1
        assert ids.slot_keys[-1] == 2 * len(ids.relations) * ids.n_phrases - 1
        order = [Phrase.parse(s) for s in ("a", "x", "b", "c", "z")]
        index = build_index(order, line_embed(order))
        out = generate_candidates(kb, index, 1)
        assert (out.rows >= 0).all()
        assert list(out) == reference_generate_candidates(kb, index, 1)

    def test_k_floor(self):
        kb = KnowledgeBase([t("R", "a", "b")])
        index = build_index(list(kb.phrases), line_embed(list(kb.phrases)))
        with pytest.raises(ValueError):
            generate_candidates(kb, index, 0)


class TestValidate:
    def _setup(self):
        rng = np.random.default_rng(9)
        triples = list(dict.fromkeys(t("R", f"h{rng.integers(10)}", f"u{rng.integers(10)}") for _ in range(25)))
        kb = KnowledgeBase(triples)
        table = {p: rng.normal(size=3) for p in kb.phrases}
        index = build_index(list(kb.phrases), lambda p: table[p])
        return kb, generate_candidates(kb, index, 3)

    def test_generator_output_clean(self):
        kb, out = self._setup()
        report = validate_candidates(kb, out, k=3)
        assert report.ok()
        assert report.total() == 0

    def test_detects_injected_leak(self):
        kb, out = self._setup()
        leak = Candidate(kb.triples[0], kb.triples[1], HEAD, 1)
        report = validate_candidates(kb, list(out) + [leak], k=3)
        assert report.in_kb_leaks == 1

    def test_detects_duplicate(self):
        kb, out = self._setup()
        report = validate_candidates(kb, list(out) + [out[0]], k=3)
        assert report.duplicates == 1

    def test_detects_slot_violation(self):
        kb, out = self._setup()
        bad = Candidate(t("R", "zzz", "u1", 0), kb.triples[0], HEAD, 1)
        report = validate_candidates(kb, list(out) + [bad], k=3)
        assert report.slot_violations == 1

    def test_detects_overflow(self):
        kb, _ = self._setup()
        src = kb.triples[0]
        fabricated = [
            Candidate(t("R", f"fab{i}", src.tail.text, 0), src, HEAD, 1) for i in range(5)
        ]
        report = validate_candidates(kb, fabricated, k=1)
        assert report.overflow_positives == 1


class TestCandidateTsv:
    def test_roundtrip(self, tmp_path):
        kb = KnowledgeBase([t("R", "a", "b"), t("R", "c", "b"), t("R", "d", "e")])
        order = [Phrase.parse(s) for s in ("a", "d", "c", "b", "e")]
        index = build_index(list(kb.phrases), line_embed(order))
        out = generate_candidates(kb, index, 2)
        assert out, "setup should produce candidates"
        path = tmp_path / "cands.tsv"
        write_candidates_tsv(out, path)
        assert list(read_candidates_tsv(path)) == list(out)

    def test_layout(self, tmp_path):
        cand = Candidate(t("R", "x y", "b", 0), t("R", "a", "b"), HEAD, 2)
        path = tmp_path / "cands.tsv"
        write_candidates_tsv(candidate_table([cand]), path)
        assert path.read_text() == "R\tx y\tb\ta\tb\thead\t2\n"

    def test_empty_table_round_trips_through_an_empty_file(self, tmp_path):
        path = tmp_path / "cands.tsv"
        write_candidates_tsv(candidate_table([]), path)
        assert path.read_bytes() == b""
        assert list(read_candidates_tsv(path)) == []

    def test_rewrite_byte_identical(self, tmp_path):
        cand = Candidate(t("R", "x", "b", 0), t("R", "a", "b"), TAIL, 1)
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_candidates_tsv(candidate_table([cand]), a)
        write_candidates_tsv(candidate_table([cand]), b)
        assert a.read_bytes() == b.read_bytes()

    def test_repeated_triple_rejected(self, tmp_path):
        path = tmp_path / "cands.tsv"
        path.write_text(
            "R\tx\tb\ta\tb\thead\t1\n"
            "R\ta\ty\ta\tb\ttail\t1\n"
            "R\tX\tb\ta\tc\thead\t2\n",
            encoding="utf-8",
        )
        from negmine.kb import ParseError

        with pytest.raises(ParseError, match="cands\\.tsv:3: duplicate candidate triple"):
            read_candidates_tsv(path)

    def test_iteration_decodes_every_row_once(self, tmp_path, monkeypatch):
        kb = KnowledgeBase([t("R", "a", "b"), t("R", "c", "b"), t("R", "d", "e")])
        order = [Phrase.parse(s) for s in ("a", "d", "c", "b", "e")]
        index = build_index(list(kb.phrases), line_embed(order))
        path = tmp_path / "cands.tsv"
        write_candidates_tsv(generate_candidates(kb, index, 2), path)
        for table in (generate_candidates(kb, index, 2), read_candidates_tsv(path)):
            assert len(table) > 1
            assert list(table) == [table[i] for i in range(len(table))]
            calls = []
            triples = CandidateTable.triples
            monkeypatch.setattr(
                CandidateTable, "triples", lambda self, *a: calls.append(a) or triples(self, *a)
            )
            list(table)
            monkeypatch.undo()
            assert len(calls) == 1

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("R\ta\tb\tc\n")
        from negmine.kb import ParseError

        with pytest.raises(ParseError, match="bad\\.tsv:1"):
            read_candidates_tsv(path)
