"""Checkpoint round trips must be bit-exact and timestamp-free."""
import numpy as np
import pytest
from conftest import rewrite_checkpoint_header

from negmine.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from negmine.kb import KnowledgeBase, LabeledTriple, Phrase
from negmine.scorer import ThresholdMap, TokenVocab, TrainConfig, init_params, train_contrastive


def trained_params():
    triples = []
    for i in range(3):
        for j in range(3):
            triples.append(LabeledTriple(Phrase.parse(f"a{i}"), "r", Phrase.parse(f"b{j}")))
            triples.append(LabeledTriple(Phrase.parse(f"c{i}"), "s", Phrase.parse(f"d{j}")))
    kb = KnowledgeBase(triples)
    params = init_params(TokenVocab.from_kb(kb), hidden_dim=8, seed=2)
    train_contrastive(params, kb, TrainConfig(epochs=3, seed=2))
    return params


class TestRoundTrip:
    def test_arrays_and_vocab_exact(self, tmp_path):
        params = trained_params()
        path = tmp_path / "model.ckpt"
        thresholds = ThresholdMap({"r": 0.6125, "s": 1.0 / 3.0}, fallback=0.5)
        save_checkpoint(path, params, thresholds)
        loaded, loaded_thresholds = load_checkpoint(path)
        assert loaded.vocab == params.vocab
        assert loaded.hidden_dim == params.hidden_dim
        assert loaded.b == params.b
        for name in ("emb", "ff_w", "ff_b", "w", "retrieval_emb"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(params, name))
        assert loaded_thresholds.per_relation == thresholds.per_relation
        assert loaded_thresholds.fallback == thresholds.fallback

    def test_save_load_save_byte_identical(self, tmp_path):
        params = trained_params()
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(first, params, ThresholdMap({"r": 0.4}, 0.5))
        loaded, thresholds = load_checkpoint(first)
        save_checkpoint(second, loaded, thresholds)
        assert first.read_bytes() == second.read_bytes()

    def test_missing_thresholds_roundtrip(self, tmp_path):
        params = trained_params()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        _, thresholds = load_checkpoint(path)
        assert thresholds is None

    def test_loaded_params_score_identically(self, tmp_path):
        from negmine.scorer import score

        params = trained_params()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        loaded, _ = load_checkpoint(path)
        triple = LabeledTriple(Phrase.parse("a0"), "r", Phrase.parse("b1"))
        assert score(loaded, triple) == score(params, triple)


class TestRejection:
    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError, match="not a scorer checkpoint"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        params = trained_params()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        data = bytearray(path.read_bytes())
        data[8] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_blob(self, tmp_path):
        params = trained_params()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(CheckpointError, match="truncated|trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["bias", "hidden_dim", "vocab", "arrays", "thresholds"])
    def test_header_missing_key(self, tmp_path, key):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, trained_params())
        rewrite_checkpoint_header(path, lambda header: header.pop(key))
        with pytest.raises(CheckpointError, match=f"lacks {key}"):
            load_checkpoint(path)

    def test_array_names_differ(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, trained_params())

        def swap_embedding_tables(header):
            # Same shapes, so only the name check can tell the tables apart.
            arrays = header["arrays"]
            arrays[0]["name"], arrays[-1]["name"] = arrays[-1]["name"], arrays[0]["name"]

        rewrite_checkpoint_header(path, swap_embedding_tables)
        with pytest.raises(CheckpointError, match=r"checkpoint arrays \[.*\] differ from"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["emb", "ff_w", "ff_b", "w"])
    def test_non_finite_weights(self, tmp_path, name):
        params = trained_params()
        getattr(params, name).flat[0] = float("nan")
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)
