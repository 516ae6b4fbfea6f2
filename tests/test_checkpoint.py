"""Checkpoint round trips must be bit-exact and timestamp-free."""
import json
import math

import numpy as np
import pytest
from conftest import rewrite_checkpoint_header, score
from hypothesis import HealthCheck, given, settings, strategies as st

from negmine.checkpoint import MAGIC, VERSION, CheckpointError, load_checkpoint, save_checkpoint
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
        for name in ("emb", "ff_w", "ff_b", "w"):
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

        def swap_bias_and_head(header):
            # Same shapes, so only the name check can tell ff_b and w apart.
            arrays = header["arrays"]
            arrays[2]["name"], arrays[3]["name"] = arrays[3]["name"], arrays[2]["name"]

        rewrite_checkpoint_header(path, swap_bias_and_head)
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

    def test_header_nested_too_deep(self, tmp_path):
        header = b"[" * 100_000 + b"]" * 100_000
        path = tmp_path / "m.ckpt"
        path.write_bytes(checkpoint_bytes(header, b""))
        with pytest.raises(CheckpointError, match="corrupt checkpoint header"):
            load_checkpoint(path)

    def test_non_numeric_threshold(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, trained_params(), ThresholdMap({"r": 0.5}))
        rewrite_checkpoint_header(
            path, lambda header: header["thresholds"]["per_relation"].update(r="high")
        )
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "name,shape",
        [("emb", []), ("emb", [3]), ("emb", [-1, 2]), ("ff_w", [4]), ("ff_b", [2, 2]), ("w", [])],
    )
    def test_bad_array_shape(self, tmp_path, name, shape):
        # Blobs sized to the shapes, so only the shape check can reject them.
        shapes = {"emb": [3, 2], "ff_w": [2, 2], "ff_b": [2], "w": [2], name: shape}
        path = tmp_path / "m.ckpt"
        path.write_bytes(sized_checkpoint(shapes, words=["a", "b"]))
        with pytest.raises(CheckpointError, match=f"array {name} has bad shape"):
            load_checkpoint(path)


def checkpoint_bytes(header: bytes, blobs: bytes) -> bytes:
    return MAGIC + np.uint32(VERSION).tobytes() + np.uint64(len(header)).tobytes() + header + blobs


def sized_checkpoint(shapes: dict, words: list, fill: float = 0.0) -> bytes:
    """A checkpoint whose blobs are exactly as long as `shapes` say."""
    header = {
        "hidden_dim": 2,
        "bias": 0.0,
        "vocab": {"relations": ["r"], "words": words},
        "arrays": [{"name": name, "shape": shape} for name, shape in shapes.items()],
        "thresholds": None,
    }
    blobs = b"".join(np.full(max(math.prod(s), 0), fill).tobytes() for s in shapes.values())
    return checkpoint_bytes(json.dumps(header).encode("utf-8"), blobs)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
SHAPE = st.lists(st.integers(-2, 4) | st.floats() | JSON, max_size=3)
# Headers with every key a checkpoint needs, each holding either a plausible
# value or any JSON value.
HEADERS = st.fixed_dictionaries(
    {
        "hidden_dim": st.integers(-1, 4) | JSON,
        "bias": st.floats() | st.integers() | JSON,
        "vocab": st.fixed_dictionaries(
            {"relations": st.lists(st.text(max_size=2) | JSON, max_size=3),
             "words": st.lists(st.text(max_size=2) | JSON, max_size=3)}
        ) | JSON,
        "arrays": st.lists(
            st.fixed_dictionaries(
                {"name": st.sampled_from(["emb", "ff_w", "ff_b", "w"]) | JSON, "shape": SHAPE}
            ),
            max_size=5,
        ) | JSON,
        "thresholds": st.none() | st.fixed_dictionaries(
            {"per_relation": st.dictionaries(st.text(max_size=2), st.floats() | JSON, max_size=2),
             "fallback": st.floats() | JSON}
        ) | JSON,
    }
)
SMALL_PARAMS = init_params(TokenVocab(["r"], ["a", "b"]), hidden_dim=2, seed=0)
FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestFuzz:
    """Whatever the bytes, loading returns a checkpoint or raises CheckpointError."""

    def load(self, path, data: bytes) -> None:
        path.write_bytes(data)
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass

    @FUZZ
    @given(data=st.binary(max_size=200))
    def test_arbitrary_bytes(self, tmp_path, data):
        self.load(tmp_path / "m.ckpt", data)

    @FUZZ
    @given(header=HEADERS | JSON, blobs=st.binary(max_size=300))
    def test_arbitrary_headers(self, tmp_path, header, blobs):
        text = json.dumps(header).encode("utf-8")
        self.load(tmp_path / "m.ckpt", checkpoint_bytes(text, blobs))

    @FUZZ
    @given(
        shapes=st.lists(st.lists(st.integers(0, 4), max_size=3), min_size=4, max_size=4),
        words=st.lists(st.text(max_size=2), max_size=3),
        fill=st.floats(),
    )
    def test_headers_with_sized_blobs(self, tmp_path, shapes, words, fill):
        # Blob lengths match the shapes, so the size checks pass and the
        # shapes themselves reach the parameter constructor.
        named = dict(zip(("emb", "ff_w", "ff_b", "w"), shapes))
        self.load(tmp_path / "m.ckpt", sized_checkpoint(named, words, fill))

    @FUZZ
    @given(edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=4),
           cut=st.integers(0, 10**6))
    def test_corrupted_checkpoint(self, tmp_path, edits, cut):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, SMALL_PARAMS, ThresholdMap({"r": 0.5}, 0.25))
        data = bytearray(path.read_bytes())
        for index, value in edits:
            data[index % len(data)] = value
        self.load(path, bytes(data[: cut % (len(data) + 1)]))
