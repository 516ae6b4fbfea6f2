"""Shared test helpers: triple builders, corruption and recorded draws, checkpoint surgery,
the single-triple forward pass, the brute-force kNN and the gradient oracle."""
import json
import math

import numpy as np

from negmine.kb import LabeledTriple, Phrase
from negmine.scorer import _draw_corruptions, _mode_columns, sigmoid


def make_triple(rel, head, tail, label=1):
    return LabeledTriple(Phrase.parse(head), rel, Phrase.parse(tail), label)


def encode(params, triple):
    """Pooled H-vector of one triple: token-mean plus a residual feedforward correction.

    The reference for the batch forward pass. With zero feedforward weights
    the layer is the identity, so the output equals the token mean exactly.
    """
    ids = params.vocab.encode_triple(triple)
    m = params.emb[ids].mean(axis=0)
    return m + np.tanh(params.ff_w @ m + params.ff_b)


def score(params, triple):
    return float(sigmoid(params.w @ encode(params, triple) + params.b))


def knn_brute_force(index, query, k):
    """Naive full-scan oracle used to verify `retrieval.knn` exactly."""
    q = index.matrix[index.positions[query]]
    scored = []
    for i, phrase in enumerate(index.phrases):
        if phrase == query:
            continue
        diff = index.matrix[i] - q
        scored.append((float(np.sqrt(diff @ diff)), i, phrase))
    scored.sort(key=lambda item: (item[0], item[1]))
    return [(phrase, dist) for dist, _, phrase in scored[:k]]


def corrupt(kb, positive, mode, rng):
    """`positive` corrupted in `mode`'s slot by training's draw; None if skipped."""
    ids = kb.ids
    rows = _draw_corruptions(ids, ids.encode([positive]), _mode_columns([mode]), rng)
    return ids.decode(rows)[0] if len(rows) else None


class RecordingRng:
    """A Generator stand-in that keeps every `integers` call's highs and draws."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def integers(self, high, size=None):
        draws = self.rng.integers(high, size=size)
        self.calls.append((np.array(high), np.array(draws)))
        return draws


def rewrite_checkpoint_header(path, edit):
    """Apply `edit` to a saved checkpoint's JSON header, keeping its blobs."""
    data = path.read_bytes()
    header_len = int(np.frombuffer(data[12:20], dtype="<u8")[0])
    header = json.loads(data[20 : 20 + header_len])
    edit(header)
    header_bytes = json.dumps(header).encode("utf-8")
    path.write_bytes(
        data[:12] + np.uint64(len(header_bytes)).tobytes() + header_bytes + data[20 + header_len :]
    )


def flatten_params(params):
    return np.concatenate(
        [params.emb.ravel(), params.ff_w.ravel(), params.ff_b.ravel(), params.w.ravel(), [params.b]]
    )


def set_params_from_flat(params, flat):
    n_emb = params.emb.size
    n_ff = params.ff_w.size
    h = params.hidden_dim
    params.emb[:] = flat[:n_emb].reshape(params.emb.shape)
    params.ff_w[:] = flat[n_emb : n_emb + n_ff].reshape(params.ff_w.shape)
    params.ff_b[:] = flat[n_emb + n_ff : n_emb + n_ff + h]
    params.w[:] = flat[n_emb + n_ff + h : n_emb + n_ff + 2 * h]
    params.b = float(flat[-1])


def dense_gradient(params, grad):
    """Flatten a TripleGradient to one vector aligned with flatten_params."""
    demb = np.zeros_like(params.emb)
    for idx, row in grad.emb_rows.items():
        demb[idx] += row
    return np.concatenate(
        [demb.ravel(), grad.ff_w.ravel(), grad.ff_b.ravel(), grad.w.ravel(), [grad.b]]
    )


def bce_loss(params, triple, label):
    p = score(params, triple)
    p = min(max(p, 1e-12), 1.0 - 1e-12)
    return -(label * math.log(p) + (1 - label) * math.log(1.0 - p))


def fd_gradient(params, triple, label, step=1e-4):
    """Central finite differences over every parameter."""
    flat = flatten_params(params)
    out = np.zeros_like(flat)
    for i in range(len(flat)):
        bumped = flat.copy()
        bumped[i] = flat[i] + step
        set_params_from_flat(params, bumped)
        up = bce_loss(params, triple, label)
        bumped[i] = flat[i] - step
        set_params_from_flat(params, bumped)
        down = bce_loss(params, triple, label)
        out[i] = (up - down) / (2.0 * step)
    set_params_from_flat(params, flat)
    return out


def spearman(xs, ys):
    """Rank correlation via Pearson over average-free integer ranks."""
    from negmine.rankers import pearson

    def ranks(v):
        order = np.argsort(np.asarray(v), kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(len(v), dtype=np.float64)
        return r

    return pearson(ranks(xs), ranks(ys))


def t_tail_two_sided(t_stat, df, n=200_001):
    """Quadrature oracle for 2 * P(T >= |t|) under the t distribution.

    Substituting x = |t| + u / (1 - u) maps the tail onto u in [0, 1); the
    transformed integrand vanishes at u = 1 for df > 1, so composite Simpson
    over a uniform grid converges cleanly.
    """
    import math

    t_abs = abs(float(t_stat))
    u = np.linspace(0.0, 1.0, n)
    x = t_abs + u[:-1] / (1.0 - u[:-1])
    jacobian = 1.0 / (1.0 - u[:-1]) ** 2
    log_norm = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    pdf = np.exp(log_norm - (df + 1.0) / 2.0 * np.log1p(x * x / df))
    integrand = np.append(pdf * jacobian, 0.0)
    h = u[1] - u[0]
    simpson = integrand[0] + integrand[-1]
    simpson += 4.0 * integrand[1:-1:2].sum() + 2.0 * integrand[2:-1:2].sum()
    return float(min(2.0 * simpson * h / 3.0, 1.0))
