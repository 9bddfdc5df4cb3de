"""From-scratch windowed token classifier trained by mini-batch SGD.

Architecture: hashed lowercased-token embeddings plus capitalization and
digit flags, concatenated over a +/-window context, one tanh hidden layer,
softmax over tag indices.  Small enough for exact gradient verification,
fast enough to train in seconds on the synthetic benchmark.

The batch loss is the mean over sentences of the mean-over-tokens cross
entropy, so a batch gradient equals the mean of per-sentence gradients.
Hard-label training is soft-target training against one-hot rows.
"""
from __future__ import annotations

import dataclasses
import json
import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from . import evaluation
from .annotation import one_hot_rows
from .corpus import Corpus, LabelScheme, Sentence, check_types
from .rng import STREAM_INIT, STREAM_TRAIN, seeded_rng

BOUNDARY_TOKEN = "__boundary__"  # reserved padding word, hashed like any other
CHECKPOINT_MAGIC = "partialner.tagger.v2"
LOG_FLOOR = 1e-12  # clamp inside log; only active where a target is impossible anyway
SCORE_ROWS = 1024  # rows per scoring block: a 1.4 MB feature block at the default sizes


@dataclass(frozen=True)
class TaggerConfig:
    """Hyperparameters for the windowed tagger and its SGD training loop."""

    embed_dim: int = 32
    window: int = 2                 # context tokens on each side
    hidden_dim: int = 64
    hash_buckets: int = 1 << 16
    learning_rate: float = 0.05
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 5               # epochs without val-F1 improvement before stopping
    seed: int = 0

    def __post_init__(self):
        check_types(self)
        if min(self.embed_dim, self.hidden_dim, self.hash_buckets,
               self.batch_size, self.max_epochs) < 1:
            raise ValueError("dimensions, batch size and epoch count must be >= 1")
        if self.window < 0:
            raise ValueError("window must be >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0 < self.learning_rate < np.inf:  # NaN fails too
            raise ValueError("learning_rate must be positive and finite")

    @property
    def slots(self) -> int:
        return 2 * self.window + 1

    @property
    def input_dim(self) -> int:
        return self.slots * (self.embed_dim + 2)


@lru_cache(maxsize=1 << 17)
def _bucket(token: str, buckets: int) -> int:
    return zlib.crc32(token.lower().encode("utf-8")) % buckets


def _token_flags(token: str) -> tuple[float, float]:
    return (1.0 if token[:1].isupper() else 0.0,
            1.0 if any(ch.isdigit() for ch in token) else 0.0)


@dataclass(frozen=True)
class EncodedTokens:
    """Flat context-window encoding of one or more sentences."""

    ids: np.ndarray      # (T, slots) int64 bucket ids
    flags: np.ndarray    # (T, slots, 2) capitalization/digit flags
    offsets: np.ndarray  # (n_sentences + 1,) token offsets into the flat axis

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)


def encode_tokens(token_seqs: Sequence[Sequence[str]], config: TaggerConfig) -> EncodedTokens:
    """Context-window bucket ids and flags for every token of every sentence.

    Slot j of token p holds the token at p - window + j of the same
    sentence, or BOUNDARY_TOKEN past either end.  Buckets and flags are
    computed once per distinct token; the windows are index arithmetic over
    the flat token positions.
    """
    lengths = np.fromiter(map(len, token_seqs), dtype=np.intp, count=len(token_seqs))
    offsets = np.zeros(lengths.size + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    codes: dict[str, int] = {}
    flat = [codes.setdefault(t, len(codes)) for seq in token_seqs for t in seq]
    distinct = [*codes, BOUNDARY_TOKEN]  # the boundary's code is the last one
    buckets = np.fromiter((_bucket(t, config.hash_buckets) for t in distinct),
                          dtype=np.int64, count=len(distinct))
    token_flags = np.array([_token_flags(t) for t in distinct], dtype=np.float64)
    total = int(offsets[-1])
    pos = np.arange(total)[:, None] + np.arange(-config.window, config.window + 1)
    inside = ((pos >= np.repeat(offsets[:-1], lengths)[:, None])
              & (pos < np.repeat(offsets[1:], lengths)[:, None]))
    # position `total` reads the boundary code appended after the real tokens
    slot_codes = np.append(np.asarray(flat, dtype=np.intp), len(distinct) - 1)[
        np.where(inside, pos, total)]
    return EncodedTokens(buckets[slot_codes], token_flags[slot_codes], offsets)


def initial_rows(config: TaggerConfig, rows: np.ndarray) -> np.ndarray:
    """Rows `rows` (sorted bucket ids) of the initial table `seeded_rng(seed,
    STREAM_INIT).uniform(-1, 1, (hash_buckets, embed_dim))` bit for bit: the
    stream skips to row r's position r * embed_dim and draws it alone."""
    rng, d = seeded_rng(config.seed, STREAM_INIT), config.embed_dim
    out, drawn = np.empty((rows.size, d)), 0
    for i, row in enumerate(rows.tolist()):
        rng.bit_generator.advance(row * d - drawn)
        rng.random(out=out[i])
        drawn = (row + 1) * d
    return out * 2.0 - 1.0  # uniform(-1, 1) as numpy computes it from random()


class TaggerModel:
    """Parameter container; training lives in module functions.  It holds
    the embedding rows of the sorted bucket ids `rows` only; the others are
    drawn (`initial_rows`) when `positions` first needs them."""

    def __init__(self, config: TaggerConfig, scheme: LabelScheme, rows: np.ndarray,
                 embed: np.ndarray, w1: np.ndarray, b1: np.ndarray,
                 w2: np.ndarray, b2: np.ndarray):
        self.config = config
        self.scheme = scheme
        self.rows = rows    # (R,) sorted unique bucket ids
        self.embed = embed  # (R, embed_dim): their rows
        self.w1 = w1        # (input_dim, hidden_dim)
        self.b1 = b1        # (hidden_dim,)
        self.w2 = w2        # (hidden_dim, tag_count)
        self.b2 = b2        # (tag_count,)

    @classmethod
    def init(cls, config: TaggerConfig, scheme: LabelScheme) -> "TaggerModel":
        """Seeded uniform(-r, r) init with r = 1/sqrt(fan_in); zero biases.

        The embedding table is a linear map from a one-hot bucket indicator,
        so its fan-in is 1 and rows start at unit scale.  No row is drawn
        yet; w1 and w2 follow the table's values in the stream."""
        rng = seeded_rng(config.seed, STREAM_INIT)
        rng.bit_generator.advance(config.hash_buckets * config.embed_dim)

        def uniform(shape, fan_in):
            r = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-r, r, size=shape)

        return cls(
            config, scheme, np.zeros(0, dtype=np.int64), np.zeros((0, config.embed_dim)),
            w1=uniform((config.input_dim, config.hidden_dim), config.input_dim),
            b1=np.zeros(config.hidden_dim),
            w2=uniform((config.hidden_dim, scheme.tag_count), config.hidden_dim),
            b2=np.zeros(scheme.tag_count))

    def copy(self) -> "TaggerModel":
        return TaggerModel(self.config, self.scheme, self.rows.copy(),
                           *(arr.copy() for arr in self.params().values()))

    def positions(self, *encs: EncodedTokens) -> list[EncodedTokens]:
        """`encs` with each bucket id replaced by its row's position in
        `embed`, after drawing the rows it lacks.  Positions keep the order of
        ids, so results are bit for bit those over ids; adding rows makes
        earlier positions stale, so a stage maps its encodings in one call."""
        new = np.setdiff1d(np.concatenate([e.ids.reshape(-1) for e in encs]), self.rows)
        if new.size:
            self.rows, order = np.unique(np.concatenate([self.rows, new]), return_index=True)
            self.embed = np.concatenate([self.embed, initial_rows(self.config, new)])[order]
        return [EncodedTokens(np.searchsorted(self.rows, e.ids), e.flags, e.offsets) for e in encs]

    def load_from(self, other: "TaggerModel") -> None:
        """Copy the parameters of `other`, which holds the same rows, in place."""
        for name, arr in other.params().items():
            np.copyto(self.params()[name], arr)

    def params(self) -> dict[str, np.ndarray]:
        """Live references to every parameter array; `embed` holds `rows` only."""
        return {"embed": self.embed, "w1": self.w1, "b1": self.b1,
                "w2": self.w2, "b2": self.b2}

    def flat_distributions(self, token_seqs: Sequence[Sequence[str]],
                           ) -> tuple[np.ndarray, np.ndarray]:
        """(T, C) softmax outputs of the sentences back to back, and their
        (n + 1,) token offsets."""
        (enc,) = self.positions(encode_tokens(list(token_seqs), self.config))
        return score(self, enc.ids, enc.flags, score_workspace(self.config)), enc.offsets

    def sequence_distributions(self, token_seqs: Sequence[Sequence[str]]) -> list[np.ndarray]:
        """Per-sentence (L, C) softmax outputs."""
        probs, offsets = self.flat_distributions(token_seqs)
        return [probs[a:b] for a, b in zip(offsets[:-1], offsets[1:])]


def _features(model: TaggerModel, ids: np.ndarray, flags: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """(T, input_dim) inputs: each slot's embedding row, then its two flags;
    written into `out` if given."""
    d = model.config.embed_dim
    x = np.empty(ids.shape + (d + 2,)) if out is None else out.reshape(ids.shape + (d + 2,))
    x[:, :, :d] = np.take(model.embed, ids, axis=0)
    x[:, :, d:] = flags
    return x.reshape(ids.shape[0], model.config.input_dim)


def forward_flat(model: TaggerModel, ids: np.ndarray, flags: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(features, hidden, probabilities) for a flat token batch at positions
    `ids` (`TaggerModel.positions`), each a fresh array the caller may overwrite."""
    return _forward(model, _features(model, ids, flags))


def _forward(model: TaggerModel, x: np.ndarray, h: np.ndarray | None = None,
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`forward_flat` from features `x`, writing the hidden layer into `h` if given."""
    h = np.matmul(x, model.w1, out=h)
    h += model.b1
    np.tanh(h, out=h)
    probs = h @ model.w2
    probs += model.b2
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return x, h, probs


def score_workspace(config: TaggerConfig) -> tuple[np.ndarray, np.ndarray]:
    """The features and hidden arrays `score` computes a block in."""
    rows = SCORE_ROWS + 1
    return np.empty((rows, config.input_dim)), np.empty((rows, config.hidden_dim))


def score(model: TaggerModel, ids: np.ndarray, flags: np.ndarray, work: tuple) -> np.ndarray:
    """(T, C) probabilities of `forward_flat(model, ids, flags)` bit for bit,
    computed SCORE_ROWS rows at a time in the workspace `work`
    (`score_workspace`).  A 1-row tail joins the block before it: numpy
    sends a 1-row product through gemv, whose sums differ from gemm's."""
    total = ids.shape[0]
    probs = np.empty((total, model.scheme.tag_count))
    for start in range(0, max(total - 1, 1), SCORE_ROWS):
        stop = total if total - start <= SCORE_ROWS + 1 else start + SCORE_ROWS
        x = _features(model, ids[start:stop], flags[start:stop], work[0][:stop - start])
        probs[start:stop] = _forward(model, x, work[1][:stop - start])[2]
    return probs


@dataclass
class Gradients:
    """Gradients of the weighted batch loss; embedding rows stay sparse."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    embed_ids: np.ndarray   # (U,) unique embedding positions the batch touched
    embed_rows: np.ndarray  # (U, embed_dim) gradient rows for those positions


def _loss(probs: np.ndarray, targets: np.ndarray, weights: np.ndarray) -> float:
    logq = np.maximum(probs, LOG_FLOOR)
    np.log(logq, out=logq)
    logq *= targets
    per_token = logq.sum(axis=1)
    per_token *= weights
    return float(-per_token.sum())


def _embed_grads(ids: np.ndarray, dx: np.ndarray, embed_dim: int,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique ids and their embedding-gradient rows: bin u * width + j
    of one bincount over all of `dx` sums column j of the u-th id's slots
    (flag columns included, then dropped) from 0.0 in occurrence order, as
    np.add.at would, so the rows equal the unbuffered scatter bit for bit."""
    present = np.bincount(ids.reshape(-1)) > 0
    uniq = np.flatnonzero(present)
    width = embed_dim + 2
    bins = np.take(np.arange(uniq.size * width).reshape(uniq.size, width),
                   (np.cumsum(present) - 1)[ids], axis=0)  # (T, slots, width)
    rows = np.bincount(bins.reshape(-1), weights=dx.reshape(-1))
    return uniq, rows.reshape(uniq.size, width)[:, :embed_dim]


def flat_loss_and_grads(model: TaggerModel, ids: np.ndarray, flags: np.ndarray,
                        targets: np.ndarray, weights: np.ndarray,
                        ) -> tuple[float, Gradients]:
    """Loss and analytic gradients for per-token-weighted cross entropy at
    positions `ids`; the backward pass overwrites probabilities and h in place."""
    x, h, probs = forward_flat(model, ids, flags)
    loss = _loss(probs, targets, weights)
    dlogits = np.subtract(probs, targets, out=probs)
    dlogits *= weights[:, None]
    gw2 = h.T @ dlogits
    gb2 = dlogits.sum(axis=0)
    dpre = dlogits @ model.w2.T
    np.multiply(h, h, out=h)
    np.subtract(1.0, h, out=h)
    dpre *= h
    gw1 = x.T @ dpre
    gb1 = dpre.sum(axis=0)
    uniq, rows = _embed_grads(ids, dpre @ model.w1.T, model.config.embed_dim)
    return loss, Gradients(gw1, gb1, gw2, gb2, uniq, rows)


def sentence_weights(lengths: np.ndarray) -> np.ndarray:
    """Per-token weights under which a weighted token loss is the batch loss:
    the mean over sentences of the mean-over-tokens cross entropy."""
    return np.repeat(1.0 / (lengths.size * lengths), lengths)


def _batch_arrays(model: TaggerModel, sentences, targets,
                  ) -> tuple[EncodedTokens, np.ndarray, np.ndarray]:
    if not len(sentences):
        raise ValueError("empty batch")
    token_seqs = [s.tokens if isinstance(s, Sentence) else tuple(s) for s in sentences]
    rows = []
    for seq, t in zip(token_seqs, targets):
        t = np.asarray(t, dtype=np.float64)
        if t.shape[0] != len(seq):
            raise ValueError(f"{t.shape[0]} target rows for {len(seq)} tokens")
        rows.append(t)
    (enc,) = model.positions(encode_tokens(token_seqs, model.config))
    return enc, np.concatenate(rows, axis=0), sentence_weights(enc.lengths)


def sgd_step(model: TaggerModel, grads: Gradients, lr: float) -> None:
    """In-place plain SGD update; embedding rows update sparsely."""
    model.w1 -= lr * grads.w1
    model.b1 -= lr * grads.b1
    model.w2 -= lr * grads.w2
    model.b2 -= lr * grads.b2
    model.embed[grads.embed_ids] -= lr * grads.embed_rows


def finite_difference_check(model: TaggerModel, sentences, targets,
                            h: float = 1e-4) -> float:
    """Worst guarded relative error between analytic and central-difference
    gradients over every parameter, the batch's embedding rows included.

    Guarded denominator max(|a|, |fd|, 1e-3) keeps near-zero gradients from
    inflating the ratio with finite-difference noise.
    """
    enc, t, w = _batch_arrays(model, sentences, targets)
    analytic = flat_loss_and_grads(model, enc.ids, enc.flags, t, w)[1]
    dense = dict(vars(analytic), embed=np.zeros_like(model.embed))
    dense["embed"][analytic.embed_ids] = analytic.embed_rows
    worst = 0.0
    for name, arr in model.params().items():
        ga = dense[name]
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + h
            lp = _loss(forward_flat(model, enc.ids, enc.flags)[2], t, w)
            arr[idx] = orig - h
            lm = _loss(forward_flat(model, enc.ids, enc.flags)[2], t, w)
            arr[idx] = orig
            fd = (lp - lm) / (2.0 * h)
            rel = abs(ga[idx] - fd) / max(abs(ga[idx]), abs(fd), 1e-3)
            worst = max(worst, rel)
    return worst


@dataclass(frozen=True)
class SoftDataset:
    """Sentences paired with per-token soft target distributions."""

    sentences: tuple[Sentence, ...]
    rows: np.ndarray  # (T, C): the sentences' target rows, back to back
    scheme: LabelScheme

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))
        want = (sum(map(len, self.sentences)), self.scheme.tag_count)
        if self.rows.shape != want:
            raise ValueError(f"target shape {self.rows.shape}, want {want}")
        if not ((self.rows >= 0).all()  # written so that NaN rows fail too
                and np.abs(self.rows.sum(axis=1) - 1.0).max(initial=0.0) <= 1e-6):
            raise ValueError("targets are not distributions")

    def __len__(self) -> int:
        return len(self.sentences)


@dataclass
class StageTrace:
    """Per-iteration record of one training stage; iteration 0 is the
    starting model and iteration i the model after epoch i."""

    stage: str                  # "ner_fit" or "self_train"
    val_f1: list[float]         # validation span micro-F1 per iteration
    refresh_epochs: list[int] = field(default_factory=list)  # teacher refreshes
    best_iteration: int = 0     # the iteration whose parameters the stage returns
    losses: list[float] = field(default_factory=list)  # per epoch; empty if closed form
    stopped_early: bool = False  # patience ran out before the epoch limit

    @property
    def best_f1(self) -> float:
        return self.val_f1[self.best_iteration]

    @property
    def best_epoch(self) -> int:
        """The selected epoch counted from 0; -1 is the starting model."""
        return self.best_iteration - 1

    def write_csv(self, path: str) -> None:
        refreshes = set(self.refresh_epochs)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("stage,iteration,val_f1,teacher_refresh\n")
            for i, f1 in enumerate(self.val_f1):
                fh.write(f"{self.stage},{i},{f1!r},{int(i in refreshes)}\n")


def validation_f1(model: TaggerModel, val_enc: EncodedTokens, val_gold: np.ndarray,
                  work: tuple) -> float:
    """Span micro-F1 of argmax predictions over a pre-encoded validation set
    (positions in `model.rows`) and its gold keys (`evaluation.gold_keys`);
    `evaluation.span_f1` over `decode_bio` spans bit for bit.  Scores in the
    block workspace `work` (`score_workspace`)."""
    tags = np.argmax(score(model, val_enc.ids, val_enc.flags, work), axis=1)
    pred = evaluation.bio_span_keys(tags, val_enc.offsets, model.scheme)
    return evaluation.key_scores(pred, val_gold, model.scheme).f1


class StageTable:
    """One training stage's inputs, built once: `model`, holding the rows of the
    training and validation tokens, their encodings by `model.config` and
    position, the validation gold keys and the block workspace every validation
    of the stage reuses (`val_work`)."""

    def __init__(self, model: TaggerModel, token_seqs: Sequence[Sequence[str]], val: Corpus):
        config = model.config
        enc = encode_tokens(token_seqs, config)
        val_enc = encode_tokens([s.tokens for s in val.sentences], config)
        self.model, self.val_gold = model, evaluation.gold_keys(val)[0]
        self.enc, self.val_enc = model.positions(enc, val_enc)
        self.val_work = score_workspace(config)


def fit(table: StageTable, targets: Callable[..., Iterable[np.ndarray]],
        stage: str, stream: int, epochs: int, patience: int | None = None,
        ) -> tuple[TaggerModel, StageTrace]:
    """The mini-batch SGD loop of every training stage.

    Trains `table.model` in place with the batch size and learning rate of its
    config and returns it.  Each epoch shuffles the sentences of `table.enc`
    with the `stream` RNG of the config's seed and gathers their ids and flags
    in that order once; each batch is then a contiguous slice of them.  One SGD
    step per batch goes towards that batch's rows from `targets(epoch, tok, ids,
    flags, batches)`, called once per epoch, in epoch order, with the epoch's
    number, its flat token indices `tok`, their embedding positions `ids` and
    flags `flags`, and an iterator `batches` of the batches' slices of them: it
    yields each batch's (tokens, C) target rows in batch order, and the epoch
    has drawn them all before validation.
    Validation span micro-F1 follows.
    After each epoch the best iteration so far is selected (the starting model
    is iteration 0 and a tie keeps the earlier one), and the stage stops once
    `patience` epochs in a row have not improved.  The model ends holding the
    selected iteration's parameters.  Deterministic given `model.config.seed`."""
    enc, model, val = table.enc, table.model, (table.val_enc, table.val_gold, table.val_work)
    config = model.config
    n = len(enc)
    if not n:
        raise ValueError("empty training data")
    rng = seeded_rng(config.seed, stream)
    trace = StageTrace(stage, [validation_f1(model, *val)])
    best, since_best = model.copy(), 0
    bounds = np.zeros(n + 1, dtype=np.intp)
    starts = range(0, n, config.batch_size)
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        sizes = enc.lengths[order]
        np.cumsum(sizes, out=bounds[1:])
        # flat token indices of the sentences in `order`, sentence by sentence
        tok = np.arange(bounds[-1]) + np.repeat(enc.offsets[order] - bounds[:-1], sizes)
        ids, flags = enc.ids[tok], enc.flags[tok]
        rows = iter(targets(epoch, tok, ids, flags, (
            slice(bounds[start], bounds[min(start + config.batch_size, n)]) for start in starts)))
        total = 0.0
        for start in starts:
            stop = min(start + config.batch_size, n)
            batch = slice(bounds[start], bounds[stop])
            loss, grads = flat_loss_and_grads(model, ids[batch], flags[batch], next(rows),
                                              sentence_weights(sizes[start:stop]))
            sgd_step(model, grads, config.learning_rate)
            total += loss * (stop - start)
        trace.losses.append(total / n)
        trace.val_f1.append(validation_f1(model, *val))
        if trace.val_f1[-1] > trace.best_f1:
            trace.best_iteration, since_best = epoch, 0
            best.load_from(model)
        else:
            since_best += 1
        if patience is not None and since_best >= patience:
            trace.stopped_early = True
            break
    model.load_from(best)
    return model, trace


def train(model: TaggerModel, data, val: Corpus) -> tuple[TaggerModel, StageTrace]:
    """Early-stopped `fit` on fixed targets: the "ner_fit" stage.

    `data` is a hard-labelled Corpus (one-hot targets) or a SoftDataset.
    Runs at most `max_epochs` epochs on the training stream and stops after
    `patience` epochs without a validation-F1 improvement, both read from
    `model.config`.  Deterministic given `model.config.seed`.
    """
    if isinstance(data, SoftDataset):
        if data.scheme.categories != model.scheme.categories:
            raise ValueError("soft dataset scheme differs from model scheme")
        rows = data.rows
    elif isinstance(data, Corpus):
        if not data.fully_labelled:
            raise ValueError("training corpus needs hard labels")
        rows = one_hot_rows([l for s in data.sentences for l in s.labels], model.scheme.tag_count)
    else:
        raise TypeError(f"cannot train on {type(data).__name__}; "
                        "expected Corpus or SoftDataset")
    return fit(StageTable(model, [s.tokens for s in data.sentences], val),
               lambda epoch, tok, ids, flags, batches: (rows[tok[b]] for b in batches),
               "ner_fit", STREAM_TRAIN, model.config.max_epochs, model.config.patience)


def save_checkpoint(model: TaggerModel, path: str) -> None:
    """Versioned npz checkpoint: magic, config echo, categories, `rows` and the parameters."""
    np.savez(path, magic=np.array(CHECKPOINT_MAGIC),
             config=np.array(json.dumps(dataclasses.asdict(model.config), sort_keys=True)),
             categories=np.array(list(model.scheme.categories)), rows=model.rows, **model.params())


def load_checkpoint(path: str) -> TaggerModel:
    """A checkpoint's model, holding its `rows`; a v1 file holds every row."""
    with np.load(path, allow_pickle=False) as z:
        magic = str(z.get("magic"))
        if magic not in (CHECKPOINT_MAGIC, "partialner.tagger.v1"):
            raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
        echo = json.loads(str(z["config"]))
        echo.pop("halve_on_plateau", None)  # retired training-only field
        config = TaggerConfig(**echo)
        scheme = LabelScheme(tuple(str(c) for c in z["categories"]))
        rows = z["rows"] if magic == CHECKPOINT_MAGIC else np.arange(config.hash_buckets)
        params = [z[name] for name in ("embed", "w1", "b1", "w2", "b2")]
    # `positions` bisects `rows`: rows out of order would gather wrong rows silently
    if not (rows.dtype.kind == "i" and np.array_equal(rows, np.unique(rows))
            and ((rows >= 0) & (rows < config.hash_buckets)).all()):
        raise ValueError(f"{path}: rows are not increasing bucket ids in [0, hash_buckets)")
    c = scheme.tag_count
    shapes = {"embed": (rows.size, config.embed_dim), "w1": (config.input_dim, config.hidden_dim),
              "b1": (config.hidden_dim,), "w2": (config.hidden_dim, c), "b2": (c,)}
    for (name, shape), arr in zip(shapes.items(), params):
        if arr.dtype != np.float64:  # the training arithmetic is float64 throughout
            raise ValueError(f"{path}: {name} dtype {arr.dtype}, want float64")
        if arr.shape != shape:
            raise ValueError(f"{path}: {name} shape {arr.shape}, want {shape}")
    return TaggerModel(config, scheme, rows, *params)
