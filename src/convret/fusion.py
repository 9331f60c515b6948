"""Context-adaptive dialogue encoding.

The query utterance selects the most similar previous-session utterances
(hard top-K, not differentiated), attends over them together with the
current session, and a learned gate blends the attended history with the
query encoding. Alternative modes: NO_PREV drops previous sessions,
FULL_CONCAT encodes the whole flattened dialogue as one sequence (an upper
bound that sidesteps selection), and MEAN_ALL averages every utterance
encoding unweighted (the degraded variant used for comparison runs).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus import (CLS_ID, MAX_CANDIDATE_TOKENS, MAX_UTTERANCE_TOKENS,
                     ROLE_TOKEN, Dialogue, TrainingInputs, Utterance,
                     concat_ranges, derive_rng, split_sessions)
from .encoder import (EncoderParams, encode_batch, encode_ids,
                      encode_utterance, tokenize, utterance_ids)
from .errors import ConfigError, ContractError


class ModeKind(enum.Enum):
    ADAPTIVE = "adaptive"
    FULL_CONCAT = "full_concat"
    NO_PREV = "no_prev"
    MEAN_ALL = "mean_all"


@dataclass(frozen=True)
class ContextMode:
    kind: ModeKind
    k: int = 3

    def __post_init__(self):
        if not isinstance(self.kind, ModeKind):
            raise ConfigError(f"context mode kind {self.kind!r} is not a ModeKind")
        if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 1:
            raise ConfigError(f"context mode needs an int k >= 1, got {self.k!r}")

    @staticmethod
    def adaptive(k: int = 3) -> "ContextMode":
        return ContextMode(ModeKind.ADAPTIVE, k)

    @staticmethod
    def full_concat() -> "ContextMode":
        return ContextMode(ModeKind.FULL_CONCAT)

    @staticmethod
    def no_prev() -> "ContextMode":
        return ContextMode(ModeKind.NO_PREV)

    @staticmethod
    def mean_all() -> "ContextMode":
        return ContextMode(ModeKind.MEAN_ALL)


@dataclass
class FusionParams:
    gate_w: ad.Tensor  # 2d

    def tensors(self) -> dict[str, ad.Tensor]:
        return {"gate_w": self.gate_w}


def init_fusion_params(d: int, seed: int = 0) -> FusionParams:
    rng = derive_rng(seed, "fusion-init")
    return FusionParams(ad.Tensor(rng.uniform(-0.1, 0.1, size=2 * d),
                                  requires_grad=True))


def topk_indices(scores: np.ndarray, k: int) -> list[int]:
    """Indices of the k largest scores, ties to the lower index, ascending."""
    if k < 1:
        raise ContractError(f"k must be at least 1, got {k}")
    order = np.argsort(-scores, kind="stable")[:min(k, scores.size)]
    return sorted(int(i) for i in order)


def attend(h_query: ad.Tensor, H_hist: ad.Tensor | list[ad.Tensor],
           tape: ad.Tape | None = None, mask=None) -> ad.Tensor:
    """Scaled dot-product attention of each query over the history rows.

    ``h_query`` is one query vector or a B x d matrix of query rows;
    ``H_hist`` is an N x d matrix or a list of N vectors. A boolean
    ``mask`` (N entries per query) restricts each query to its true
    entries; every query needs one.
    """
    if isinstance(H_hist, list):
        if not H_hist:
            raise ContractError("attend over an empty history")
        H_hist = ad.stack(H_hist, tape)
    scores = ad.scale(ad.matmul(h_query, ad.transpose(H_hist, tape), tape),
                      1.0 / math.sqrt(h_query.shape[-1]), tape)
    return ad.matmul(ad.softmax(scores, tape, mask), H_hist, tape)


def gate_fuse(h_hist: ad.Tensor, h_query: ad.Tensor, params: FusionParams,
              tape: ad.Tape | None = None) -> tuple[ad.Tensor, ad.Tensor]:
    """Blend history and query: lambda = sigmoid(w . [h_hist; h_query]) and
    h = h_query + lambda (h_hist - h_query), for two vectors (lambda is a
    scalar) or row by row for two B x d matrices (lambda is a B x 1
    column)."""
    if h_hist.shape != h_query.shape:
        raise ContractError(f"shapes {h_hist.shape} and {h_query.shape} differ")
    dim = h_query.shape[-1]
    # w's halves as (d,) vectors, or as (d, 1) columns: one lambda per row
    halves = np.arange(2 * dim).reshape((2, dim) + (1,) * (h_query.values.ndim - 1))
    w_hist = ad.gather(params.gate_w, halves[0], tape)
    w_query = ad.gather(params.gate_w, halves[1], tape)
    lam = ad.sigmoid(ad.add(ad.matmul(h_hist, w_hist, tape),
                            ad.matmul(h_query, w_query, tape), tape), tape)
    return ad.add(h_query, ad.mul(ad.sub(h_hist, h_query, tape), lam, tape), tape), lam


def _concat_ids(utts: list[Utterance], vocab: dict[str, int]) -> list[int]:
    """The whole dialogue as one sequence: CLS, then each utterance's role
    token and words, truncated at the candidate length."""
    ids = [CLS_ID]
    for utt in utts:
        ids.append(ROLE_TOKEN[utt.role])
        ids.extend(tokenize(utt.text, vocab, MAX_UTTERANCE_TOKENS))
    return ids[:MAX_CANDIDATE_TOKENS]


def encode_context(d: Dialogue, query_turn: int, mode: ContextMode,
                   enc: EncoderParams, fusion: FusionParams,
                   tape: ad.Tape | None = None,
                   frozen_selection: list[int] | None = None) -> ad.Tensor:
    """Dialogue-level query encoding under the given context mode.

    The query is encoded alone; the history rows (previous sessions, then
    the current session) as one N x d matrix through ``encode_batch``.
    ``frozen_selection`` pins the top-K choice to the given previous-turn
    indices; gradient checks use it because the selection itself is hard.
    """
    prev, curr, last = split_sessions(d, query_turn)
    if mode.kind is ModeKind.FULL_CONCAT:
        return encode_ids(_concat_ids(prev + curr + [last], enc.vocab), enc, tape)
    if mode.kind is ModeKind.NO_PREV:
        prev = []
    h_ut = encode_utterance(last, enc, tape, position=last.turn_index)
    hist = prev + curr
    if not hist:
        return h_ut
    seqs = [utterance_ids(u, enc.vocab) for u in hist]
    H = encode_batch(list(itertools.chain.from_iterable(seqs)),
                     np.cumsum([0, *map(len, seqs)]), enc, tape,
                     [u.turn_index for u in hist])
    n, m = len(prev), len(hist) + 1
    if mode.kind is ModeKind.MEAN_ALL:
        every = ad.reshape(ad.concat([H, h_ut], tape), (m, enc.dim), tape)
        return ad.matmul(ad.Tensor(np.full(m, 1.0 / m)), every, tape)
    if not n:
        chosen = []
    elif frozen_selection is None:
        # the selection is hard: scores are read off the values
        chosen = topk_indices(H.values[:n] @ h_ut.values, mode.k)
    else:
        chosen = frozen_selection
    rows = [*chosen, *range(n, len(hist))]
    if not rows:
        return h_ut
    return gate_fuse(attend(h_ut, ad.gather(H, rows, tape), tape), h_ut,
                     fusion, tape)[0]


def encode_contexts(inputs: TrainingInputs, examples, mode: ContextMode,
                    enc: EncoderParams, fusion: FusionParams,
                    tape: ad.Tape | None = None,
                    frozen_selection: list[list[int]] | None = None) -> ad.Tensor:
    """``encode_context`` for a batch of compiled examples (rows of
    ``inputs.examples``), as the rows of one B x d matrix built from matrix
    ops.

    Previous-session utterances are encoded off-tape and scored as one
    padded B x P product; each row's top-K is a stable row-wise argsort,
    with ``topk_indices``'s tie-breaking. The chosen, current-session and
    query rows are then encoded once each on the tape, deduplicated by row.
    ``attend`` runs over them with a B x N mask and ``gate_fuse`` blends
    row by row; a context without history attends to its own query row
    alone, which returns the query encoding unchanged through the gate.
    ``frozen_selection`` gives each context's pinned previous-turn indices.
    """
    start, split, query = inputs.examples[examples].T
    if mode.kind is ModeKind.FULL_CONCAT:
        return encode_batch(*inputs.concat_seqs(start, query), enc, tape)
    # (context, row) pairs of each context's history: every row through the
    # query under MEAN_ALL, else the current session's, then the chosen ones
    ctx, rows = (concat_ranges(start, query + 1) if mode.kind is ModeKind.MEAN_ALL
                 else concat_ranges(split, query))
    if mode.kind is ModeKind.ADAPTIVE:
        if frozen_selection is None:
            chosen, picks = _top_prev(inputs, start, split, query, mode.k, enc)
        else:
            chosen = np.repeat(np.arange(query.size), list(map(len, frozen_selection)))
            picks = np.fromiter(itertools.chain(*frozen_selection), np.intp,
                                chosen.size)
        ctx, rows = np.append(chosen, ctx), np.append(start[chosen] + picks, rows)
    need, inverse = np.unique(np.append(rows, query), return_inverse=True)
    U = encode_batch(*inputs.utterance_seqs(need), enc, tape, inputs.turns[need])
    cols, q_cols = inverse[:rows.size], inverse[rows.size:]

    b, n = query.size, need.size
    if mode.kind is ModeKind.MEAN_ALL:
        weights = np.zeros((b, n))
        weights[ctx, cols] = 1.0 / (query + 1 - start)[ctx]
        return ad.matmul(ad.Tensor(weights), U, tape)

    mask = np.zeros((b, n), dtype=bool)
    mask[ctx, cols] = True
    lone = ~mask.any(axis=1)
    mask[lone, q_cols[lone]] = True
    Q = ad.gather(U, q_cols, tape)
    return gate_fuse(attend(Q, U, tape, mask), Q, fusion, tape)[0]


def _top_prev(inputs: TrainingInputs, start, split, query, k: int,
              enc: EncoderParams) -> tuple[np.ndarray, np.ndarray]:
    """(context, previous-turn index) pairs of each context's top-k previous
    utterances by dot product with its query, each distinct row encoded
    once off-tape."""
    counts = split - start
    width = int(counts.max(initial=0))
    valid = np.arange(width) < counts[:, None]
    grid = start[:, None] + np.arange(width)
    need, inverse = np.unique(np.append(grid[valid], query), return_inverse=True)
    V = encode_batch(*inputs.utterance_seqs(need), enc, None,
                     inputs.turns[need]).values
    prev = np.zeros((query.size, width, enc.dim))
    prev[valid] = V[inverse[:-query.size]]
    scores = np.matmul(prev, V[inverse[-query.size:], :, None])[..., 0]
    scores[~valid] = -np.inf  # sorts last
    top = np.sort(np.argsort(-scores, axis=1, kind="stable")[:, :k], axis=1)
    keep = top < counts[:, None]
    return np.nonzero(keep)[0], top[keep]
