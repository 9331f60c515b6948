"""Id sequences over ``corpus.tokenize``, and the trainable text encoder.

An input is rendered as [CLS, lead-token] ++ word ids, where the lead token
marks the speaker role for utterances or the retrieval task for candidates.
The encoder is an embedding mean followed by one linear layer with tanh:
small enough to train in seconds, while both towers stay behind this
interface so a heavier encoder could replace them. ``encode_batch`` encodes
many sequences, given as flat ids and offsets, as the rows of one matrix
with one ``autodiff.mean_affine_tanh`` op, whose shift is the gathered
position rows; the single-item functions are its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus import (CLS_ID, MAX_CANDIDATE_TOKENS, MAX_UTTERANCE_TOKENS,
                     ROLE_TOKEN, TASK_TOKEN, Candidate, Utterance, derive_rng,
                     tokenize)
from .errors import ContractError


@dataclass
class EncoderParams:
    """Trainable tables plus the vocabulary they are indexed by."""
    embedding: ad.Tensor  # vocab x d
    ff_weight: ad.Tensor  # d x d
    ff_bias: ad.Tensor  # d
    vocab: dict[str, int]
    position: ad.Tensor | None = None  # optional discourse-position table

    @property
    def dim(self) -> int:
        return self.embedding.shape[1]

    def tensors(self) -> dict[str, ad.Tensor]:
        out = {"embedding": self.embedding, "ff_weight": self.ff_weight,
               "ff_bias": self.ff_bias}
        if self.position is not None:
            out["position"] = self.position
        return out


def init_encoder_params(vocab: dict[str, int], d: int = 64, seed: int = 0,
                        positions: int = 0) -> EncoderParams:
    """Uniform [-0.1, 0.1] initialization, a pure function of (vocab, d, seed)."""
    if d < 1:
        raise ContractError(f"embedding dimension {d} is below 1")
    rng = derive_rng(seed, "encoder-init")
    draw = lambda *shape: ad.Tensor(rng.uniform(-0.1, 0.1, size=shape),
                                    requires_grad=True)
    pos = draw(positions, d) if positions > 0 else None
    return EncoderParams(embedding=draw(len(vocab), d), ff_weight=draw(d, d),
                         ff_bias=draw(d), vocab=dict(vocab), position=pos)


def encode_batch(ids, offsets, params: EncoderParams,
                 tape: ad.Tape | None = None, positions=None) -> ad.Tensor:
    """Rows tanh(W . mean(embed(ids[offsets[i]:offsets[i + 1]])) + b), one per
    sequence, as an N x d matrix; with ``positions`` (one per row) and an
    enabled position table, each row's position vector is added to its mean
    first."""
    shift = None
    if params.position is not None and positions is not None:
        idx = np.minimum(positions, params.position.shape[0] - 1)
        shift = ad.gather(params.position, idx, tape)
    return ad.mean_affine_tanh(params.embedding, params.ff_weight,
                               params.ff_bias, ids, offsets, tape, shift)


def encode_ids(ids: list[int], params: EncoderParams,
               tape: ad.Tape | None = None,
               position: int | None = None) -> ad.Tensor:
    """One sequence through ``encode_batch``, as a vector."""
    rows = encode_batch(ids, [0, len(ids)], params, tape,
                        None if position is None else [position])
    return ad.reshape(rows, (params.dim,), tape)


def text_ids(text: str, lead_id: int, vocab: dict[str, int],
             max_len: int) -> list[int]:
    """[CLS, lead] followed by the text's token ids."""
    return [CLS_ID, lead_id] + tokenize(text, vocab, max_len)


def utterance_ids(u: Utterance, vocab: dict[str, int]) -> list[int]:
    return text_ids(u.text, ROLE_TOKEN[u.role], vocab, MAX_UTTERANCE_TOKENS)


def candidate_ids(c: Candidate, vocab: dict[str, int]) -> list[int]:
    return text_ids(c.text, TASK_TOKEN[c.task], vocab, MAX_CANDIDATE_TOKENS)


def encode_text(text: str, lead_id: int, params: EncoderParams,
                tape: ad.Tape | None = None, max_len: int = MAX_UTTERANCE_TOKENS,
                position: int | None = None) -> ad.Tensor:
    return encode_ids(text_ids(text, lead_id, params.vocab, max_len),
                      params, tape, position)


def encode_utterance(u: Utterance, params: EncoderParams,
                     tape: ad.Tape | None = None,
                     position: int | None = None) -> ad.Tensor:
    return encode_ids(utterance_ids(u, params.vocab), params, tape, position)


def encode_candidate(c: Candidate, params: EncoderParams,
                     tape: ad.Tape | None = None) -> ad.Tensor:
    return encode_ids(candidate_ids(c, params.vocab), params, tape)
