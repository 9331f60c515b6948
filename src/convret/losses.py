"""Training objectives over batch similarity scores.

The historical contrastive loss treats every in-batch positive plus the
example's own semi-hard candidate (or an easy negative when no usable
semi-hard exists) as the denominator of a softmax over similarities and
takes the mean negative log-likelihood of the true positive. The pairwise
similarity loss enforces the score ordering positive > semi-hard > easy for
every batch item that has a semi-hard candidate, as one batch-level
log-sum: log(1 + sum e^{gamma(s_neg - s_hist)} + sum e^{gamma(s_hist -
s_pos)}). Both are computed through log-sum-exp and stay finite for
similarity magnitudes up to 1e3 with gamma up to 64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError

_DIAG_TOL = 1e-12


@dataclass
class BatchSimilarities:
    """Similarity scores a training batch needs.

    pos[i] is context i against its own positive; cross[i, j] is context i
    against example j's positive (diagonal equals pos); semi[i] is against
    the example's semi-hard candidate, valid only where semi_present; easy[i]
    is against a random easy negative.
    """
    pos: ad.Tensor  # B
    cross: ad.Tensor  # B x B
    semi: ad.Tensor  # B, entries without semi_present are never read
    easy: ad.Tensor  # B
    semi_present: np.ndarray  # B bools

    def __post_init__(self):
        b = self.batch_size
        if b < 1:
            raise DimensionError("empty batch")
        if self.cross.shape != (b, b) or self.semi.shape != (b,) \
                or self.easy.shape != (b,) or self.semi_present.shape != (b,):
            raise DimensionError(
                f"inconsistent batch shapes: pos {self.pos.shape}, "
                f"cross {self.cross.shape}, semi {self.semi.shape}, "
                f"easy {self.easy.shape}")
        diag = np.diagonal(self.cross.values)
        if np.max(np.abs(diag - self.pos.values)) > _DIAG_TOL:
            raise DimensionError("cross diagonal does not equal pos")

    @property
    def batch_size(self) -> int:
        return self.pos.shape[0]


def batch_similarities(cross: ad.Tensor, semi: ad.Tensor, easy: ad.Tensor,
                       semi_present: np.ndarray,
                       tape: ad.Tape | None = None) -> BatchSimilarities:
    """Build BatchSimilarities deriving pos from the cross diagonal on-tape."""
    diag = np.arange(cross.shape[0])
    return BatchSimilarities(ad.gather(cross, (diag, diag), tape), cross, semi, easy,
                             np.asarray(semi_present, dtype=bool))


@dataclass(frozen=True)
class LossConfig:
    gamma: float = 1.0
    use_hist: bool = True
    use_pair: bool = True

    def __post_init__(self):
        if self.gamma <= 0:
            raise ConfigError(f"gamma must be positive, got {self.gamma}")
        if not self.use_hist and not self.use_pair:
            raise ConfigError("at least one loss term must be enabled")


def historical_contrastive_loss(s: BatchSimilarities,
                                tape: ad.Tape | None = None) -> ad.Tensor:
    """Mean over the batch of -log softmax(own positive | in-batch positives
    plus the example's own negative): the mean of the row-wise log-sum-exp
    over [cross | neg] minus pos."""
    b = s.batch_size
    # one vector [cross (row-major); semi; easy]; row i of the logits picks
    # cross row i and then semi[i] or easy[i]
    flat = ad.concat([ad.reshape(s.cross, (b * b,), tape), s.semi, s.easy], tape)
    rows = np.arange(b)
    neg = np.where(s.semi_present, b * b + rows, b * b + b + rows)
    logits = ad.gather(flat, np.column_stack([rows[:, None] * b + rows, neg]), tape)
    return ad.mean(ad.sub(ad.logsumexp(logits, tape), s.pos, tape), tape)


def pairwise_similarity_loss(s: BatchSimilarities, cfg: LossConfig,
                             tape: ad.Tape | None = None) -> ad.Tensor:
    """Batch-level ordering loss over semi-hard-bearing items; zero if none."""
    items = np.flatnonzero(s.semi_present)
    if items.size == 0:
        return ad.scalar(0.0)
    b = s.batch_size
    # [0 (the constant 1 inside the log); easy - semi; semi - pos]
    diffs = ad.concat([ad.scalar(0.0), ad.sub(s.easy, s.semi, tape),
                       ad.sub(s.semi, s.pos, tape)], tape)
    terms = ad.gather(diffs, np.concatenate([[0], 1 + items, 1 + b + items]), tape)
    return ad.logsumexp(ad.scale(terms, cfg.gamma, tape), tape)


def combined_loss(s: BatchSimilarities, cfg: LossConfig,
                  tape: ad.Tape | None = None) -> ad.Tensor:
    """Unweighted sum of the enabled losses."""
    total = None
    if cfg.use_hist:
        total = historical_contrastive_loss(s, tape)
    if cfg.use_pair:
        pair = pairwise_similarity_loss(s, cfg, tape)
        total = pair if total is None else ad.add(total, pair, tape)
    return total
