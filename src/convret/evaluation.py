"""Brute-force retrieval over candidate pools, metrics, and analysis runs.

Scoring is an exact dense matrix-vector product (pools are small by
protocol); ranks break ties toward the lower row index so every metric is
deterministic. The analysis helpers reproduce the usual study shapes:
pool-size sweep, top-K sweep including the no-previous-session mode, and
ablation comparisons retrained per variant under shared seeds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .corpus import Candidate, Corpus, TaskKind, sample_pool
from .encoder import EncoderParams, encode_candidate
from .errors import ContractError, EvaluationError
from .fusion import ContextMode, encode_context
from .training import Checkpoint, TrainConfig, train


@dataclass
class EmbeddedPool:
    candidate_ids: list[str]  # row i holds candidate_ids[i]
    matrix: np.ndarray  # n x d
    task: TaskKind

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.candidate_ids):
            raise ContractError(
                f"matrix {self.matrix.shape} does not match "
                f"{len(self.candidate_ids)} candidate ids")

    @property
    def size(self) -> int:
        return len(self.candidate_ids)


@dataclass(frozen=True)
class MetricsReport:
    r_at_1: float
    r_at_5: float
    mrr: float
    pool_size: int
    query_count: int
    task: TaskKind
    fingerprint: str
    mode_kind: str
    mode_k: int
    seed: int

    def __post_init__(self):
        if self.query_count < 1:
            raise EvaluationError("metrics over zero queries")
        if not (self.r_at_1 <= self.r_at_5 + 1e-12
                and self.r_at_1 <= self.mrr + 1e-12 and self.mrr <= 1 + 1e-12):
            raise EvaluationError(
                f"inconsistent metrics: r@1={self.r_at_1}, r@5={self.r_at_5}, "
                f"mrr={self.mrr}")

    def to_dict(self) -> dict:
        return {"task": self.task.value, "pool_size": self.pool_size,
                "r_at_1": self.r_at_1, "r_at_5": self.r_at_5, "mrr": self.mrr,
                "query_count": self.query_count,
                "config": {"fingerprint": self.fingerprint,
                           "mode": self.mode_kind, "k": self.mode_k,
                           "seed": self.seed}}


def embed_pool(cands: list[Candidate], params: EncoderParams) -> EmbeddedPool:
    """Embed candidates one per row, in list order; no gradients recorded."""
    if not cands:
        raise ContractError("embed_pool of an empty candidate list")
    task = cands[0].task
    if any(c.task is not task for c in cands):
        raise ContractError("embed_pool requires a single-task candidate list")
    return EmbeddedPool([c.candidate_id for c in cands],
                        np.array([encode_candidate(c, params).values
                                  for c in cands]), task)


def retrieve(h_d: ad.Tensor, pool: EmbeddedPool,
             top_n: int) -> list[tuple[str, float]]:
    """Top-n candidate ids by descending dot product, ties to lower index."""
    if not 1 <= top_n <= pool.size:
        raise ContractError(f"top_n {top_n} outside [1, {pool.size}]")
    scores = pool.matrix @ h_d.values
    order = np.argsort(-scores, kind="stable")[:top_n]
    return [(pool.candidate_ids[i], float(scores[i])) for i in order]


def rank_by_counting(scores: np.ndarray, positive_row: int) -> int:
    """1 + strictly-higher count + equal-score-at-lower-index count."""
    s = scores[positive_row]
    higher = int(np.sum(scores > s))
    equal_before = int(np.sum(scores[:positive_row] == s))
    return 1 + higher + equal_before


def _fingerprint(ck: Checkpoint, task: TaskKind, pool_size: int, seed: int,
                 mode: ContextMode) -> str:
    h = hashlib.blake2b(digest_size=6)
    payload = json.dumps([ck.cfg.to_dict(), ck.step, task.value, pool_size,
                          seed, mode.kind.value, mode.k], sort_keys=True)
    h.update(payload.encode())
    return h.hexdigest()


def evaluate(corpus: Corpus, ck: Checkpoint, task: TaskKind, pool_size: int,
             seed: int, mode: ContextMode | None = None,
             cache: dict | None = None) -> MetricsReport:
    """Rank each example's positive inside a sampled pool; aggregate metrics.

    Tokenization uses the checkpoint's vocabulary, so the corpus may be a
    held-out split or a different file than the training corpus.

    The task's whole pool is embedded once, in pool order, and each
    sampled pool is a gather of its rows. ``cache`` keeps that embedded
    pool, every example's context vector per mode, and the sampled rows
    per pool size and seed, so calls that share it encode nothing twice.
    A cache belongs to the first corpus and checkpoint it is used with;
    passing it with any other raises ContractError.
    """
    mode = ck.cfg.mode if mode is None else mode
    examples = [ex for ex in corpus.examples if ex.task == task]
    if not examples:
        raise ContractError(f"corpus has no {task.value} examples")
    corpus.check_pool_size(task, pool_size)
    cache = {} if cache is None else cache
    owner_corpus, owner_ck = cache.setdefault("owner", (corpus, ck))
    if owner_corpus is not corpus or owner_ck is not ck:
        raise ContractError(
            "evaluation cache was built for another corpus or checkpoint")
    ids, position = corpus.pool_order(task)
    if ("rows", task, pool_size, seed) not in cache:
        cache["rows", task, pool_size, seed] = [
            np.array([position[c.candidate_id]
                      for c in sample_pool(ex, corpus, pool_size, seed)])
            for ex in examples]
    sampled = cache["rows", task, pool_size, seed]
    enc, fus = ck.views()
    if ("pool", task) not in cache:
        cache["pool", task] = embed_pool(list(corpus.pools[task].values()), enc)
    matrix = cache["pool", task].matrix
    if ("contexts", task, mode) not in cache:
        cache["contexts", task, mode] = [
            encode_context(corpus.dialogue(ex.dialogue_id), ex.query_turn_index,
                           mode, enc, fus) for ex in examples]
    hits1 = hits5 = 0
    mrr_total = 0.0
    for ex, h_d, rows in zip(examples, cache["contexts", task, mode], sampled):
        pool = EmbeddedPool([ids[i] for i in rows], matrix[rows], task)
        ranking = retrieve(h_d, pool, pool.size)
        rank = 1 + next(i for i, (cid, _) in enumerate(ranking)
                        if cid == ex.positive_id)
        hits1 += rank <= 1
        hits5 += rank <= 5
        mrr_total += 1.0 / rank
    n = len(examples)
    return MetricsReport(
        r_at_1=hits1 / n, r_at_5=hits5 / n, mrr=mrr_total / n,
        pool_size=pool_size, query_count=n, task=task,
        fingerprint=_fingerprint(ck, task, pool_size, seed, mode),
        mode_kind=mode.kind.value, mode_k=mode.k, seed=seed)


def pool_size_sweep(corpus: Corpus, ck: Checkpoint, task: TaskKind,
                    sizes: list[int], seed: int,
                    mode: ContextMode | None = None) -> list[MetricsReport]:
    """One report per pool size under a shared seed derivation; the pool
    and the contexts are encoded once for the whole sweep."""
    cache: dict = {}
    return [evaluate(corpus, ck, task, size, seed, mode, cache)
            for size in sizes]


def k_sweep(corpus: Corpus, ck: Checkpoint, task: TaskKind, ks: list[int],
            pool_size: int, seed: int) -> list[MetricsReport]:
    """Reports for each adaptive k plus the no-previous-session mode; the
    pool is encoded and sampled once for the whole sweep."""
    cache: dict = {}
    modes = [ContextMode.adaptive(k) for k in ks] + [ContextMode.no_prev()]
    return [evaluate(corpus, ck, task, pool_size, seed, mode, cache)
            for mode in modes]


ABLATION_VARIANTS = ("baseline", "no_context_enc", "no_pair", "no_hist")


def variant_config(base: TrainConfig, variant: str) -> TrainConfig:
    """Training config for one ablation variant (a single switch each)."""
    if variant == "baseline":
        return base
    if variant == "no_context_enc":
        return replace(base, mode=ContextMode.mean_all())
    if variant == "no_pair":
        return replace(base, use_pair=False)
    if variant == "no_hist":
        return replace(base, use_hist=False)
    raise ContractError(f"unknown ablation variant {variant!r}")


def ablation_run(train_corpus: Corpus, eval_corpus: Corpus,
                 base_cfg: TrainConfig, variants: list[str], pool_size: int,
                 eval_seed: int) -> dict[str, dict[str, float]]:
    """Train and evaluate each variant under shared seeds.

    Returns {variant: {task value: R@1}} over the evaluation corpus.
    """
    # every name is checked before the first variant trains
    cfgs = {variant: variant_config(base_cfg, variant) for variant in variants}
    table: dict[str, dict[str, float]] = {}
    for variant, cfg in cfgs.items():
        ck, _ = train(train_corpus, cfg)
        table[variant] = {
            task.value: evaluate(eval_corpus, ck, task, pool_size,
                                 eval_seed).r_at_1
            for task in TaskKind
            if any(ex.task == task for ex in eval_corpus.examples)}
    return table
