"""The batched training graph against the per-example reference.

Training builds one tape graph per batch (``training._batch_loss``). The
reference composes the per-example path that evaluation uses: one
``encode_context`` and one ``encode_candidate`` per item, stacked into the
same losses. Both must give the same loss and parameter gradients.
"""

import numpy as np
import pytest

import convret.autodiff as ad
from convret.corpus import TaskKind, derive_rng, semi_hard_id, split_sessions
from convret.encoder import EncoderParams, encode_candidate, init_encoder_params
from convret.fusion import (ContextMode, FusionParams, encode_context,
                            init_fusion_params)
from convret.losses import batch_similarities, combined_loss
from convret.training import TrainConfig, _batch_loss, _easy_negative

from test_acceptance import TINY

MODES = {"adaptive": ContextMode.adaptive(2),
         "full_concat": ContextMode.full_concat(),
         "no_prev": ContextMode.no_prev(), "mean_all": ContextMode.mean_all()}
EPOCH = 1


def _batch(task, seed):
    """Consecutive examples (shared dialogues) plus seeded random ones."""
    examples = [ex for ex in TINY.examples if ex.task is task]
    rng = derive_rng(seed, "batch", task.value)
    extra = rng.choice(len(examples), size=3, replace=False)
    return examples[:4] + [examples[int(i)] for i in extra]


def _params(cfg):
    enc = init_encoder_params(TINY.vocab, d=cfg.dim, seed=cfg.seed,
                              positions=cfg.positions)
    params = dict(enc.tensors())
    params.update(init_fusion_params(cfg.dim, cfg.seed).tensors())
    # spread the small initialization so every term carries weight
    rng = derive_rng(cfg.seed, "spread")
    return {k: ad.Tensor(t.values * rng.uniform(5.0, 15.0), requires_grad=True)
            for k, t in params.items()}


def _frozen(batch, k, seed):
    """A seeded selection that generally differs from the natural top-k."""
    rng = derive_rng(seed, "frozen")
    out = []
    for ex in batch:
        prev, _, _ = split_sessions(TINY.dialogue(ex.dialogue_id),
                                    ex.query_turn_index)
        size = min(k, len(prev))
        out.append(sorted(int(i) for i in
                          rng.choice(len(prev), size=size, replace=False)))
    return out


def _reference_loss(batch, params, cfg, tape, frozen):
    enc = EncoderParams(params["embedding"], params["ff_weight"],
                        params["ff_bias"], TINY.vocab, params.get("position"))
    fus = FusionParams(params["gate_w"])
    contexts, positives, semis, easies, present = [], [], [], [], []
    for i, ex in enumerate(batch):
        h = encode_context(TINY.dialogue(ex.dialogue_id), ex.query_turn_index,
                           cfg.mode, enc, fus, tape,
                           frozen_selection=None if frozen is None else frozen[i])
        contexts.append(h)
        positives.append(encode_candidate(
            TINY.candidate(ex.task, ex.positive_id), enc, tape))
        semi = semi_hard_id(ex)
        present.append(semi is not None)
        semi_id = ex.positive_id if semi is None else semi
        semis.append(ad.dot(h, encode_candidate(
            TINY.candidate(ex.task, semi_id), enc, tape), tape))
        easy = _easy_negative(ex, EPOCH, cfg.seed, TINY)
        easies.append(ad.dot(h, encode_candidate(
            TINY.candidate(ex.task, easy), enc, tape), tape))
    cross = ad.matmul(ad.stack(contexts, tape),
                      ad.transpose(ad.stack(positives, tape), tape), tape)
    sims = batch_similarities(cross, ad.concat(semis, tape),
                              ad.concat(easies, tape), np.array(present), tape)
    return combined_loss(sims, cfg.loss_config(), tape)


def _loss_and_grads(build, params):
    tape = ad.Tape()
    loss = build(tape, params)
    grads = ad.backward(tape, loss)
    # a parameter off the tape (the gate under full_concat or mean_all)
    # has a zero gradient
    return loss.item(), {k: grads[tape.node_of(t)].values
                         if tape.node_of(t) is not None else np.zeros(t.shape)
                         for k, t in params.items()}, len(tape.nodes)


CASES = [(mode, positions, frozen)
         for mode in MODES for positions in (0, 4)
         for frozen in ((False, True) if mode == "adaptive" else (False,))]


@pytest.mark.parametrize("mode,positions,frozen", CASES)
def test_batched_loss_and_gradients_match_per_example_path(mode, positions, frozen):
    for t_i, task in enumerate(TaskKind):
        cfg = TrainConfig(mode=MODES[mode], dim=5, seed=30 + t_i,
                          positions=positions, gamma=1.5)
        batch = _batch(task, cfg.seed)
        params = _params(cfg)
        sel = _frozen(batch, cfg.mode.k, cfg.seed) if frozen else None
        got, got_g, nodes = _loss_and_grads(
            lambda tape, p: _batch_loss(TINY, batch, p, cfg, TINY.vocab, EPOCH,
                                        tape, sel), params)
        want, want_g, ref_nodes = _loss_and_grads(
            lambda tape, p: _reference_loss(batch, p, cfg, tape, sel),
            params)
        assert abs(got - want) <= 1e-10 * abs(want)
        for name in params:
            scale = np.max(np.abs(want_g[name]))
            np.testing.assert_allclose(got_g[name], want_g[name], rtol=1e-10,
                                       atol=1e-10 * scale, err_msg=name)
        assert nodes <= 100 < ref_nodes


def test_batched_loss_passes_gradient_check_with_frozen_selection():
    cfg = TrainConfig(mode=ContextMode.adaptive(2), dim=4, seed=41, positions=4)
    batch = _batch(TaskKind.KNOWLEDGE, cfg.seed)
    sel = _frozen(batch, cfg.mode.k, cfg.seed)

    def f(p):
        tape = ad.Tape()
        return tape, _batch_loss(TINY, batch, p, cfg, TINY.vocab, EPOCH, tape,
                                 sel)

    err = ad.grad_check(f, _params(cfg), eps=1e-5,
                        rng=np.random.default_rng(5), max_coords=80)
    assert err < 1e-5
