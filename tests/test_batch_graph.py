"""The batched training graph against the per-example reference.

Training builds one tape graph per batch (``training._batch_loss``) over
the corpus compiled into index arrays (``Corpus.training_inputs``). The
reference composes the per-example path that evaluation uses: one
``encode_context`` and one ``encode_candidate`` per item, stacked into the
same losses. Both must give the same loss and parameter gradients, and the
compiled arrays must hold exactly what the per-example path reads.
"""

import numpy as np
import pytest

import convret.autodiff as ad
import convret.fusion as fusion
import convret.training as training
from convret.corpus import (Candidate, Dialogue, RetrievalExample, Role,
                            Session, TaskKind, Utterance, build_corpus,
                            derive_rng, semi_hard_id, split_sessions)
from convret.encoder import (candidate_ids, encode_candidate, encode_utterance,
                             init_encoder_params, utterance_ids)
from convret.fusion import (ContextMode, encode_context, init_fusion_params,
                            topk_indices)
from convret.generator import GeneratorConfig, generate_synthetic
from convret.losses import batch_similarities, combined_loss
from convret.training import TrainConfig, _batch_loss, param_views, train

from test_acceptance import TINY

MODES = {"adaptive": ContextMode.adaptive(2), "adaptive3": ContextMode.adaptive(3),
         "full_concat": ContextMode.full_concat(),
         "no_prev": ContextMode.no_prev(), "mean_all": ContextMode.mean_all()}
INPUTS = TINY.training_inputs(TINY.vocab, TaskKind)


def _rows(batch):
    """The examples' indices into ``TINY.examples``."""
    return np.array([TINY.examples.index(ex) for ex in batch])


def _batch(task, seed):
    """Consecutive examples (shared dialogues) plus seeded random ones."""
    examples = [ex for ex in TINY.examples if ex.task is task]
    rng = derive_rng(seed, "batch", task.value)
    extra = rng.choice(len(examples), size=3, replace=False)
    return examples[:4] + [examples[int(i)] for i in extra]


def _easy(batch, seed):
    """A seeded easy-negative pool position per example, drawn from the
    explicitly filtered list: never its positive, never its semi-hard."""
    rng = derive_rng(seed, "easy")
    out = []
    for ex in batch:
        ids, _ = TINY.pool_order(ex.task)
        left = [p for p, cid in enumerate(ids)
                if cid not in (ex.positive_id, semi_hard_id(ex))]
        out.append(left[int(rng.integers(len(left)))])
    return np.array(out)


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


def _reference_loss(batch, easy, params, cfg, tape, frozen):
    enc, fus = param_views(params, TINY.vocab)
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
        ids, _ = TINY.pool_order(ex.task)
        easies.append(ad.dot(h, encode_candidate(
            TINY.candidate(ex.task, ids[easy[i]]), enc, tape), tape))
    cross = ad.matmul(ad.stack(contexts, tape),
                      ad.transpose(ad.stack(positives, tape), tape), tape)
    sims = batch_similarities(cross, ad.concat(semis, tape),
                              ad.concat(easies, tape), np.array(present), tape)
    return combined_loss(sims, cfg.loss_config(), tape)


def _loss_and_grads(build, params):
    tape = ad.Tape()
    loss = build(tape, params)
    # a parameter off the tape (the gate under full_concat or mean_all)
    # has a zero gradient
    return loss.item(), ad.gradients(tape, loss, params), len(tape.nodes)


CASES = [(mode, positions, frozen)
         for mode in MODES for positions in (0, 4)
         for frozen in ((False, True) if mode.startswith("adaptive") else (False,))]


@pytest.mark.parametrize("mode,positions,frozen", CASES)
def test_batched_loss_and_gradients_match_per_example_path(mode, positions, frozen):
    for t_i, task in enumerate(TaskKind):
        cfg = TrainConfig(mode=MODES[mode], dim=5, seed=30 + t_i,
                          positions=positions, gamma=1.5)
        batch = _batch(task, cfg.seed)
        easy = _easy(batch, cfg.seed)
        params = _params(cfg)
        sel = _frozen(batch, cfg.mode.k, cfg.seed) if frozen else None
        got, got_g, nodes = _loss_and_grads(
            lambda tape, p: _batch_loss(INPUTS, task, _rows(batch), easy, p,
                                        cfg, tape, sel), params)
        want, want_g, ref_nodes = _loss_and_grads(
            lambda tape, p: _reference_loss(batch, easy, p, cfg, tape, sel),
            params)
        assert abs(got - want) <= 1e-10 * abs(want)
        for name in params:
            scale = np.max(np.abs(want_g[name]))
            np.testing.assert_allclose(got_g[name], want_g[name], rtol=1e-10,
                                       atol=1e-10 * scale, err_msg=name)
        assert nodes <= 50 < ref_nodes


def test_batched_loss_passes_gradient_check_with_frozen_selection():
    cfg = TrainConfig(mode=ContextMode.adaptive(2), dim=4, seed=41, positions=4)
    batch = _batch(TaskKind.KNOWLEDGE, cfg.seed)
    easy = _easy(batch, cfg.seed)
    sel = _frozen(batch, cfg.mode.k, cfg.seed)

    def f(p):
        tape = ad.Tape()
        return tape, _batch_loss(INPUTS, TaskKind.KNOWLEDGE, _rows(batch), easy,
                                 p, cfg, tape, sel)

    err = ad.grad_check(f, _params(cfg), eps=1e-5,
                        rng=np.random.default_rng(5), max_coords=80)
    assert err < 1e-5


def _small_corpus(sessions, turns, seed):
    return generate_synthetic(GeneratorConfig(
        topics=6, dialogues_per_task=8, sessions_per_dialogue=sessions,
        turns_per_session=turns, words_per_topic=8, common_words=6,
        entities=6, utterance_words=4), seed)


def _long_corpus():
    """Texts past the utterance and candidate lengths, with unknown words."""
    words = [f"w{i % 7}" for i in range(70)]
    utts = [Utterance(Role.USER if t % 2 == 0 else Role.SYSTEM,
                      " ".join(words[t:] + words[:t]), t) for t in range(12)]
    dialogue = Dialogue("long", (Session(tuple(utts[:8])), Session(tuple(utts[8:]))))
    pools = {t: {f"{t.value}{i}": Candidate(f"{t.value}{i}", t,
                                            " ".join(words * (i + 8)))
                 for i in range(3)} for t in TaskKind}
    examples = [RetrievalExample("long", 10, t, f"{t.value}0", (f"{t.value}1",))
                for t in TaskKind]
    return build_corpus([dialogue], pools, examples)


def _seqs(ids, offsets):
    return [ids[a:b].tolist() for a, b in zip(offsets, offsets[1:])]


@pytest.mark.parametrize("corpus,drop", [
    (TINY, ()), (_small_corpus(1, 3, 5), ()), (_long_corpus(), ("w3", "w5"))],
    ids=["tiny", "single_session", "long_texts"])
def test_compiled_rows_reproduce_the_per_item_inputs(corpus, drop):
    vocab = {w: i for w, i in corpus.vocab.items() if w not in drop}
    inputs = corpus.training_inputs(vocab, TaskKind)
    for e, ex in enumerate(corpus.examples):
        prev, curr, last = split_sessions(corpus.dialogue(ex.dialogue_id),
                                          ex.query_turn_index)
        start, split, query = inputs.examples[e]
        assert (split - start, query - split) == (len(prev), len(curr))
        rows = np.arange(start, query + 1)
        utts = prev + curr + [last]
        assert _seqs(*inputs.utterance_seqs(rows)) == [
            utterance_ids(u, vocab) for u in utts]
        assert inputs.turns[rows].tolist() == [u.turn_index for u in utts]
        assert _seqs(*inputs.concat_seqs(rows[:1], rows[-1:])) == [
            fusion._concat_ids(utts, vocab)]
        ids, _ = corpus.pool_order(ex.task)
        semi = semi_hard_id(ex)
        assert ids[inputs.targets[e, 0]] == ex.positive_id
        assert ids[inputs.targets[e, 1]] == (ex.positive_id if semi is None else semi)
    for task in TaskKind:
        ids, _ = corpus.pool_order(task)
        assert _seqs(*inputs.candidate_seqs(task, np.arange(len(ids)))) == [
            candidate_ids(corpus.pools[task][cid], vocab) for cid in ids]


def test_compiled_selection_matches_per_item_top_k_over_a_run(monkeypatch):
    corpus = _small_corpus(4, 2, 9)
    cfg = TrainConfig(batch_size=4, dim=8, seed=3, positions=6,
                      mode=ContextMode.adaptive(2))
    picked = []
    top_prev = fusion._top_prev

    def recording(*args):
        picked.append(top_prev(*args))
        return picked[-1]

    encode_contexts = training.encode_contexts
    checked = []

    def checking(inputs, batch, mode, enc, fus, tape=None, frozen=None):
        out = encode_contexts(inputs, batch, mode, enc, fus, tape, frozen)
        ctx, picks = picked.pop()
        for i, e in enumerate(batch):
            ex = corpus.examples[e]
            prev, _, last = split_sessions(corpus.dialogue(ex.dialogue_id),
                                           ex.query_turn_index)
            h = encode_utterance(last, enc, position=last.turn_index).values
            scores = np.array([float(np.dot(h, encode_utterance(
                u, enc, position=u.turn_index).values)) for u in prev])
            want = topk_indices(scores, mode.k) if prev else []
            assert picks[ctx == i].tolist() == want
            checked.append(len(prev) > mode.k)
        return out

    monkeypatch.setattr(fusion, "_top_prev", recording)
    monkeypatch.setattr(training, "encode_contexts", checking)
    _, history = train(corpus, cfg, max_steps=30)
    assert len(history) == 30 and len(checked) == 30 * cfg.batch_size
    assert sum(checked) >= 30  # contexts where the choice is a real top-k


def test_compiled_selection_breaks_ties_toward_the_earlier_turn():
    # repeated texts encode identically (no position table), so the query
    # ties with both copies; each k must pick what topk_indices picks
    texts = ["a b", "c d", "a b", "c d", "e f", "a b", "a b"]
    utts = [Utterance(Role.USER if t % 2 == 0 else Role.SYSTEM, text, t)
            for t, text in enumerate(texts)]
    dialogue = Dialogue("ties", (Session(tuple(utts[:4])), Session(tuple(utts[4:]))))
    pools = {t: {f"{t.value}{i}": Candidate(f"{t.value}{i}", t, "a c")
                 for i in range(2)} for t in TaskKind}
    corpus = build_corpus([dialogue], pools, [
        RetrievalExample("ties", 6, TaskKind.PERSONA, "persona0", ())])
    inputs = corpus.training_inputs(corpus.vocab, ())
    enc = init_encoder_params(corpus.vocab, d=4, seed=2)
    prev, _, last = split_sessions(dialogue, 6)
    h = encode_utterance(last, enc).values
    scores = np.array([float(np.dot(h, encode_utterance(u, enc).values))
                       for u in prev])
    assert scores[0] == scores[2]
    start, split, query = inputs.examples[[0]].T
    for k in (1, 2, 3, 4):
        _, picks = fusion._top_prev(inputs, start, split, query, k, enc)
        assert picks.tolist() == topk_indices(scores, k)
