"""Optimizer, training loop, and checkpoint round-trip behavior."""

import copy
import hashlib
import itertools
import json
import struct
from dataclasses import replace

import numpy as np
import pytest

import convret.corpus as corpus_mod
import convret.training as training_mod
from convret.corpus import (Candidate, TaskKind, build_corpus, derive_rng,
                            load_corpus, semi_hard_id, write_corpus)
from convret.encoder import encode_candidate
from convret.errors import CheckpointError, ConfigError, TrainingError
from convret.fusion import ContextMode
from convret.generator import GeneratorConfig, generate_synthetic
from convret.training import (Checkpoint, Schedule, TrainConfig,
                              _epoch_batches, _steps, _task_examples,
                              initial_checkpoint, load_checkpoint,
                              optimizer_step, save_checkpoint, schedule_lr,
                              steps_per_epoch, train)


def tiny_corpus(dialogues=12, seed=0, sessions=3):
    # three sessions give half the examples a semi-hard candidate, so the
    # pairwise loss runs in every test built on this corpus
    cfg = GeneratorConfig(topics=6, dialogues_per_task=dialogues,
                          sessions_per_dialogue=sessions, turns_per_session=2,
                          words_per_topic=8, common_words=6, entities=6,
                          utterance_words=4)
    return generate_synthetic(cfg, seed)


def tiny_train_cfg(**kw):
    base = dict(epochs=1, batch_size=4, learning_rate=1e-3, dim=8, seed=0)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def _ck(**arrays):
    """A checkpoint of just ``arrays``, with zero moments at step 0."""
    arrays = {n: np.array(a, dtype=float) for n, a in arrays.items()}
    return Checkpoint(arrays, {n: np.zeros_like(a) for n, a in arrays.items()},
                      {n: np.zeros_like(a) for n, a in arrays.items()}, {},
                      tiny_train_cfg(), 0)


def test_zero_gradient_zero_decay_is_a_fixed_point():
    ck = _ck(w=[1.0, -2.0])
    optimizer_step(ck, {"w": np.zeros(2)}, lr_t=0.1)
    np.testing.assert_array_equal(ck.arrays["w"], [1.0, -2.0])
    assert ck.step == 1


def test_one_step_matches_hand_coded_reference():
    # f(x) = x^2 at x = 1: g = 2
    x = 1.0
    g = 2.0
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    m_hat = m / (1 - b1)
    v_hat = v / (1 - b2)
    want = x - lr * m_hat / (np.sqrt(v_hat) + eps)

    ck = _ck(x=x)
    optimizer_step(ck, {"x": np.asarray(g)}, lr_t=lr)
    assert abs(float(ck.arrays["x"]) - want) < 1e-12
    assert float(ck.moments_m["x"]) == m and float(ck.moments_v["x"]) == v


def test_weight_decay_is_decoupled():
    ck = _ck(w=[2.0])
    optimizer_step(ck, {"w": np.zeros(1)}, lr_t=0.5, weight_decay=0.1)
    assert abs(ck.arrays["w"][0] - (2.0 - 0.5 * 0.1 * 2.0)) < 1e-15


def test_non_finite_gradient_aborts_with_step_index():
    ck = _ck(a=[1.0], w=[1.0])
    optimizer_step(ck, {"a": np.ones(1), "w": np.zeros(1)}, lr_t=0.1)
    before = copy.deepcopy(ck)
    with pytest.raises(TrainingError, match="w at step 2"):
        optimizer_step(ck, {"a": np.ones(1), "w": np.array([np.nan])}, lr_t=0.1)
    # nothing moved, not even the parameter before the bad one
    assert ck.step == 1
    for got, want in ((ck.arrays, before.arrays), (ck.moments_m, before.moments_m),
                      (ck.moments_v, before.moments_v)):
        assert all(np.array_equal(got[n], want[n]) for n in want)


def test_linear_decay_reaches_zero_on_final_step():
    cfg = tiny_train_cfg(schedule=Schedule.LINEAR_DECAY, learning_rate=0.4)
    assert schedule_lr(cfg, 10, 10) == 0.0
    assert schedule_lr(cfg, 1, 10) == pytest.approx(0.4 * 0.9)
    const = tiny_train_cfg(learning_rate=0.4)
    assert schedule_lr(const, 10, 10) == 0.4


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_train_cfg(epochs=-1)
    with pytest.raises(ConfigError):
        tiny_train_cfg(batch_size=0)
    with pytest.raises(ConfigError):
        tiny_train_cfg(learning_rate=0.0)
    with pytest.raises(ConfigError, match="gamma"):
        tiny_train_cfg(gamma=-1.0)
    with pytest.raises(ConfigError, match="positions"):
        tiny_train_cfg(positions=-1)
    with pytest.raises(ConfigError, match="dim"):
        tiny_train_cfg(dim=0)
    with pytest.raises(ConfigError, match="weight_decay"):
        tiny_train_cfg(weight_decay=-1e-3)
    with pytest.raises(ConfigError, match="loss term"):
        tiny_train_cfg(use_hist=False, use_pair=False)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_zero_epochs_returns_initialization_and_empty_history():
    corpus = tiny_corpus()
    cfg = tiny_train_cfg(epochs=0)
    ck, history = train(corpus, cfg)
    assert history == []
    init = initial_checkpoint(corpus, cfg)
    assert ck.step == 0
    for name in ck.arrays:
        np.testing.assert_array_equal(ck.arrays[name], init.arrays[name])


def test_training_is_deterministic():
    corpus = tiny_corpus()
    cfg = tiny_train_cfg()
    ck1, h1 = train(corpus, cfg)
    ck2, h2 = train(corpus, cfg)
    assert h1 == h2
    for name in ck1.arrays:
        np.testing.assert_array_equal(ck1.arrays[name], ck2.arrays[name])
    ck3, h3 = train(corpus, tiny_train_cfg(seed=1))
    assert h1 != h3


def test_training_decreases_loss_and_updates_every_parameter():
    corpus = tiny_corpus(dialogues=24)
    cfg = tiny_train_cfg(epochs=4, learning_rate=3e-3)
    ck, history = train(corpus, cfg)
    assert all(np.isfinite(v) for v in history)
    assert ck.step == len(history) == 4 * steps_per_epoch(corpus, cfg)
    k = min(10, len(history) // 2)
    assert np.mean(history[-k:]) < np.mean(history[:k])
    init = initial_checkpoint(corpus, cfg)
    for name in ck.arrays:
        assert not np.array_equal(ck.arrays[name], init.arrays[name]), name


def test_single_regime_never_touches_other_pools():
    corpus = tiny_corpus()
    cfg = tiny_train_cfg(regime=TaskKind.KNOWLEDGE)
    train(corpus, cfg)
    assert corpus.pool_reads[TaskKind.KNOWLEDGE] > 0
    assert corpus.pool_reads[TaskKind.PERSONA] == 0
    assert corpus.pool_reads[TaskKind.RESPONSE] == 0


def test_trainings_with_equal_vocabularies_compile_the_corpus_once(monkeypatch):
    calls = []
    compile_utterances = corpus_mod._compile_utterances

    def counted(corpus, vocab):
        calls.append(vocab)
        return compile_utterances(corpus, vocab)

    monkeypatch.setattr(corpus_mod, "_compile_utterances", counted)
    corpus = tiny_corpus()
    cfg = tiny_train_cfg(regime=TaskKind.PERSONA)
    first, _ = train(corpus, cfg)
    reads = dict(corpus.pool_reads)
    again, _ = train(corpus, tiny_train_cfg(regime=TaskKind.PERSONA, seed=1))
    assert len(calls) == 1 and corpus.pool_reads == reads
    assert again.vocab == first.vocab and again.vocab is not first.vocab
    # another vocabulary compiles anew
    vocab = {**corpus.vocab, "extra": len(corpus.vocab)}
    train(corpus, cfg, start=replace(initial_checkpoint(corpus, cfg), vocab=vocab))
    assert len(calls) == 2


def test_insufficient_examples_raise_config_error():
    corpus = tiny_corpus(dialogues=2)  # 2 examples per task
    with pytest.raises(ConfigError):
        train(corpus, tiny_train_cfg(batch_size=16))
    with pytest.raises(ConfigError):
        train(corpus, tiny_train_cfg(regime=TaskKind.PERSONA, batch_size=16))


def test_full_regime_interleaves_tasks_round_robin():
    corpus = tiny_corpus()
    cfg = tiny_train_cfg()
    tasks = _task_examples(corpus, cfg)
    inputs = corpus.training_inputs(corpus.vocab, tasks)
    seq = [t for t, _, _ in _epoch_batches(inputs, tasks, cfg, epoch=0)]
    per = len(seq) // 3
    want = [t for _ in range(per) for t in TaskKind]
    assert seq == want
    for t, batch, easy in _epoch_batches(inputs, tasks, cfg, epoch=0):
        assert {corpus.examples[e].task for e in batch} == {t}
        assert len(batch) == len(easy) == cfg.batch_size


def test_easy_negative_never_positive_or_semi_hard():
    corpus = tiny_corpus()  # half the examples have a semi-hard
    for seed, epoch in itertools.product((0, 7), range(3)):
        cfg = tiny_train_cfg(seed=seed)
        tasks = _task_examples(corpus, cfg)
        inputs = corpus.training_inputs(corpus.vocab, tasks)
        # oracle: the same per-(task, epoch) draw over each task's examples
        # in corpus order, indexing the explicitly filtered id list
        want = {}
        for t, rows in tasks.items():
            exs = [corpus.examples[e] for e in rows]
            left = [[c for c in corpus.pools[t]
                     if c not in (ex.positive_id, semi_hard_id(ex))] for ex in exs]
            picks = derive_rng(seed, "easy", t.value, epoch).integers(
                [len(ids) for ids in left])
            want.update((int(e), ids[p]) for e, ids, p in zip(rows, left, picks))
        got = {}
        for t, batch, easy in _epoch_batches(inputs, tasks, cfg, epoch):
            ids, _ = corpus.pool_order(t)
            got.update((int(e), ids[p]) for e, p in zip(batch, easy))
        assert len(got) == _steps(tasks, cfg) * cfg.batch_size
        assert got == {e: want[e] for e in got}


def test_train_groups_examples_by_task_once(monkeypatch):
    calls = []
    task_examples = training_mod._task_examples
    monkeypatch.setattr(training_mod, "_task_examples",
                        lambda *args: calls.append(args) or task_examples(*args))
    train(tiny_corpus(), tiny_train_cfg(), max_steps=1)
    assert len(calls) == 1


def test_easy_negative_needs_a_candidate_left(monkeypatch):
    # every persona example's positive is the pool's one candidate
    full = tiny_corpus()
    task = TaskKind.PERSONA
    only = full.examples[[ex.task for ex in full.examples].index(task)].positive_id
    corpus = build_corpus(
        full.dialogues, {**full.pools, task: {only: full.pools[task][only]}},
        [replace(ex, positive_id=only, historical_ids=()) if ex.task is task else ex
         for ex in full.examples])
    cfg = tiny_train_cfg(regime=task)
    steps = []
    monkeypatch.setattr(training_mod, "optimizer_step",
                        lambda *args: steps.append(args))
    with pytest.raises(ConfigError, match="persona pool has no easy negative"):
        train(corpus, cfg)
    assert steps == []


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    corpus = tiny_corpus()
    ck, _ = train(corpus, tiny_train_cfg())
    p = tmp_path / "model.ckpt"
    save_checkpoint(ck, p)
    back = load_checkpoint(p)
    assert back.vocab == ck.vocab
    assert back.cfg == ck.cfg
    assert back.step == ck.step
    for name in ck.arrays:
        np.testing.assert_array_equal(back.arrays[name], ck.arrays[name])
        np.testing.assert_array_equal(back.moments_m[name], ck.moments_m[name])
        np.testing.assert_array_equal(back.moments_v[name], ck.moments_v[name])
    # forward pass identical before and after
    cand = Candidate("z", TaskKind.PERSONA, "t0w1 t0w2")
    a = encode_candidate(cand, ck.views()[0]).values
    b = encode_candidate(cand, back.views()[0]).values
    np.testing.assert_array_equal(a, b)
    save_checkpoint(back, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == p.read_bytes()


def test_parameter_views_leave_checkpoint_arrays_writeable(tmp_path):
    corpus = tiny_corpus(dialogues=3)
    cfg = tiny_train_cfg(batch_size=2)
    init = initial_checkpoint(corpus, cfg)
    save_checkpoint(init, tmp_path / "model.ckpt")
    loaded = load_checkpoint(tmp_path / "model.ckpt")
    trained, _ = train(corpus, cfg, start=loaded)
    for ck in (init, loaded, trained):
        enc, fus = ck.views()
        for arrays in (ck.arrays, ck.moments_m, ck.moments_v):
            assert all(a.flags.writeable and a.flags.owndata
                       for a in arrays.values())
        assert not enc.embedding.values.flags.writeable
        assert not fus.gate_w.values.flags.writeable


@pytest.mark.parametrize("epochs,max_steps", [(1, None), (0, None), (1, 0)])
def test_train_leaves_its_start_unchanged_and_unshared(epochs, max_steps):
    corpus = tiny_corpus(dialogues=3)
    cfg = tiny_train_cfg(batch_size=2)
    start, _ = train(corpus, cfg, max_steps=2)
    before = copy.deepcopy(start)
    ck, _ = train(corpus, replace(cfg, epochs=epochs), start=start,
                  max_steps=max_steps)
    assert start.step == before.step == 2
    for field in ("arrays", "moments_m", "moments_v"):
        got, kept = getattr(ck, field), getattr(start, field)
        for name, was in getattr(before, field).items():
            np.testing.assert_array_equal(kept[name], was)
            assert not np.shares_memory(got[name], kept[name])


def test_checkpoint_corruption_and_version_errors(tmp_path):
    corpus = tiny_corpus(dialogues=3)
    ck = initial_checkpoint(corpus, tiny_train_cfg())
    p = tmp_path / "model.ckpt"
    save_checkpoint(ck, p)
    blob = p.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad)
    old = tmp_path / "old.ckpt"
    old.write_bytes(b"UCR1" + blob[4:])
    with pytest.raises(CheckpointError, match="incompatible checkpoint version"):
        load_checkpoint(old)
    for name, data, message in [
            ("short", blob[:35], "truncated"),
            ("unsigned", blob[:-9], "checksum"),
            ("flipped", blob[:-1] + bytes([blob[-1] ^ 1]), "checksum"),
            ("trunc", resign(blob, lambda body: body[:-9]), "truncated"),
            ("cut_header", resign(blob, lambda body: body[:20]), "truncated"),
            ("extra", resign(blob, lambda body: body + b"\x00"), "trailing")]:
        (tmp_path / name).write_bytes(data)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(tmp_path / name)
    for edit in (_drop_step, _negative_step, _fractional_step, _bogus_mode,
                 _fractional_k):
        broken = tmp_path / f"{edit.__name__}.ckpt"
        broken.write_bytes(edit(blob))
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(broken)
    ck.vocab = {tok: 2 * i for tok, i in ck.vocab.items()}
    with pytest.raises(CheckpointError, match="not contiguous"):
        save_checkpoint(ck, tmp_path / "gaps.ckpt")


def test_non_finite_loss_aborts_with_step_index():
    corpus = tiny_corpus(dialogues=3)
    cfg = tiny_train_cfg(batch_size=2)
    start = initial_checkpoint(corpus, cfg)
    start.arrays["embedding"][0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(TrainingError,
                                                      match="loss at step 1"):
        train(corpus, cfg, start=start)


@pytest.mark.parametrize("shape", [[10**7, 10**7], [-3, 2], [2**62]])
def test_impossible_array_shapes_are_rejected_before_reading(tmp_path, shape):
    corpus = tiny_corpus(dialogues=3)
    p = tmp_path / "model.ckpt"
    save_checkpoint(initial_checkpoint(corpus, tiny_train_cfg()), p)
    p.write_bytes(edit_header(p.read_bytes(),
                               lambda h: h["arrays"][0].__setitem__(1, shape)))
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(p)


def resign(blob: bytes, edit) -> bytes:
    """A checkpoint whose bytes before the SHA-256 trailer are
    ``edit(bytearray)``'s result, signed again, so that loading gets past
    the checksum to what the edit broke."""
    body = bytes(edit(bytearray(blob[:-32])))
    return body + hashlib.sha256(body).digest()


def edit_header(blob: bytes, edit) -> bytes:
    """Rewrite a checkpoint's JSON header record, keeping the rest."""
    def rewrite(body):
        (n,) = struct.unpack("<I", body[4:8])
        header = json.loads(body[8:8 + n])
        edit(header)
        payload = json.dumps(header).encode()
        return body[:4] + struct.pack("<I", len(payload)) + payload + body[8 + n:]
    return resign(blob, rewrite)


def _drop_step(blob: bytes) -> bytes:
    return edit_header(blob, lambda h: h.pop("step"))


def _negative_step(blob: bytes) -> bytes:
    return edit_header(blob, lambda h: h.update(step=-3))


def _fractional_step(blob: bytes) -> bytes:
    return edit_header(blob, lambda h: h.update(step=1.7))


def _bogus_mode(blob: bytes) -> bytes:
    return edit_header(blob, lambda h: h["config"]["mode"].update(kind="bogus"))


def _fractional_k(blob: bytes) -> bytes:
    return edit_header(blob, lambda h: h["config"]["mode"].update(k=2.5))


def _break_corpus(corpus, ck):
    corpus.dialogues = (None, *corpus.dialogues)  # raises after the candidate records


def _break_checkpoint(corpus, ck):
    # raises after the header, the parameters and the first moments
    ck.moments_v["gate_w"] = np.full(ck.moments_v["gate_w"].shape, "x", dtype=object)


@pytest.mark.parametrize("write,obj,spoil", [
    (write_corpus, lambda corpus, ck: corpus, _break_corpus),
    (save_checkpoint, lambda corpus, ck: ck, _break_checkpoint)])
def test_failed_write_keeps_the_previous_file(tmp_path, write, obj, spoil):
    corpus = tiny_corpus(dialogues=3)
    ck = initial_checkpoint(corpus, tiny_train_cfg())
    path = tmp_path / "out"
    write(obj(corpus, ck), path)
    before = path.read_bytes()
    spoil(corpus, ck)
    with pytest.raises((AttributeError, ValueError)):
        write(obj(corpus, ck), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize("stop", [
    lambda per_epoch: per_epoch // 2, lambda per_epoch: per_epoch,
    lambda per_epoch: 2 * per_epoch - 3],
    ids=["mid_first_epoch", "epoch_boundary", "mid_last_epoch"])
def test_resume_equals_uninterrupted_run(tmp_path, stop):
    corpus = tiny_corpus()
    cfg = tiny_train_cfg(epochs=2, schedule=Schedule.LINEAR_DECAY)
    full_ck, full_hist = train(corpus, cfg)
    per_epoch = steps_per_epoch(corpus, cfg)
    assert len(full_hist) == 2 * per_epoch and per_epoch > 3

    part_ck, part_hist = train(corpus, cfg, max_steps=stop(per_epoch))
    p = tmp_path / "part.ckpt"
    save_checkpoint(part_ck, p)
    resumed_ck, resumed_hist = train(corpus, cfg, start=load_checkpoint(p))
    assert part_hist + resumed_hist == full_hist
    assert resumed_ck.step == full_ck.step
    for name in full_ck.arrays:
        np.testing.assert_array_equal(resumed_ck.arrays[name],
                                      full_ck.arrays[name])
        np.testing.assert_array_equal(resumed_ck.moments_m[name],
                                      full_ck.moments_m[name])


def test_resume_after_single_step_matches(tmp_path):
    corpus = tiny_corpus()
    cfg = tiny_train_cfg(epochs=1)
    full_ck, _ = train(corpus, cfg)
    part_ck, _ = train(corpus, cfg, max_steps=1)
    resumed_ck, _ = train(corpus, cfg, start=part_ck)
    for name in full_ck.arrays:
        np.testing.assert_array_equal(resumed_ck.arrays[name],
                                      full_ck.arrays[name])


def test_trained_checkpoint_survives_corpus_file_round_trip(tmp_path):
    # the corpus a checkpoint is evaluated on may be re-read from disk
    corpus = tiny_corpus()
    path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, path)
    reread = load_corpus(path)
    cfg = tiny_train_cfg()
    a, _ = train(corpus, cfg)
    b, _ = train(reread, cfg)
    for name in a.arrays:
        np.testing.assert_array_equal(a.arrays[name], b.arrays[name])


def test_modes_and_regimes_train(tmp_path):
    corpus = tiny_corpus()
    for mode in (ContextMode.no_prev(), ContextMode.full_concat(),
                 ContextMode.mean_all(), ContextMode.adaptive(1)):
        ck, hist = train(corpus, tiny_train_cfg(mode=mode, epochs=1))
        assert all(np.isfinite(v) for v in hist)
    ck, hist = train(corpus, tiny_train_cfg(positions=8))
    assert "position" in ck.arrays
    p = tmp_path / "pos.ckpt"
    save_checkpoint(ck, p)
    assert "position" in load_checkpoint(p).arrays


def test_pair_only_objective_survives_semi_free_batches():
    # two-session dialogues put every example at the first example unit, so
    # no example carries history; the pair-only loss is then the constant
    # zero and the step must apply zero gradients instead of failing
    corpus = tiny_corpus(sessions=2)
    assert all(not ex.historical_ids for ex in corpus.examples)
    cfg = tiny_train_cfg(use_hist=False)
    ck, hist = train(corpus, cfg)
    assert hist and all(v == 0.0 for v in hist)
    init = initial_checkpoint(corpus, cfg)
    for name in ck.arrays:
        np.testing.assert_array_equal(ck.arrays[name], init.arrays[name])
    assert ck.step == len(hist)
