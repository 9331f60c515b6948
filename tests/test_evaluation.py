"""Retrieval metric tests against independent oracles."""

from collections import Counter

import numpy as np
import pytest

from convret import autodiff as ad
from convret import evaluation
from convret.cli import main
from convret.corpus import TaskKind, build_corpus, sample_pool, write_corpus
from convret.encoder import encode_candidate
from convret.errors import CapacityError, ContractError, EvaluationError
from convret.evaluation import (ABLATION_VARIANTS, EmbeddedPool, MetricsReport,
                                ablation_run, embed_pool, evaluate, k_sweep,
                                pool_size_sweep, rank_by_counting, retrieve,
                                variant_config)
from convret.fusion import ContextMode, ModeKind, encode_context
from convret.generator import GeneratorConfig, generate_synthetic
from convret.training import TrainConfig, initial_checkpoint, train


def small_corpus(seed=5):
    return generate_synthetic(
        GeneratorConfig(topics=6, dialogues_per_task=20, sessions_per_dialogue=2,
                        turns_per_session=2, entities=8), seed=seed)


def pool_of(n, d, task=TaskKind.PERSONA, rng=None):
    rng = np.random.default_rng(0) if rng is None else rng
    return EmbeddedPool([f"c{i}" for i in range(n)],
                        rng.standard_normal((n, d)), task)


def test_retrieve_matches_full_sort_oracle():
    # scores drawn from a small integer set so ties are common; the oracle
    # is an explicit sort on (-score, index)
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        matrix = rng.integers(0, 4, size=(n, 3)).astype(float)
        pool = EmbeddedPool([f"c{i}" for i in range(n)], matrix, TaskKind.PERSONA)
        h = ad.tensor(rng.integers(0, 3, size=3).astype(float))
        scores = matrix @ h.values
        oracle = sorted(range(n), key=lambda i: (-scores[i], i))
        got = retrieve(h, pool, n)
        assert [cid for cid, _ in got] == [f"c{i}" for i in oracle]
        assert all(s == pytest.approx(scores[int(cid[1:])]) for cid, s in got)


def test_rank_by_counting_agrees_with_sorted_position():
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(1, 10))
        scores = rng.integers(0, 3, size=n).astype(float)
        order = sorted(range(n), key=lambda i: (-scores[i], i))
        for row in range(n):
            assert rank_by_counting(scores, row) == 1 + order.index(row)


def test_retrieve_top_n_bounds():
    pool = pool_of(4, 3)
    h = ad.tensor(np.ones(3))
    assert len(retrieve(h, pool, 1)) == 1
    assert len(retrieve(h, pool, 4)) == 4
    with pytest.raises(ContractError):
        retrieve(h, pool, 0)
    with pytest.raises(ContractError):
        retrieve(h, pool, 5)


def test_embedded_pool_shape_validation():
    with pytest.raises(ContractError):
        EmbeddedPool(["a", "b"], np.zeros((3, 4)), TaskKind.PERSONA)


def test_embed_pool_rows_match_single_encodes():
    corpus = small_corpus()
    ck = initial_checkpoint(corpus, TrainConfig(seed=3))
    enc, _ = ck.views()
    cands = list(corpus.pools[TaskKind.KNOWLEDGE].values())[:6]
    pool = embed_pool(cands, enc)
    assert pool.size == 6
    assert pool.task is TaskKind.KNOWLEDGE
    for i, c in enumerate(cands):
        assert np.array_equal(pool.matrix[i], encode_candidate(c, enc).values)


def test_embed_pool_rejects_mixed_tasks_and_empty():
    corpus = small_corpus()
    ck = initial_checkpoint(corpus, TrainConfig(seed=3))
    enc, _ = ck.views()
    mixed = [next(iter(corpus.pools[TaskKind.PERSONA].values())),
             next(iter(corpus.pools[TaskKind.RESPONSE].values()))]
    with pytest.raises(ContractError):
        embed_pool(mixed, enc)
    with pytest.raises(ContractError):
        embed_pool([], enc)


def _refuse(*args, **kwargs):
    raise AssertionError("encoded although the cache holds the result")


def test_evaluate_reads_its_cache(monkeypatch):
    corpus = small_corpus()
    ck = initial_checkpoint(corpus, TrainConfig(seed=3))
    task, mode = TaskKind.PERSONA, ck.cfg.mode
    cache = {}
    first = evaluate(corpus, ck, task, 8, seed=5, cache=cache)
    assert set(cache) == {"owner", ("pool", task), ("contexts", task, mode),
                          ("rows", task, 8, 5)}
    monkeypatch.setattr(evaluation, "encode_candidate", _refuse)
    monkeypatch.setattr(evaluation, "encode_context", _refuse)
    assert evaluate(corpus, ck, task, 8, seed=5, cache=cache) == first
    # zero contexts tie every score, so each positive ranks at its position
    # in the sampled pool
    contexts = cache["contexts", task, mode]
    cache["contexts", task, mode] = [ad.tensor(np.zeros(ck.cfg.dim))] * len(contexts)
    tied = evaluate(corpus, ck, task, 8, seed=5, cache=cache)
    ranks = [1 + [c.candidate_id for c in sample_pool(ex, corpus, 8, 5)]
             .index(ex.positive_id)
             for ex in corpus.examples if ex.task is task]
    assert tied.mrr == pytest.approx(np.mean([1 / r for r in ranks]), abs=1e-12)


def test_evaluate_caches_the_whole_pool_embedded_in_pool_order():
    corpus = small_corpus()
    two = build_corpus(corpus.dialogues, corpus.pools,
                       [ex for ex in corpus.examples
                        if ex.task is TaskKind.PERSONA][:2])
    ck = initial_checkpoint(corpus, TrainConfig(seed=3))
    cache = {}
    evaluate(two, ck, TaskKind.PERSONA, 4, seed=5, cache=cache)
    cached = cache["pool", TaskKind.PERSONA]
    # two queries at pool 4 sample at most 8 rows, yet the whole pool is embedded
    assert len(np.unique(np.concatenate(cache["rows", TaskKind.PERSONA, 4, 5]))) \
        <= 8 < cached.size
    enc, _ = ck.views()
    ids, _ = two.pool_order(TaskKind.PERSONA)
    want = embed_pool([corpus.pools[TaskKind.PERSONA][cid] for cid in ids], enc)
    assert cached.candidate_ids == want.candidate_ids == ids
    assert np.array_equal(cached.matrix, want.matrix)


def test_evaluate_checks_pool_size_and_cache_owner_before_encoding(monkeypatch):
    corpus = small_corpus()
    ck = initial_checkpoint(corpus, TrainConfig(seed=3))
    cache = {}
    evaluate(corpus, ck, TaskKind.PERSONA, 4, seed=5, cache=cache)
    monkeypatch.setattr(evaluation, "encode_candidate", _refuse)
    monkeypatch.setattr(evaluation, "encode_context", _refuse)
    with pytest.raises(ContractError, match="another corpus or checkpoint"):
        evaluate(corpus, initial_checkpoint(corpus, TrainConfig(seed=3)),
                 TaskKind.KNOWLEDGE, 4, seed=5, cache=cache)
    with pytest.raises(ContractError, match="another corpus or checkpoint"):
        evaluate(small_corpus(), ck, TaskKind.KNOWLEDGE, 4, seed=5, cache=cache)
    with pytest.raises(ContractError, match="below 2"):
        evaluate(corpus, ck, TaskKind.PERSONA, 1, seed=5)
    too_many = len(corpus.pools[TaskKind.PERSONA]) + 1
    with pytest.raises(CapacityError, match=str(too_many)):
        evaluate(corpus, ck, TaskKind.PERSONA, too_many, seed=5, cache=cache)


def test_metrics_report_validation():
    good = dict(r_at_1=0.2, r_at_5=0.5, mrr=0.3, pool_size=8, query_count=10,
                task=TaskKind.PERSONA, fingerprint="ab", mode_kind="adaptive",
                mode_k=3, seed=0)
    MetricsReport(**good)
    with pytest.raises(EvaluationError):
        MetricsReport(**{**good, "query_count": 0})
    with pytest.raises(EvaluationError):
        MetricsReport(**{**good, "r_at_5": 0.1})
    with pytest.raises(EvaluationError):
        MetricsReport(**{**good, "mrr": 0.1})
    with pytest.raises(EvaluationError):
        MetricsReport(**{**good, "mrr": 1.5, "r_at_5": 1.0})


def test_evaluate_matches_independent_metric_loop():
    # recompute every metric by hand: same pools, fresh embeddings, ranks by
    # counting instead of sorting
    corpus = small_corpus()
    cfg = TrainConfig(epochs=1, batch_size=4, seed=1)
    ck, _ = train(corpus, cfg)
    enc, fus = ck.views()
    for task in (TaskKind.PERSONA, TaskKind.RESPONSE):
        rep = evaluate(corpus, ck, task, pool_size=8, seed=77)
        examples = [ex for ex in corpus.examples if ex.task == task]
        hits1 = hits5 = 0
        mrr = 0.0
        for ex in examples:
            cands = sample_pool(ex, corpus, 8, seed=77)
            matrix = np.array([encode_candidate(c, enc).values for c in cands])
            h = encode_context(corpus.dialogue(ex.dialogue_id),
                               ex.query_turn_index, cfg.mode, enc, fus)
            row = [c.candidate_id for c in cands].index(ex.positive_id)
            rank = rank_by_counting(matrix @ h.values, row)
            hits1 += rank == 1
            hits5 += rank <= 5
            mrr += 1.0 / rank
        n = len(examples)
        assert rep.query_count == n
        assert rep.r_at_1 == pytest.approx(hits1 / n, abs=1e-12)
        assert rep.r_at_5 == pytest.approx(hits5 / n, abs=1e-12)
        assert rep.mrr == pytest.approx(mrr / n, abs=1e-12)


def test_evaluate_is_deterministic_and_mode_defaults_to_checkpoint():
    corpus = small_corpus()
    ck, _ = train(corpus, TrainConfig(epochs=1, batch_size=4, seed=1))
    a = evaluate(corpus, ck, TaskKind.PERSONA, 8, seed=5)
    b = evaluate(corpus, ck, TaskKind.PERSONA, 8, seed=5)
    assert a == b
    explicit = evaluate(corpus, ck, TaskKind.PERSONA, 8, seed=5, mode=ck.cfg.mode)
    assert explicit == a
    other = evaluate(corpus, ck, TaskKind.PERSONA, 8, seed=5,
                     mode=ContextMode.no_prev())
    assert other.mode_kind == "no_prev"
    assert other.fingerprint != a.fingerprint


def test_evaluate_rejects_missing_task_examples():
    full = small_corpus()
    ck = initial_checkpoint(full, TrainConfig(seed=3))
    corpus = build_corpus(full.dialogues, full.pools,
                          [ex for ex in full.examples if ex.task is not TaskKind.KNOWLEDGE])
    with pytest.raises(ContractError):
        evaluate(corpus, ck, TaskKind.KNOWLEDGE, 8, seed=5)


def test_perfect_and_floor_retrieval_examples():
    # identical embeddings rank by pool position, so the positive's rank is
    # uniform over the shuffled pool; a pool of 2 means r@1 close to half
    corpus = generate_synthetic(
        GeneratorConfig(topics=6, dialogues_per_task=60, sessions_per_dialogue=2,
                        turns_per_session=2, entities=8, positive_coupling=False),
        seed=9)
    ck = initial_checkpoint(corpus, TrainConfig(seed=3))
    ck.arrays["embedding"] = np.zeros_like(ck.arrays["embedding"])
    rep = evaluate(corpus, ck, TaskKind.PERSONA, 2, seed=11)
    assert 0.3 < rep.r_at_1 < 0.7
    assert rep.r_at_5 == 1.0
    # a pool holding only positives of one example is a guaranteed hit
    ck2, _ = train(corpus, TrainConfig(epochs=1, batch_size=4, seed=1))
    full = evaluate(corpus, ck2, TaskKind.PERSONA, len(corpus.pools[TaskKind.PERSONA]),
                    seed=11)
    assert full.r_at_1 <= full.r_at_5 <= 1.0


def test_pool_size_sweep_reports_sizes():
    corpus = small_corpus()
    ck, _ = train(corpus, TrainConfig(epochs=1, batch_size=4, seed=1))
    reports = pool_size_sweep(corpus, ck, TaskKind.PERSONA, [2, 4, 8], seed=3)
    assert [r.pool_size for r in reports] == [2, 4, 8]
    assert all(r.task is TaskKind.PERSONA for r in reports)


def test_k_sweep_layout():
    corpus = small_corpus()
    ck, _ = train(corpus, TrainConfig(epochs=1, batch_size=4, seed=1))
    reports = k_sweep(corpus, ck, TaskKind.PERSONA, [1, 2, 4], pool_size=8, seed=3)
    assert [r.mode_kind for r in reports] == ["adaptive"] * 3 + ["no_prev"]
    assert [r.mode_k for r in reports[:3]] == [1, 2, 4]
    assert len({r.fingerprint for r in reports}) == 4


SWEEP_MODES = [ContextMode.adaptive(2), ContextMode.full_concat(),
               ContextMode.no_prev(), ContextMode.mean_all()]


def test_sweep_reports_equal_fresh_evaluations():
    corpus = small_corpus()
    ck, _ = train(corpus, TrainConfig(epochs=1, batch_size=4, seed=1))
    for task in TaskKind:
        for mode in SWEEP_MODES:
            for r in pool_size_sweep(corpus, ck, task, [16, 8, 4, 2], 3, mode):
                fresh = evaluate(corpus, ck, task, r.pool_size, 3, mode)
                assert r.to_dict() == fresh.to_dict()
        modes = [ContextMode.adaptive(k) for k in (1, 2, 4)] + [ContextMode.no_prev()]
        for r, mode in zip(k_sweep(corpus, ck, task, [1, 2, 4], 8, 3), modes,
                           strict=True):
            assert r.to_dict() == evaluate(corpus, ck, task, 8, 3, mode).to_dict()


def test_sweeps_encode_each_candidate_and_context_once(monkeypatch):
    corpus = small_corpus()
    ck = initial_checkpoint(corpus, TrainConfig(seed=3))
    calls = Counter()

    def candidate(c, params):
        calls["candidate", c.task, c.candidate_id] += 1
        return encode_candidate(c, params)

    def context(d, query_turn, mode, enc, fus):
        calls["context", d.dialogue_id, query_turn, mode] += 1
        return encode_context(d, query_turn, mode, enc, fus)

    monkeypatch.setattr(evaluation, "encode_candidate", candidate)
    monkeypatch.setattr(evaluation, "encode_context", context)
    for task in TaskKind:
        examples = [ex for ex in corpus.examples if ex.task is task]
        for run, modes in (
                (lambda: pool_size_sweep(corpus, ck, task, [16, 8, 4, 2], 3),
                 [ck.cfg.mode]),
                (lambda: k_sweep(corpus, ck, task, [1, 2, 4], 8, 3),
                 [ContextMode.adaptive(k) for k in (1, 2, 4)]
                 + [ContextMode.no_prev()])):
            calls.clear()
            run()
            assert max(calls.values()) == 1
            assert {k[2] for k in calls if k[0] == "candidate"} == set(
                corpus.pools[task])
            assert {k[1:] for k in calls if k[0] == "context"} == {
                (ex.dialogue_id, ex.query_turn_index, mode)
                for ex in examples for mode in modes}


def test_variant_config_switches():
    base = TrainConfig(seed=1)
    assert variant_config(base, "baseline") == base
    assert variant_config(base, "no_context_enc").mode.kind is ModeKind.MEAN_ALL
    assert variant_config(base, "no_pair").use_pair is False
    assert variant_config(base, "no_hist").use_hist is False
    with pytest.raises(ContractError):
        variant_config(base, "no_such_thing")


def test_ablation_run_table_shape():
    corpus = small_corpus()
    base = TrainConfig(epochs=1, batch_size=4, seed=1)
    table = ablation_run(corpus, corpus, base, list(ABLATION_VARIANTS[:2]),
                         pool_size=8, eval_seed=5)
    assert set(table) == {"baseline", "no_context_enc"}
    for row in table.values():
        assert set(row) == {t.value for t in TaskKind}
        assert all(0.0 <= v <= 1.0 for v in row.values())


def test_ablation_run_checks_every_variant_before_training(monkeypatch, tmp_path,
                                                           capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before every variant name was checked")

    monkeypatch.setattr(evaluation, "train", no_training)
    corpus = small_corpus()
    with pytest.raises(ContractError, match="bogus"):
        ablation_run(corpus, corpus, TrainConfig(seed=1), ["baseline", "bogus"],
                     pool_size=8, eval_seed=5)
    path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, path)
    code = main(["ablate", "--corpus", str(path), "--variants", "baseline,bogus"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("convret:") == 1 and err.startswith("convret: unknown ablation")
