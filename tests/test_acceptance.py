"""Acceptance checks, one test per numbered criterion.

Every test prints a single "criterion N (...): PASS/FAIL" line with its key
numbers (visible with -s, or in the captured output on failure) and then
asserts the stated tolerances. All corpora, models, and probes are seeded,
so each run reproduces identical numbers. The default-scale corpus and its
trained checkpoint are built once and shared across criteria 5 and 7.
"""

import json
import math
import time

import numpy as np
import pytest

from convret import autodiff as ad
from convret.cli import main as cli_main
from convret.corpus import (TaskKind, derive_rng, sample_pool, semi_hard_id,
                            split_corpus, split_sessions)
from convret.encoder import (EncoderParams, encode_candidate, encode_text,
                             encode_utterance, init_encoder_params)
from convret.evaluation import (EmbeddedPool, ablation_run, evaluate, k_sweep,
                                pool_size_sweep, rank_by_counting, retrieve)
from convret.fusion import (ContextMode, FusionParams, attend, encode_context,
                            gate_fuse, init_fusion_params, topk_indices)
from convret.generator import GeneratorConfig, generate_synthetic
from convret.losses import (LossConfig, batch_similarities, combined_loss,
                            historical_contrastive_loss,
                            pairwise_similarity_loss)
from convret.training import TrainConfig, initial_checkpoint, train

INSTANCES = 100  # gradient-check instances per operation family


def _line(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def _tiny_corpus():
    cfg = GeneratorConfig(topics=6, dialogues_per_task=20,
                          sessions_per_dialogue=3, turns_per_session=1,
                          words_per_topic=8, common_words=6, entities=6,
                          utterance_words=4)
    return generate_synthetic(cfg, seed=17)


TINY = _tiny_corpus()


@pytest.fixture(scope="module")
def default_run():
    """Default-scale corpus, 10% held-out split, and a trained checkpoint."""
    corpus = generate_synthetic(GeneratorConfig(), seed=0)
    train_c, held_c = split_corpus(corpus, 0.1, seed=0)
    t0 = time.perf_counter()
    ck, _ = train(train_c, TrainConfig())
    t_train = time.perf_counter() - t0
    return held_c, ck, t_train


# -------------------------------------------------------------------------
# criterion 1: finite-difference gradient suite
# -------------------------------------------------------------------------

def _family_encoder(i):
    rng = derive_rng(900, "enc", i)
    words = [w for w in TINY.vocab if not w.startswith("[")]
    text = " ".join(rng.choice(words, size=int(rng.integers(1, 6))))
    lead = int(rng.integers(0, 9))
    positions = 8 if i % 2 else 0
    enc = init_encoder_params(TINY.vocab, d=5, seed=1000 + i,
                              positions=positions)
    pos_arg = int(rng.integers(0, 8)) if positions else None
    probe = ad.tensor(rng.standard_normal(5))

    def f(params):
        tape = ad.Tape()
        ep = EncoderParams(params["embedding"], params["ff_weight"],
                           params["ff_bias"], TINY.vocab,
                           params.get("position"))
        h = encode_text(text, lead, ep, tape, position=pos_arg)
        return tape, ad.dot(h, probe, tape)

    return f, dict(enc.tensors())


def _family_attend(i):
    rng = derive_rng(900, "attend", i)
    d, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
    params = {"q": ad.Tensor(rng.standard_normal(d), requires_grad=True)}
    for j in range(m):
        params[f"h{j}"] = ad.Tensor(rng.standard_normal(d), requires_grad=True)
    probe = ad.tensor(rng.standard_normal(d))

    def f(p):
        tape = ad.Tape()
        out = attend(p["q"], ad.stack([p[f"h{j}"] for j in range(m)], tape), tape)
        return tape, ad.dot(out, probe, tape)

    return f, params


def _family_gate(i):
    rng = derive_rng(900, "gate", i)
    d = int(rng.integers(2, 6))
    params = {"hh": ad.Tensor(rng.standard_normal(d), requires_grad=True),
              "hq": ad.Tensor(rng.standard_normal(d), requires_grad=True),
              "w": ad.Tensor(0.5 * rng.standard_normal(2 * d),
                             requires_grad=True)}
    probe = ad.tensor(rng.standard_normal(d))

    def f(p):
        tape = ad.Tape()
        h_d, lam = gate_fuse(p["hh"], p["hq"], FusionParams(p["w"]), tape)
        return tape, ad.add(ad.dot(h_d, probe, tape), lam, tape)

    return f, params


def _loss_family(kind):
    def build(i):
        rng = derive_rng(900, kind, i)
        b = int(rng.integers(1, 5))
        cross = rng.standard_normal((b, b))
        params = {"cross": ad.Tensor(cross, requires_grad=True),
                  "semi": ad.Tensor(rng.standard_normal(b), requires_grad=True),
                  "easy": ad.Tensor(rng.standard_normal(b), requires_grad=True)}
        present = rng.random(b) < 0.7
        if kind == "pair":
            present[int(rng.integers(b))] = True
        # steeper gammas push exp terms below the finite-difference noise
        # floor; module-level loss tests cover them at value level
        cfg = LossConfig(gamma=float(rng.choice([0.5, 1.0, 2.0])))

        def f(p):
            tape = ad.Tape()
            s = batch_similarities(p["cross"], p["semi"], p["easy"], present,
                                   tape)
            if kind == "hist":
                out = historical_contrastive_loss(s, tape)
            elif kind == "pair":
                out = pairwise_similarity_loss(s, cfg, tape)
            else:
                out = combined_loss(s, cfg, tape)
            return tape, out

        return f, params

    return build


def _family_full_forward(i):
    rng = derive_rng(900, "full", i)
    task = list(TaskKind)[i % 3]
    examples = [ex for ex in TINY.examples if ex.task is task]
    batch = [examples[int(rng.integers(len(examples)))] for _ in range(2)]
    enc = init_encoder_params(TINY.vocab, d=5, seed=2000 + i)
    fus = init_fusion_params(5, seed=2000 + i)
    mode = ContextMode.adaptive(2)
    cfg = LossConfig(gamma=float(rng.choice([0.5, 1.0])))

    pool_ids = {t: sorted(TINY.pools[t]) for t in TaskKind}
    plan = []  # (example, frozen selection, semi id or None, easy id)
    for ex in batch:
        d_obj = TINY.dialogue(ex.dialogue_id)
        prev, _, last = split_sessions(d_obj, ex.query_turn_index)
        h_ut = encode_utterance(last, enc)
        scores = np.array([float(h_ut.values @ encode_utterance(u, enc).values)
                           for u in prev])
        frozen = topk_indices(scores, mode.k) if prev else []
        semi = semi_hard_id(ex)
        others = [c for c in pool_ids[ex.task]
                  if c != ex.positive_id and c != semi]
        plan.append((ex, frozen, semi, others[int(rng.integers(len(others)))]))

    def f(params):
        tape = ad.Tape()
        ep = EncoderParams(params["embedding"], params["ff_weight"],
                           params["ff_bias"], TINY.vocab)
        fp = FusionParams(params["gate_w"])
        contexts, positives, semis, easies, present = [], [], [], [], []
        for ex, frozen, semi, easy in plan:
            d_obj = TINY.dialogue(ex.dialogue_id)
            h = encode_context(d_obj, ex.query_turn_index, mode, ep, fp, tape,
                               frozen_selection=frozen)
            contexts.append(h)
            positives.append(encode_candidate(
                TINY.candidate(ex.task, ex.positive_id), ep, tape))
            present.append(semi is not None)
            semi_id = semi if semi is not None else easy
            semis.append(ad.dot(h, encode_candidate(
                TINY.candidate(ex.task, semi_id), ep, tape), tape))
            easies.append(ad.dot(h, encode_candidate(
                TINY.candidate(ex.task, easy), ep, tape), tape))
        cross = ad.matmul(ad.stack(contexts, tape),
                          ad.transpose(ad.stack(positives, tape), tape), tape)
        sims = batch_similarities(cross, ad.concat(semis, tape),
                                  ad.concat(easies, tape),
                                  np.array(present), tape)
        return tape, combined_loss(sims, cfg, tape)

    params = dict(enc.tensors())
    params.update(fus.tensors())
    return f, params


def test_criterion_1_gradient_suite():
    families = [("encoder", _family_encoder), ("attend", _family_attend),
                ("gate_fuse", _family_gate), ("hist", _loss_family("hist")),
                ("pair", _loss_family("pair")),
                ("combined", _loss_family("combined")),
                ("full_forward", _family_full_forward)]
    t0 = time.perf_counter()
    worst = {}
    for name, build in families:
        # the full composite stacks enough cancellation that round-off
        # dominates central differences at 1e-4; a coarser step stays well
        # inside the truncation regime for it
        eps = 1e-3 if name == "full_forward" else 1e-4
        errs = []
        for i in range(INSTANCES):
            f, params = build(i)
            errs.append(ad.grad_check(f, params, eps=eps,
                                      rng=derive_rng(901, name, i),
                                      max_coords=5))
        worst[name] = max(errs)
    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) < 1e-4 and elapsed < 120.0
    _line(1, "gradient suite", ok,
          f"max rel err {max(worst.values()):.2e} over "
          f"{INSTANCES} instances x {len(families)} families in {elapsed:.1f}s")
    for name, err in worst.items():
        assert err < 1e-4, f"{name} gradient error {err}"
    assert elapsed < 120.0


# -------------------------------------------------------------------------
# criterion 2: loss identities
# -------------------------------------------------------------------------

def _sims(cross, semi, easy, present):
    return batch_similarities(ad.tensor(cross), ad.tensor(semi),
                              ad.tensor(easy), np.array(present))


def test_criterion_2_loss_identities():
    # all-equal similarities: every exponent is zero, so the pairwise loss
    # is exactly log(1 + K + L) = log(1 + 2B)
    worst_equal = 0.0
    for b, s in [(1, 0.0), (3, 1.7), (16, -2.3)]:
        sims = _sims(np.full((b, b), s), np.full(b, s), np.full(b, s),
                     [True] * b)
        got = pairwise_similarity_loss(sims, LossConfig()).item()
        worst_equal = max(worst_equal, abs(got - math.log1p(2 * b)))

    # no semi-hard candidates anywhere: the combined objective collapses to
    # a conventional contrastive loss (in-batch positives plus one random
    # negative), computed here independently with numpy
    worst_plain = 0.0
    for b in (2, 8):
        rng = derive_rng(902, b)
        cross = 1.3 * rng.standard_normal((b, b))
        easy = rng.standard_normal(b)
        sims = _sims(cross, np.zeros(b), easy, [False] * b)
        got = combined_loss(sims, LossConfig()).item()
        want = np.mean([np.logaddexp.reduce(np.append(cross[i], easy[i]))
                        - cross[i, i] for i in range(b)])
        worst_plain = max(worst_plain, abs(got - want))

    ok = worst_equal < 1e-12 and worst_plain < 1e-10
    _line(2, "loss identities", ok,
          f"log(1+K+L) dev {worst_equal:.2e} (tol 1e-12), "
          f"plain-contrastive dev {worst_plain:.2e} (tol 1e-10)")
    assert worst_equal < 1e-12
    assert worst_plain < 1e-10


# -------------------------------------------------------------------------
# criterion 3: worked loss values
# -------------------------------------------------------------------------

def test_criterion_3_worked_values():
    # single example, own positive 2.0 against its semi-hard 1.0
    hist1 = historical_contrastive_loss(
        _sims(np.array([[2.0]]), np.array([1.0]), np.array([-9.0]),
              [True])).item()
    # symmetric pair of examples, each with cross row [2, 0] (up to
    # relabeling) and semi-hard 1.0: the mean equals the per-example value
    hist2 = historical_contrastive_loss(
        _sims(np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([1.0, 1.0]),
              np.array([-9.0, -9.0]), [True, True])).item()
    # one ordering triple at gamma=1: positive 1.0, semi-hard 0.5, easy 0.0
    pair_lo = pairwise_similarity_loss(
        _sims(np.array([[1.0]]), np.array([0.5]), np.array([0.0]), [True]),
        LossConfig(gamma=1.0)).item()
    # raising the positive to 2.0 must lower the loss
    pair_hi = pairwise_similarity_loss(
        _sims(np.array([[2.0]]), np.array([0.5]), np.array([0.0]), [True]),
        LossConfig(gamma=1.0)).item()

    formulas = {
        "hist B=1": (hist1, math.log(1 + math.exp(-1.0))),
        "hist B=2": (hist2, math.log(math.exp(2) + 1 + math.e) - 2),
        "pair": (pair_lo, math.log(1 + 2 * math.exp(-0.5))),
        "pair raised": (pair_hi, math.log(1 + math.exp(-0.5)
                                          + math.exp(-1.5))),
    }
    worst = max(abs(got - want) for got, want in formulas.values())
    # two reference decimals quoted alongside these cases (0.407697 and
    # 0.794496) disagree with their own generating formulas by about 1e-4;
    # the formula results (0.407606, 0.794377) are the values asserted here
    literals = {"hist B=1": 0.313262, "hist B=2": 0.407606,
                "pair": 0.794377, "pair raised": 0.604131}
    lit_dev = max(abs(formulas[k][0] - v) for k, v in literals.items())
    ok = worst < 1e-12 and lit_dev < 1e-6 and pair_hi < pair_lo
    _line(3, "worked values", ok,
          f"formula dev {worst:.2e} (tol 1e-12), decimal dev {lit_dev:.2e} "
          f"(tol 1e-6), monotone {pair_hi:.6f} < {pair_lo:.6f}; two quoted "
          f"decimals (0.407697, 0.794496) are ~1e-4 transcription errors "
          f"for 0.407606, 0.794377")
    assert worst < 1e-12
    assert lit_dev < 1e-6
    assert pair_hi < pair_lo


# -------------------------------------------------------------------------
# criterion 4: metric oracles and chance calibration
# -------------------------------------------------------------------------

def test_criterion_4_metric_oracles_and_chance():
    rng = derive_rng(903)
    mismatches = 0
    mrr_sorted = mrr_counted = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        matrix = rng.integers(0, 4, size=(n, 3)).astype(float)  # many ties
        pool = EmbeddedPool([f"c{i}" for i in range(n)], matrix,
                            TaskKind.PERSONA)
        h = ad.tensor(rng.integers(0, 3, size=3).astype(float))
        scores = matrix @ h.values
        oracle = sorted(range(n), key=lambda i: (-scores[i], i))
        got = [cid for cid, _ in retrieve(h, pool, n)]
        mismatches += got != [f"c{i}" for i in oracle]
        positive = int(rng.integers(n))
        mrr_sorted += 1.0 / (1 + got.index(f"c{positive}"))
        mrr_counted += 1.0 / rank_by_counting(scores, positive)
    oracle_ok = mismatches == 0 and abs(mrr_sorted - mrr_counted) == 0.0

    chance = generate_synthetic(GeneratorConfig(positive_coupling=False),
                                seed=21)
    ck = initial_checkpoint(chance, TrainConfig(seed=4))
    devs = {}
    for pool_size in (2, 64):
        rep = evaluate(chance, ck, TaskKind.PERSONA, pool_size, seed=55)
        p = 1.0 / pool_size
        se = math.sqrt(p * (1 - p) / rep.query_count)
        devs[pool_size] = abs(rep.r_at_1 - p) / se
        assert rep.query_count >= 2000
    chance_ok = all(d < 3.0 for d in devs.values())

    ok = oracle_ok and chance_ok
    _line(4, "metric oracles", ok,
          f"0 of 1000 ranking mismatches, MRR oracle gap 0; chance dev "
          f"{devs[2]:.2f} SE (pool 2), {devs[64]:.2f} SE (pool 64)")
    assert oracle_ok
    assert chance_ok


# -------------------------------------------------------------------------
# criterion 5: end-to-end learnability at default scale
# -------------------------------------------------------------------------

def test_criterion_5_learnability(default_run):
    held_c, ck, t_train = default_run
    t0 = time.perf_counter()
    r1 = {task.value: evaluate(held_c, ck, task, 64, seed=123).r_at_1
          for task in TaskKind}
    elapsed = t_train + (time.perf_counter() - t0)
    ok = all(v >= 0.60 for v in r1.values()) and elapsed < 600.0
    detail = ", ".join(f"{k} R@1={v:.3f}" for k, v in r1.items())
    _line(5, "learnability", ok,
          f"{detail} at pool 64 held-out (bar 0.60, chance 0.016), "
          f"{elapsed:.0f}s (cap 600)")
    for task, value in r1.items():
        assert value >= 0.60, f"{task} R@1 {value}"
    assert elapsed < 600.0


# -------------------------------------------------------------------------
# criterion 6: ablation trends over 3 seeds
# -------------------------------------------------------------------------

def test_criterion_6_ablation_trends():
    corpus = generate_synthetic(GeneratorConfig(dialogues_per_task=500),
                                seed=0)
    train_c, held_c = split_corpus(corpus, 0.1, seed=0)
    wins_hist = wins_ctx = cells = 0
    for seed in (0, 1, 2):
        table = ablation_run(train_c, held_c,
                             TrainConfig(epochs=8, seed=seed),
                             ["baseline", "no_hist", "no_context_enc"],
                             pool_size=64, eval_seed=123)
        for task in TaskKind:
            cells += 1
            full = table["baseline"][task.value]
            wins_hist += full > table["no_hist"][task.value]
            wins_ctx += full > table["no_context_enc"][task.value]
    ok = wins_hist >= 6 and wins_ctx >= 6 and cells == 9
    _line(6, "ablation trends", ok,
          f"full beats no_hist in {wins_hist}/9 cells and no_context_enc "
          f"in {wins_ctx}/9 (bar 6/9 each)")
    assert cells == 9
    assert wins_hist >= 6
    assert wins_ctx >= 6


# -------------------------------------------------------------------------
# criterion 7: sweep shapes
# -------------------------------------------------------------------------

def test_criterion_7_sweep_shapes(default_run):
    held_c, ck, _ = default_run
    sizes = [256, 128, 64, 32, 16, 8, 4, 2]
    inversions = {}
    for task in TaskKind:
        r1 = [r.r_at_1 for r in pool_size_sweep(held_c, ck, task, sizes,
                                                seed=123)]
        # listed largest pool first, so R@1 should weakly increase
        inversions[task.value] = sum(r1[i] > r1[i + 1]
                                     for i in range(len(r1) - 1))
    reports = k_sweep(held_c, ck, TaskKind.PERSONA, [1, 2, 3, 4], 64,
                      seed=123)
    best_k = max(r.r_at_1 for r in reports[:4])
    no_prev = reports[4].r_at_1
    shape_ok = (len(reports) == 5 and reports[4].mode_kind == "no_prev"
                and no_prev <= best_k)
    ok = all(v <= 1 for v in inversions.values()) and shape_ok
    _line(7, "sweep shapes", ok,
          f"pool-sweep inversions {inversions} (tol 1 each); k-sweep 5 "
          f"reports, no_prev {no_prev:.3f} <= best-k {best_k:.3f}")
    for task, inv in inversions.items():
        assert inv <= 1, f"{task} pool sweep has {inv} inversions"
    assert shape_ok


# -------------------------------------------------------------------------
# criterion 8: byte-identical end-to-end determinism
# -------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path, capsys):
    def run(tag):
        corpus = tmp_path / f"{tag}.jsonl"
        ckpt = tmp_path / f"{tag}.ckpt"
        outs = []
        for argv in (
            ["gen-data", "--out", str(corpus), "--topics", "8",
             "--dialogues-per-task", "12", "--entities", "6", "--seed", "9"],
            ["train", "--corpus", str(corpus), "--out", str(ckpt),
             "--epochs", "1", "--batch", "4", "--seed", "9"],
            ["eval", "--corpus", str(corpus), "--ckpt", str(ckpt), "--task",
             "persona", "--pool-size", "8", "--seed", "9"],
        ):
            assert cli_main(argv) == 0
            outs.append(capsys.readouterr().out)
        return corpus.read_bytes(), ckpt.read_bytes(), outs

    corpus_a, ckpt_a, outs_a = run("a")
    corpus_b, ckpt_b, outs_b = run("b")
    same_corpus = corpus_a == corpus_b
    same_ckpt = ckpt_a == ckpt_b
    same_report = outs_a[2] == outs_b[2]
    report = json.loads(outs_a[2])
    ok = same_corpus and same_ckpt and same_report
    _line(8, "determinism", ok,
          f"corpus bytes equal: {same_corpus}, checkpoint bytes equal: "
          f"{same_ckpt}, eval report equal: {same_report} "
          f"(R@1={report['r_at_1']:.3f})")
    assert same_corpus
    assert same_ckpt
    assert same_report
