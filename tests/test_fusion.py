"""Top-K selection, attention, gating and whole-dialogue context encoding."""

import itertools
import math

import numpy as np
import pytest

import convret.autodiff as ad
from convret.corpus import (Dialogue, Role, Session, SPECIAL_TOKENS, Utterance,
                            derive_rng, split_sessions)
from convret.encoder import encode_ids, encode_utterance, init_encoder_params
from convret.errors import ConfigError, ContractError, ConvretError
from convret.fusion import (ContextMode, FusionParams, ModeKind, _concat_ids,
                            attend, encode_context, gate_fuse,
                            init_fusion_params, topk_indices)
from convret.generator import GeneratorConfig, generate_synthetic
from convret.training import param_views


def vec(*xs):
    return ad.Tensor(list(xs))


def make_vocab(words):
    vocab = {tok: i for i, tok in enumerate(SPECIAL_TOKENS)}
    for w in words:
        vocab.setdefault(w, len(vocab))
    return vocab


def dialogue_from(sessions_texts):
    turn = 0
    sessions = []
    for sess in sessions_texts:
        utts = []
        for i, text in enumerate(sess):
            role = Role.USER if i % 2 == 0 else Role.SYSTEM
            utts.append(Utterance(role, text, turn))
            turn += 1
        sessions.append(Session(tuple(utts)))
    return Dialogue("d", tuple(sessions))


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def test_select_topk_examples():
    assert topk_indices(np.array([0.9, 0.1, 0.5]), 2) == [0, 2]
    assert len(topk_indices(np.array([0.9, 0.1, 0.5]), 10)) == 3
    assert topk_indices(np.array([0.5, 0.5, 0.1]), 1) == [0]
    assert topk_indices(np.array([]), 3) == []
    with pytest.raises(ContractError):
        topk_indices(np.array([0.9, 0.1, 0.5]), 0)


def test_topk_matches_full_sort_oracle_with_ties():
    rng = np.random.default_rng(23)
    for trial in range(1000):
        n = int(rng.integers(1, 12))
        scores = rng.integers(0, 4, size=n).astype(float)  # many ties
        k = int(rng.integers(1, n + 2))
        oracle = sorted(sorted(range(n), key=lambda i: (-scores[i], i))[:min(k, n)])
        assert topk_indices(scores, k) == oracle


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def test_attend_single_key_returns_it():
    q = vec(0.3, -0.2, 0.5)
    v = vec(1.0, 2.0, 3.0)
    np.testing.assert_allclose(attend(q, ad.stack([v])).values, v.values, atol=1e-15)


def test_attend_equal_scores_average_the_values():
    q = vec(1.0, 0.0)
    a, b = vec(0.0, 2.0), vec(0.0, -4.0)  # both orthogonal to q
    np.testing.assert_allclose(attend(q, ad.stack([a, b])).values, [0.0, -1.0], atol=1e-14)


def test_attend_matches_direct_formula_oracle():
    rng = np.random.default_rng(29)
    for _ in range(30):
        d = int(rng.integers(2, 9))
        q = ad.Tensor(rng.normal(size=d))
        keys = [ad.Tensor(rng.normal(size=d)) for _ in range(4)]
        s = np.array([q.values @ k.values for k in keys]) / math.sqrt(d)
        w = np.exp(s - s.max())
        w /= w.sum()
        want = sum(wi * k.values for wi, k in zip(w, keys))
        np.testing.assert_allclose(attend(q, ad.stack(keys)).values, want,
                                   rtol=1e-12, atol=1e-12)
        assert abs(w.sum() - 1.0) <= 1e-12 and np.all(w > 0)
    with pytest.raises(ConvretError):
        attend(q, ad.Tensor(np.zeros((0, d))))


def _sum(t, tape):
    """The sum of a matrix's entries, as a scalar on the tape."""
    return ad.matmul(ad.matmul(ad.Tensor(np.ones(t.shape[0])), t, tape),
                     ad.Tensor(np.ones(t.shape[1])), tape)


def test_attend_with_query_rows_and_a_mask_matches_rows_and_gradients():
    # as in encode_contexts: the queries are rows of the attended matrix,
    # and the last query keeps only its own row
    rng = np.random.default_rng(43)
    n, d = 6, 4
    q_cols = np.array([5, 1, 3, 2])
    mask = rng.random((q_cols.size, n)) < 0.5
    mask[np.arange(q_cols.size), q_cols] = True
    mask[-1] = np.arange(n) == q_cols[-1]
    params = {"U": ad.Tensor(rng.normal(size=(n, d)), requires_grad=True)}
    probe = ad.Tensor(rng.normal(size=(q_cols.size, d)))

    def f(p):
        tape = ad.Tape()
        out = attend(ad.gather(p["U"], q_cols, tape), p["U"], tape, mask)
        return tape, _sum(ad.mul(out, probe, tape), tape)

    assert ad.grad_check(f, params, eps=1e-5) < 1e-6
    U = params["U"].values
    got = attend(ad.Tensor(U[q_cols]), params["U"], mask=mask).values
    for i, keep in enumerate(mask):
        want = attend(ad.Tensor(U[q_cols[i]]), ad.Tensor(U[keep]))
        np.testing.assert_allclose(got[i], want.values, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(got[-1], U[q_cols[-1]])


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------

def test_gate_zero_weight_blends_evenly():
    params = FusionParams(ad.Tensor(np.zeros(4), requires_grad=True))
    h_d, lam = gate_fuse(vec(1.0, 0.0), vec(0.0, 1.0), params)
    assert lam.item() == 0.5
    np.testing.assert_allclose(h_d.values, [0.5, 0.5])


def test_gate_equal_inputs_are_a_fixed_point():
    rng = np.random.default_rng(31)
    params = init_fusion_params(3, seed=1)
    h = ad.Tensor(rng.normal(size=3))
    h_d, lam = gate_fuse(h, h, params)
    np.testing.assert_allclose(h_d.values, h.values, rtol=1e-12)
    assert 0.0 < lam.item() < 1.0


def test_gate_matches_direct_formula_and_stays_on_segment():
    rng = np.random.default_rng(37)
    for _ in range(25):
        d = int(rng.integers(1, 7))
        params = FusionParams(ad.Tensor(rng.normal(size=2 * d), requires_grad=True))
        a = ad.Tensor(rng.normal(size=d))
        b = ad.Tensor(rng.normal(size=d))
        h_d, lam = gate_fuse(a, b, params)
        z = params.gate_w.values @ np.concatenate([a.values, b.values])
        lam_want = 1.0 / (1.0 + np.exp(-z))
        assert abs(lam.item() - lam_want) <= 1e-12
        np.testing.assert_allclose(
            h_d.values, lam_want * a.values + (1 - lam_want) * b.values,
            rtol=1e-12, atol=1e-12)
        lo = np.minimum(a.values, b.values) - 1e-12
        hi = np.maximum(a.values, b.values) + 1e-12
        assert np.all(h_d.values >= lo) and np.all(h_d.values <= hi)


def test_gate_on_matrices_blends_row_by_row_and_passes_gradient_check():
    rng = np.random.default_rng(47)
    b, d = 4, 3
    params = {"hh": ad.Tensor(rng.normal(size=(b, d)), requires_grad=True),
              "hq": ad.Tensor(rng.normal(size=(b, d)), requires_grad=True),
              "w": ad.Tensor(rng.normal(size=2 * d), requires_grad=True)}
    probe = ad.Tensor(rng.normal(size=(b, d)))

    def f(p):
        tape = ad.Tape()
        h_d, lam = gate_fuse(p["hh"], p["hq"], FusionParams(p["w"]), tape)
        return tape, ad.add(_sum(ad.mul(h_d, probe, tape), tape),
                            _sum(lam, tape), tape)

    assert ad.grad_check(f, params, eps=1e-5) < 1e-6
    fus = FusionParams(params["w"])
    h_d, lam = gate_fuse(params["hh"], params["hq"], fus)
    assert lam.shape == (b, 1)
    for i in range(b):
        want_h, want_lam = gate_fuse(ad.Tensor(params["hh"].values[i]),
                                     ad.Tensor(params["hq"].values[i]), fus)
        assert want_lam.shape == ()
        np.testing.assert_allclose(h_d.values[i], want_h.values, rtol=0, atol=1e-12)
        assert abs(lam.values[i, 0] - want_lam.item()) <= 1e-12


# ---------------------------------------------------------------------------
# encode_context
# ---------------------------------------------------------------------------

WORDS = [f"t{i}" for i in range(40)]


def make_setup(d=6, seed=0):
    vocab = make_vocab(WORDS)
    return init_encoder_params(vocab, d=d, seed=seed), init_fusion_params(d, seed)


def test_context_mode_validation():
    for kind, k in [(ModeKind.ADAPTIVE, 0), (ModeKind.NO_PREV, -1),
                    (ModeKind.ADAPTIVE, 2.5), (ModeKind.ADAPTIVE, True),
                    (ModeKind.MEAN_ALL, "3"), ("adaptive", 3), (None, 3)]:
        with pytest.raises(ConfigError):
            ContextMode(kind, k)
    assert ContextMode.adaptive().k == 3


def test_lone_query_returns_plain_utterance_encoding():
    enc, fus = make_setup()
    d = dialogue_from([["t1 t2"]])
    want = encode_utterance(d.turns()[0], enc).values
    for mode in (ContextMode.adaptive(3), ContextMode.no_prev(),
                 ContextMode.mean_all()):
        got = encode_context(d, 0, mode, enc, fus).values
        np.testing.assert_array_equal(got, want)


def test_adaptive_with_small_history_equals_attend_plus_gate():
    enc, fus = make_setup()
    d = dialogue_from([["t1 t2", "t3 t4"], ["t5 t6"]])
    h_ut = encode_utterance(d.turns()[2], enc)
    hist = [encode_utterance(u, enc) for u in d.turns()[:2]]
    fused, _ = gate_fuse(attend(h_ut, ad.stack(hist)), h_ut, fus)
    got = encode_context(d, 2, ContextMode.adaptive(3), enc, fus).values
    np.testing.assert_allclose(got, fused.values, rtol=1e-12, atol=1e-14)


def test_no_prev_equals_adaptive_on_dialogue_with_previous_sessions_deleted():
    enc, fus = make_setup(seed=4)
    full = dialogue_from([["t1 t2", "t3"], ["t5 t6", "t7 t8", "t9 t6", "t4"]])
    # same current session as its own single-session dialogue
    trimmed = dialogue_from([["t5 t6", "t7 t8", "t9 t6", "t4"]])
    got_no_prev = encode_context(full, 4, ContextMode.no_prev(), enc, fus).values
    got_adaptive = encode_context(trimmed, 2, ContextMode.adaptive(3),
                                  enc, fus).values
    np.testing.assert_allclose(got_no_prev, got_adaptive, rtol=1e-13, atol=1e-14)


def test_full_concat_is_order_sensitive_single_encode():
    enc, fus = make_setup(seed=5)
    d = dialogue_from([["t1 t2", "t3 t4"], ["t5 t6"]])
    got = encode_context(d, 2, ContextMode.full_concat(), enc, fus)
    assert got.shape == (6,)
    # reversing the history changes the token sequence but not the bag
    d2 = dialogue_from([["t3 t4", "t1 t2"], ["t5 t6"]])
    got2 = encode_context(d2, 2, ContextMode.full_concat(), enc, fus)
    np.testing.assert_allclose(got.values, got2.values, atol=1e-12)  # bag mean
    d3 = dialogue_from([["t9 t9", "t3 t4"], ["t5 t6"]])
    got3 = encode_context(d3, 2, ContextMode.full_concat(), enc, fus)
    assert not np.allclose(got.values, got3.values)


def test_mean_all_is_unweighted_mean_of_all_utterances():
    enc, fus = make_setup(seed=6)
    d = dialogue_from([["t1 t2", "t3 t4"], ["t5 t6", "t7", "t8 t9", "t4"]])
    vs = [encode_utterance(u, enc).values for u in d.turns()[:5]]
    got = encode_context(d, 4, ContextMode.mean_all(), enc, fus).values
    np.testing.assert_allclose(got, np.mean(vs, axis=0), rtol=1e-12, atol=1e-14)


def test_adaptive_ignores_unselected_previous_contents():
    enc, fus = make_setup(seed=7)
    base = ["t1 t2", "t3 t4", "t5 t6", "t7 t8"]
    d1 = dialogue_from([base, ["t1 t2 t1"]])
    h1 = encode_context(d1, 4, ContextMode.adaptive(1), enc, fus)
    pure = [encode_utterance(u, enc) for u in d1.turns()[:4]]
    h_ut = encode_utterance(d1.turns()[4], enc)
    scores = [float(h_ut.values @ p.values) for p in pure]
    keep = int(np.argmax(scores))
    swap = (keep + 1) % 4
    changed = list(base)
    changed[swap] = "t30 t31 t32"
    d2 = dialogue_from([changed, ["t1 t2 t1"]])
    pure2 = [encode_utterance(u, enc) for u in d2.turns()[:4]]
    scores2 = [float(h_ut.values @ p.values) for p in pure2]
    assert int(np.argmax(scores2)) == keep  # replacement stayed unselected
    h2 = encode_context(d2, 4, ContextMode.adaptive(1), enc, fus)
    np.testing.assert_array_equal(h1.values, h2.values)


def test_frozen_selection_overrides_scores():
    enc, fus = make_setup(seed=8)
    d = dialogue_from([["t1 t2", "t3 t4"], ["t1 t2"]])
    h_ut = encode_utterance(d.turns()[2], enc)
    forced = encode_utterance(d.turns()[1], enc)
    want, _ = gate_fuse(attend(h_ut, ad.stack([forced])), h_ut, fus)
    got = encode_context(d, 2, ContextMode.adaptive(1), enc, fus,
                         frozen_selection=[1])
    np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=1e-14)


def test_full_pipeline_gradient_check_with_frozen_selection():
    enc, fus = make_setup(d=5, seed=9)
    d = dialogue_from([["t1 t2", "t3 t4", "t5 t6", "t7"], ["t9 t6", "t4", "t1 t5"]])
    mode = ContextMode.adaptive(2)
    h_pure = encode_context(d, 6, mode, enc, fus)
    pure = [encode_utterance(u, enc) for u in d.turns()[:4]]
    h_ut = encode_utterance(d.turns()[6], enc)
    scores = np.array([float(h_ut.values @ p.values) for p in pure])
    frozen = topk_indices(scores, 2)
    target = ad.Tensor(np.linspace(-0.5, 0.5, 5))

    def f(params):
        tape = ad.Tape()
        ep, fp = param_views(params, enc.vocab)
        h = encode_context(d, 6, mode, ep, fp, tape, frozen_selection=frozen)
        return tape, ad.dot(h, target, tape)

    params = dict(enc.tensors())
    params.update(fus.tensors())
    err = ad.grad_check(f, params, eps=1e-4,
                        rng=np.random.default_rng(1), max_coords=60)
    assert err < 1e-4
    # the frozen path reproduces the live selection at the same params
    got = encode_context(d, 6, mode, enc, fus, frozen_selection=frozen)
    np.testing.assert_array_equal(got.values, h_pure.values)


# ---------------------------------------------------------------------------
# encode_context against the per-row reference
# ---------------------------------------------------------------------------

def _per_row_context(d, query_turn, mode, enc, fusion, tape=None,
                     frozen_selection=None):
    """The reference: every row, the query included, through its own
    ``encode_utterance`` call, and the previous rows re-stacked to score."""
    prev, curr, last = split_sessions(d, query_turn)
    if mode.kind is ModeKind.FULL_CONCAT:
        return encode_ids(_concat_ids(prev + curr + [last], enc.vocab), enc, tape)
    if mode.kind is ModeKind.NO_PREV:
        prev = []
    pos = (lambda u: u.turn_index) if enc.position is not None else (lambda u: None)
    rows = [encode_utterance(u, enc, tape, position=pos(u))
            for u in prev + curr + [last]]
    h_ut, n = rows[-1], len(prev)
    if mode.kind is ModeKind.MEAN_ALL:
        weights = ad.Tensor(np.full(len(rows), 1.0 / len(rows)))
        return ad.matmul(weights, ad.stack(rows, tape), tape)
    if not n:
        chosen = []
    elif frozen_selection is None:
        chosen = topk_indices(np.array([h.values for h in rows[:n]]) @ h_ut.values,
                              mode.k)
    else:
        chosen = frozen_selection
    hist = [rows[i] for i in chosen] + rows[n:-1]
    if not hist:
        return h_ut
    return gate_fuse(attend(h_ut, ad.stack(hist, tape), tape), h_ut, fusion, tape)[0]


SMALL = dict(topics=6, dialogues_per_task=12, words_per_topic=8,
             common_words=6, entities=6, utterance_words=4)
CORPORA = {
    "multi_session": GeneratorConfig(sessions_per_dialogue=3, turns_per_session=2,
                                     **SMALL),
    "single_session": GeneratorConfig(sessions_per_dialogue=1, turns_per_session=4,
                                      **SMALL),
}
EQUIVALENCE_MODES = [ContextMode.adaptive(2), ContextMode.no_prev(),
                     ContextMode.mean_all(), ContextMode.full_concat()]


@pytest.mark.parametrize("positions", [0, 4])
@pytest.mark.parametrize("name", CORPORA)
def test_encode_context_matches_the_per_row_reference(name, positions):
    corpus = generate_synthetic(CORPORA[name], seed=5)
    enc = init_encoder_params(corpus.vocab, d=6, seed=2, positions=positions)
    rng = derive_rng(2, "spread")
    # spread the small initialization so the selection and gate carry weight
    params = {k: ad.Tensor(t.values * rng.uniform(5.0, 15.0), requires_grad=True)
              for k, t in {**enc.tensors(), **init_fusion_params(6, 2).tensors()}.items()}
    probe = ad.Tensor(rng.normal(size=6))
    ep, fp = param_views(params, corpus.vocab)
    histories = set()
    # every user turn of a few dialogues, not only the examples' query turns
    for d in corpus.dialogues[::6]:
        for turn in (u.turn_index for u in d.turns() if u.role is Role.USER):
            prev, curr, _ = split_sessions(d, turn)
            histories.add((len(prev) > 0, len(curr) > 0))
            frozen = sorted(int(i) for i in rng.choice(
                len(prev), size=min(2, len(prev)), replace=False))
            for mode, selection in itertools.product(EQUIVALENCE_MODES,
                                                     (None, frozen)):
                got, want = [], []
                for fn, out in ((encode_context, got), (_per_row_context, want)):
                    tape = ad.Tape()
                    h = fn(d, turn, mode, ep, fp, tape, frozen_selection=selection)
                    out.append(h.values)
                    out.append(ad.gradients(tape, ad.dot(h, probe, tape), params))
                np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
                for k in params:
                    np.testing.assert_allclose(got[1][k], want[1][k], rtol=0,
                                               atol=1e-12, err_msg=k)
    # a single-session dialogue splits into turn pairs, so its current
    # session is always empty
    shapes = {(False, False), (True, False)}
    if name == "multi_session":
        shapes |= {(False, True), (True, True)}
    assert histories == shapes
