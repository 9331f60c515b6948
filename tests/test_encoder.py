"""Tokenizer and text-encoder behavior, including gradient checks."""

import numpy as np
import pytest

import convret.autodiff as ad
from convret.corpus import (CLS_ID, SPECIAL_TOKENS, UNK_ID, USR_ID, Candidate,
                            Role, TaskKind, Utterance)
from convret.encoder import (MAX_CANDIDATE_TOKENS, MAX_UTTERANCE_TOKENS,
                             encode_candidate, encode_ids, encode_text,
                             encode_utterance, init_encoder_params, tokenize)
from convret.errors import ContractError
from convret.fusion import init_fusion_params
from convret.training import param_views


def make_vocab(n_words=30):
    vocab = {tok: i for i, tok in enumerate(SPECIAL_TOKENS)}
    for j in range(n_words):
        vocab[f"t{j}"] = len(vocab)
    return vocab


def make_params(d=8, seed=0, positions=0):
    return init_encoder_params(make_vocab(), d=d, seed=seed, positions=positions)


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------

def test_tokenize_lookup_unknowns_and_truncation():
    vocab = {"t1": 10, "t2": 11}
    assert tokenize("t1 t2 t1", vocab, 64) == [10, 11, 10]
    assert tokenize("zzz", vocab, 64) == [UNK_ID]
    long = " ".join(f"w{i}" for i in range(100))
    assert tokenize(long, vocab, 64) == [UNK_ID] * 64
    assert tokenize("", vocab, 64) == []
    with pytest.raises(ContractError):
        tokenize("a", vocab, 0)


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------

def test_encoding_is_pure_and_has_stable_shape():
    p = make_params()
    u = Utterance(Role.USER, "t1 t2 t3", 0)
    a = encode_utterance(u, p).values
    b = encode_utterance(u, p).values
    np.testing.assert_array_equal(a, b)
    assert a.shape == (8,)
    assert encode_utterance(Utterance(Role.USER, "t1", 0), p).shape == (8,)
    assert np.all(np.isfinite(a))


def test_role_and_task_tokens_change_the_vector():
    p = make_params(seed=3)
    ua = encode_utterance(Utterance(Role.USER, "t1 t2", 0), p).values
    sa = encode_utterance(Utterance(Role.SYSTEM, "t1 t2", 0), p).values
    assert not np.array_equal(ua, sa)
    ca = encode_candidate(Candidate("x", TaskKind.PERSONA, "t1 t2"), p).values
    cb = encode_candidate(Candidate("x", TaskKind.KNOWLEDGE, "t1 t2"), p).values
    assert not np.array_equal(ca, cb)


def test_empty_text_reduces_to_lead_tokens_only():
    p = make_params()
    got = encode_text("", USR_ID, p).values
    want = encode_ids([CLS_ID, USR_ID], p).values
    np.testing.assert_array_equal(got, want)
    c = encode_candidate(Candidate("x", TaskKind.RESPONSE, ""), p).values
    assert c.shape == (8,) and np.all(np.isfinite(c))


def test_formula_matches_direct_numpy_evaluation():
    p = make_params(seed=5)
    u = Utterance(Role.SYSTEM, "t3 t3 t7", 2)
    ids = [CLS_ID, 3, p.vocab["t3"], p.vocab["t3"], p.vocab["t7"]]
    m = p.embedding.values[ids].mean(axis=0)
    want = np.tanh(p.ff_weight.values @ m + p.ff_bias.values)
    np.testing.assert_allclose(encode_utterance(u, p).values, want,
                               rtol=1e-12, atol=1e-12)


def test_candidate_truncation_at_512_tokens():
    p = make_params()
    base = " ".join("t1" for _ in range(MAX_CANDIDATE_TOKENS))
    longer = base + " " + " ".join("t2" for _ in range(88))
    a = encode_candidate(Candidate("a", TaskKind.PERSONA, base), p).values
    b = encode_candidate(Candidate("b", TaskKind.PERSONA, longer), p).values
    np.testing.assert_array_equal(a, b)


def test_utterance_truncation_at_64_tokens():
    p = make_params()
    base = " ".join("t1" for _ in range(MAX_UTTERANCE_TOKENS))
    longer = base + " t2 t2"
    a = encode_utterance(Utterance(Role.USER, base, 0), p).values
    b = encode_utterance(Utterance(Role.USER, longer, 0), p).values
    np.testing.assert_array_equal(a, b)


def test_init_is_seed_deterministic_and_bounded():
    a = make_params(seed=9)
    b = make_params(seed=9)
    c = make_params(seed=10)
    np.testing.assert_array_equal(a.embedding.values, b.embedding.values)
    assert not np.array_equal(a.embedding.values, c.embedding.values)
    for t in a.tensors().values():
        assert np.all(np.abs(t.values) <= 0.1)
        assert t.requires_grad
    with pytest.raises(ContractError, match="dimension 0"):
        make_params(d=0)


def test_position_table_changes_encoding_only_when_given():
    p = make_params(positions=4, seed=2)
    u = Utterance(Role.USER, "t1 t2", 0)
    h0 = encode_utterance(u, p, position=0).values
    h1 = encode_utterance(u, p, position=1).values
    h_clamped = encode_utterance(u, p, position=99).values
    h3 = encode_utterance(u, p, position=3).values
    assert not np.array_equal(h0, h1)
    np.testing.assert_array_equal(h_clamped, h3)
    plain = make_params(seed=2)
    got = encode_utterance(u, plain, position=1).values
    np.testing.assert_array_equal(got, encode_utterance(u, plain).values)


def test_dot_of_towers_passes_gradient_check():
    base = make_params(d=6, seed=7)
    u = Utterance(Role.USER, "t1 t2 t9", 0)
    c = Candidate("x", TaskKind.KNOWLEDGE, "t2 t4")

    def f(params):
        tape = ad.Tape()
        p, _ = param_views(params, base.vocab)
        hu = encode_utterance(u, p, tape)
        hc = encode_candidate(c, p, tape)
        return tape, ad.dot(hu, hc, tape)

    # the gate is off this output's path: its gradient is checked to be zero
    params = {**base.tensors(), **init_fusion_params(6, seed=7).tensors()}
    err = ad.grad_check(f, params, eps=1e-4,
                        rng=np.random.default_rng(0), max_coords=60)
    assert err < 1e-4
