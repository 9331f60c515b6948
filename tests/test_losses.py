"""Loss-value oracles, identities and gradient checks for the objectives."""

import math

import numpy as np
import pytest

import convret.autodiff as ad
from convret.errors import ConfigError, DimensionError
from convret.losses import (BatchSimilarities, LossConfig, batch_similarities,
                            combined_loss, historical_contrastive_loss,
                            pairwise_similarity_loss)


def sims(cross, semi=None, easy=None, present=None, tape=None):
    cross = np.asarray(cross, dtype=float)
    b = cross.shape[0]
    semi = np.zeros(b) if semi is None else np.asarray(semi, dtype=float)
    easy = np.zeros(b) if easy is None else np.asarray(easy, dtype=float)
    present = np.zeros(b, bool) if present is None else np.asarray(present, bool)
    return batch_similarities(ad.Tensor(cross), ad.Tensor(semi),
                              ad.Tensor(easy), present, tape)


# ---------------------------------------------------------------------------
# worked values
# ---------------------------------------------------------------------------

def test_hist_single_example_with_semi_hard():
    s = sims([[2.0]], semi=[1.0], present=[True])
    got = historical_contrastive_loss(s).item()
    assert abs(got - 0.313262) < 1e-6
    assert abs(got - math.log(1 + math.exp(-1))) < 1e-12


def test_hist_two_examples_first_contribution():
    s1 = sims([[2.0, 0.0], [0.0, 2.0]], semi=[1.0, 1.0], present=[True, True])
    got = historical_contrastive_loss(s1).item()
    per_example = math.log(math.exp(2) + 1 + math.exp(1)) - 2.0
    assert abs(per_example - 0.407606) < 1e-6
    assert abs(got - per_example) < 1e-12  # symmetric batch: mean == each


def test_hist_no_semi_equal_easy_is_log2():
    s = sims([[1.7]], easy=[1.7])
    assert abs(historical_contrastive_loss(s).item() - math.log(2)) < 1e-12


def test_hist_all_equal_similarities_is_log_b_plus_1():
    for b in (1, 2, 5):
        s = sims(np.full((b, b), 0.3), semi=np.full(b, 0.3),
                 present=[True] * b)
        got = historical_contrastive_loss(s).item()
        assert abs(got - math.log(b + 1)) < 1e-12


def test_pairwise_worked_values_and_monotonicity():
    cfg = LossConfig(gamma=1.0)
    s = sims([[1.0]], semi=[0.5], easy=[0.0], present=[True])
    got = pairwise_similarity_loss(s, cfg).item()
    assert abs(got - 0.794377) < 1e-6
    assert abs(got - math.log(1 + 2 * math.exp(-0.5))) < 1e-12

    s2 = sims([[2.0]], semi=[0.5], easy=[0.0], present=[True])
    got2 = pairwise_similarity_loss(s2, cfg).item()
    assert abs(got2 - 0.604131) < 1e-6
    assert got2 < got


def test_pairwise_all_equal_is_log3():
    for gamma in (0.5, 1.0, 17.0):
        s = sims([[0.7]], semi=[0.7], easy=[0.7], present=[True])
        got = pairwise_similarity_loss(s, LossConfig(gamma=gamma)).item()
        assert abs(got - math.log(3)) < 1e-12


def test_pairwise_without_semi_items_is_zero():
    s = sims([[1.0, 0.2], [0.1, 0.9]], easy=[0.0, 0.0])
    assert pairwise_similarity_loss(s, LossConfig()).item() == 0.0


# ---------------------------------------------------------------------------
# combined loss and identities
# ---------------------------------------------------------------------------

def test_combined_is_sum_and_flags_work():
    s = sims([[1.0, 0.2], [0.1, 0.9]], semi=[0.5, 0.0], easy=[0.1, 0.2],
             present=[True, False])
    h = historical_contrastive_loss(s).item()
    p = pairwise_similarity_loss(s, LossConfig()).item()
    assert abs(combined_loss(s, LossConfig()).item() - (h + p)) < 1e-12
    assert combined_loss(s, LossConfig(use_pair=False)).item() == h
    assert combined_loss(s, LossConfig(use_hist=False)).item() == p
    with pytest.raises(ConfigError, match="loss term"):
        LossConfig(use_hist=False, use_pair=False)
    with pytest.raises(ConfigError):
        LossConfig(gamma=0.0)


def conventional_contrastive(cross, easy):
    # independent implementation: softmax over in-batch positives plus one
    # easy negative, reduced by mean negative log-likelihood
    cross = np.asarray(cross, float)
    easy = np.asarray(easy, float)
    b = cross.shape[0]
    total = 0.0
    for i in range(b):
        logits = np.concatenate([cross[i], [easy[i]]])
        m = logits.max()
        total += m + math.log(np.sum(np.exp(logits - m))) - cross[i, i]
    return total / b


def test_no_semi_batch_reduces_to_conventional_contrastive():
    rng = np.random.default_rng(41)
    for b in (1, 3, 8):
        cross = rng.normal(size=(b, b)) * 3
        easy = rng.normal(size=b) * 3
        s = sims(cross, easy=easy)
        got = combined_loss(s, LossConfig()).item()
        want = conventional_contrastive(cross, easy)
        assert abs(got - want) < 1e-10


def test_masked_semi_entries_are_never_read():
    cross = [[1.0, 0.0], [0.0, 1.0]]
    a = sims(cross, semi=[0.0, 123.0], easy=[0.3, 0.4],
             present=[False, False])
    b = sims(cross, semi=[9.0, -55.0], easy=[0.3, 0.4],
             present=[False, False])
    assert combined_loss(a, LossConfig()).item() == \
        combined_loss(b, LossConfig()).item()


def test_batch_similarities_validation():
    with pytest.raises(DimensionError, match="diagonal"):
        BatchSimilarities(ad.Tensor([1.0]), ad.Tensor([[2.0]]),
                          ad.Tensor([0.0]), ad.Tensor([0.0]),
                          np.array([False]))
    with pytest.raises(DimensionError):
        BatchSimilarities(ad.Tensor([1.0]), ad.Tensor([[1.0]]),
                          ad.Tensor([0.0, 0.0]), ad.Tensor([0.0]),
                          np.array([False]))
    with pytest.raises(DimensionError, match="empty batch"):
        batch_similarities(ad.Tensor(np.zeros((0, 0))), ad.Tensor(np.zeros(0)),
                           ad.Tensor(np.zeros(0)), np.zeros(0, dtype=bool))


def test_stability_at_extreme_magnitudes():
    for gamma in (1.0, 64.0):
        s = sims([[1e3, -1e3], [-1e3, 1e3]], semi=[1e3, -1e3],
                 easy=[-1e3, 1e3], present=[True, True])
        v = combined_loss(s, LossConfig(gamma=gamma)).item()
        assert np.isfinite(v)


def test_pairwise_directional_monotonicity():
    rng = np.random.default_rng(43)
    cfg = LossConfig(gamma=2.0)
    for _ in range(20):
        b = 4
        cross = rng.normal(size=(b, b))
        semi = rng.normal(size=b)
        easy = rng.normal(size=b)
        present = np.array([True, True, False, True])
        base = pairwise_similarity_loss(
            sims(cross, semi, easy, present), cfg).item()
        i = int(rng.choice([0, 1, 3]))
        up_pos = cross.copy()
        up_pos[i, i] += 0.1
        assert pairwise_similarity_loss(
            sims(up_pos, semi, easy, present), cfg).item() < base
        up_easy = easy.copy()
        up_easy[i] += 0.1
        assert pairwise_similarity_loss(
            sims(cross, semi, up_easy, present), cfg).item() > base


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def _loss_fn(which, present, cfg):
    def f(params):
        tape = ad.Tape()
        s = batch_similarities(params["cross"], params["semi"],
                               params["easy"], present, tape)
        if which == "hist":
            out = historical_contrastive_loss(s, tape)
        elif which == "pair":
            out = pairwise_similarity_loss(s, cfg, tape)
        else:
            out = combined_loss(s, cfg, tape)
        return tape, out
    return f


@pytest.mark.parametrize("which", ["hist", "pair", "combined"])
@pytest.mark.parametrize("b", [1, 2, 8])
def test_losses_pass_gradient_checks(which, b):
    rng = np.random.default_rng(1000 + b)
    cfg = LossConfig(gamma=1.5)
    present = rng.uniform(size=b) < 0.7
    if which == "pair" and not present.any():
        present[0] = True
    params = {
        "cross": ad.Tensor(rng.normal(size=(b, b)), requires_grad=True),
        "semi": ad.Tensor(rng.normal(size=b), requires_grad=True),
        "easy": ad.Tensor(rng.normal(size=b), requires_grad=True),
    }
    err = ad.grad_check(_loss_fn(which, present, cfg), params, eps=1e-4,
                        rng=np.random.default_rng(b), max_coords=40)
    assert err < 1e-4
