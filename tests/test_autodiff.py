"""Oracle and gradient tests for the tape-based autodiff core."""

import inspect
import re

import numpy as np
import pytest

import convret.autodiff as ad
from convret.errors import ContractError, DimensionError, EvaluationError


def rand_tensor(rng, shape, requires_grad=True):
    return ad.Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# forward oracles
# ---------------------------------------------------------------------------

def naive_matmul(a, b):
    a2 = a if a.ndim == 2 else a[None, :]
    b2 = b if b.ndim == 2 else b[:, None]
    m, k = a2.shape
    _, n = b2.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a2[i, p] * b2[p, j]
    if a.ndim == 1:
        out = out[0]
    if b.ndim == 1:
        out = out[..., 0]
    return out


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(11)
    for sa, sb in [((3, 4), (4, 5)), ((2, 7), (7,)), ((6,), (6, 2)), ((1, 1), (1, 1))]:
        a = rng.normal(size=sa)
        b = rng.normal(size=sb)
        got = ad.matmul(ad.Tensor(a), ad.Tensor(b)).values
        np.testing.assert_allclose(got, naive_matmul(a, b), rtol=1e-12, atol=1e-12)


def test_dot_matches_scalar_loop_and_is_symmetric():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = rng.integers(1, 9)
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        want = sum(a[i] * b[i] for i in range(n))
        ab = ad.dot(ad.Tensor(a), ad.Tensor(b)).item()
        ba = ad.dot(ad.Tensor(b), ad.Tensor(a)).item()
        assert abs(ab - want) <= 1e-12 * max(1.0, abs(want))
        assert abs(ab - ba) <= 1e-12


def test_softmax_matches_direct_exponentiation():
    rng = np.random.default_rng(13)
    v = rng.normal(size=9)
    direct = np.exp(v) / np.sum(np.exp(v))
    got = ad.softmax(ad.Tensor(v)).values
    np.testing.assert_allclose(got, direct, rtol=1e-12, atol=1e-15)
    assert abs(np.sum(got) - 1.0) <= 1e-12


def test_softmax_is_stable_for_huge_logits():
    got = ad.softmax(ad.Tensor([1000.0, 1000.0])).values
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, [0.5, 0.5], atol=1e-12)


def test_sigmoid_is_stable_and_matches_formula():
    v = np.array([-800.0, -5.0, 0.0, 5.0, 800.0])
    got = ad.sigmoid(ad.Tensor(v)).values
    assert np.all(np.isfinite(got))
    mid = 1.0 / (1.0 + np.exp(-v[1:4]))
    np.testing.assert_allclose(got[1:4], mid, rtol=1e-12)
    assert got[0] >= 0.0 and got[4] <= 1.0


def _encoder_tables(rng, vocab, d, k):
    """An embedding table, a k x d weight and a bias, as constants."""
    return (ad.Tensor(rng.normal(size=(vocab, d))), ad.Tensor(rng.normal(size=(k, d))),
            ad.Tensor(rng.normal(size=k)))


def test_mean_affine_tanh_matches_numpy():
    # one token per row, so each mean is that token's row; large weights
    # drive tanh into saturation, and the weight need not be square
    rng = np.random.default_rng(14)
    table, weight, bias = _encoder_tables(rng, 6, 4, 5)
    weight = ad.Tensor(weight.values * 3.0)
    ids = [4, 0, 4, 2]
    shift = rng.normal(size=(4, 4))
    got = ad.mean_affine_tanh(table, weight, bias, ids, range(5),
                              shift=ad.Tensor(shift)).values
    want = np.tanh((table.values[ids] + shift) @ weight.values.T + bias.values)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    plain = ad.mean_affine_tanh(table, weight, bias, ids, range(5)).values
    np.testing.assert_allclose(
        plain, np.tanh(table.values[ids] @ weight.values.T + bias.values),
        rtol=1e-12, atol=1e-12)


def test_logsumexp_matches_numpy_and_survives_large_inputs():
    rng = np.random.default_rng(15)
    v = rng.normal(size=7) * 2.0
    got = ad.logsumexp(ad.Tensor(v)).item()
    want = float(np.logaddexp.reduce(v))
    assert abs(got - want) <= 1e-12
    big = ad.logsumexp(ad.Tensor([1000.0, 999.0])).item()
    assert np.isfinite(big)
    assert abs(big - (1000.0 + np.log(1.0 + np.exp(-1.0)))) <= 1e-12


def test_mean_concat_reshape_transpose():
    v = ad.Tensor([1.0, 2.0, 3.0, 4.0])
    assert ad.mean(v).item() == 2.5
    c = ad.concat([ad.scalar(9.0), v])
    np.testing.assert_allclose(c.values, [9.0, 1.0, 2.0, 3.0, 4.0])
    m = ad.reshape(v, (2, 2))
    np.testing.assert_allclose(ad.transpose(m).values, [[1.0, 3.0], [2.0, 4.0]])


def test_stack_rows():
    a = ad.Tensor([1.0, 2.0])
    b = ad.Tensor([3.0, 4.0])
    s = ad.stack([a, b])
    np.testing.assert_allclose(s.values, [[1.0, 2.0], [3.0, 4.0]])


def test_mean_affine_tanh_matches_dense_mean_with_duplicates():
    rng = np.random.default_rng(16)
    table, weight, bias = _encoder_tables(rng, 10, 4, 4)
    segments = [[3, 3, 7, 0], [5], [0, 9, 9]]
    offsets = np.cumsum([0] + [len(seg) for seg in segments])
    got = ad.mean_affine_tanh(table, weight, bias, sum(segments, []), offsets).values
    means = np.array([table.values[seg].mean(axis=0) for seg in segments])
    want = np.tanh(means @ weight.values.T + bias.values)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_mean_affine_tanh_chunks_give_the_unchunked_result(monkeypatch):
    # several chunks, segments straddling chunk ends, one longer than a chunk
    rng = np.random.default_rng(21)
    lengths = np.append(rng.integers(1, 700, size=8), 1500)
    ids = rng.integers(0, 50, size=int(lengths.sum()))
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    assert offsets[-1] > 3 * ad.SEGMENT_CHUNK
    table, weight, bias = (ad.Tensor(t.values, requires_grad=True)
                           for t in _encoder_tables(rng, 50, 3, 3))
    probe = rng.normal(size=(9, 3))

    def run():
        tape = ad.Tape()
        out = ad.mean_affine_tanh(table, weight, bias, ids, offsets, tape)
        loss = ad.mean(ad.reshape(ad.mul(out, ad.Tensor(probe), tape), (27,), tape), tape)
        grads = ad.backward(tape, loss)
        return out.values, [grads[tape.node_of(t)].values for t in (table, weight, bias)]

    out, grads = run()
    monkeypatch.setattr(ad, "SEGMENT_CHUNK", int(offsets[-1]))
    whole, whole_grads = run()
    # each segment sums inside one chunk, so the values agree to the bit
    np.testing.assert_array_equal(out, whole)
    dense = np.zeros((9, 50))
    for i, (a, b) in enumerate(zip(offsets, offsets[1:])):
        np.add.at(dense[i], ids[a:b], 1.0 / (b - a))
    means = dense @ table.values
    np.testing.assert_allclose(out, np.tanh(means @ weight.values.T + bias.values),
                               rtol=1e-12)
    gz = probe / 27 * (1.0 - out * out)
    want = [dense.T @ gz @ weight.values, gz.T @ means, gz.sum(axis=0)]
    for got, got_whole, w in zip(grads, whole_grads, want):
        np.testing.assert_allclose(got, w, rtol=1e-10, atol=1e-15)
        np.testing.assert_allclose(got_whole, w, rtol=1e-10, atol=1e-15)


def test_row_wise_ops_match_numpy():
    rng = np.random.default_rng(22)
    m = rng.normal(size=(3, 4)) * 3
    v4, c3 = rng.normal(size=4), rng.normal(size=(3, 1))
    np.testing.assert_array_equal(ad.add(ad.Tensor(m), ad.Tensor(v4)).values, m + v4)
    np.testing.assert_array_equal(ad.sub(ad.Tensor(v4), ad.Tensor(m)).values, v4 - m)
    np.testing.assert_array_equal(ad.mul(ad.Tensor(m), ad.Tensor(c3)).values, m * c3)
    np.testing.assert_allclose(ad.logsumexp(ad.Tensor(m)).values,
                               np.logaddexp.reduce(m, axis=1), rtol=1e-12)
    got = ad.softmax(ad.Tensor(m)).values
    for i in range(3):
        np.testing.assert_array_equal(got[i], ad.softmax(ad.Tensor(m[i])).values)
    mask = np.array([[1, 0, 1, 1], [0, 1, 0, 0], [1, 1, 1, 1]], dtype=bool)
    got = ad.softmax(ad.Tensor(m), mask=mask).values
    np.testing.assert_array_equal(got[2], ad.softmax(ad.Tensor(m[2])).values)
    for i in range(3):
        e = np.exp(m[i][mask[i]])
        np.testing.assert_allclose(got[i][mask[i]], e / e.sum(), rtol=1e-12)
        assert np.all(got[i][~mask[i]] == 0.0)
    assert got[1, 1] == 1.0  # a single unmasked entry gets exactly all weight


def test_gather_rows_and_entries():
    m = ad.Tensor(np.arange(6.0).reshape(3, 2))
    np.testing.assert_array_equal(ad.gather(m, [2, 0, 2]).values,
                                  [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])
    v = ad.Tensor([10.0, 11.0, 12.0])
    np.testing.assert_array_equal(ad.gather(v, [[2, 0], [1, 1]]).values,
                                  [[12.0, 10.0], [11.0, 11.0]])
    np.testing.assert_array_equal(ad.gather(m, 1).values, [2.0, 3.0])
    assert ad.gather(v, 2).item() == 12.0
    # (rows, cols) pairs broadcast: a diagonal, and a grid with a repeat
    np.testing.assert_array_equal(ad.gather(m, ([0, 1], [0, 1])).values, [0.0, 3.0])
    np.testing.assert_array_equal(ad.gather(m, (np.array([[2], [0]]), [1, 1, 0])).values,
                                  [[5.0, 5.0, 4.0], [1.0, 1.0, 0.0]])


# ---------------------------------------------------------------------------
# error contracts
# ---------------------------------------------------------------------------

def test_shape_errors():
    a = ad.Tensor([1.0, 2.0])
    b = ad.Tensor([1.0, 2.0, 3.0])
    with pytest.raises(DimensionError):
        ad.add(a, b)
    with pytest.raises(DimensionError):
        ad.dot(a, b)
    with pytest.raises(DimensionError):
        ad.matmul(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[1.0, 2.0]]))
    with pytest.raises(DimensionError):
        ad.softmax(ad.Tensor(np.zeros((2, 0))))
    with pytest.raises(DimensionError):
        ad.Tensor(np.zeros((2, 2, 2)))
    table, weight, bias = (ad.Tensor(np.zeros(shape)) for shape in ((3, 2), (4, 2), (4,)))
    for ids, offsets in [([1], [0, 1, 1]), ([1], [0, 2]), ([1, 2], [1, 2]), ([1], [0]),
                         ([1], [[0, 1]])]:
        with pytest.raises(DimensionError):  # an empty segment, or bad offsets
            ad.mean_affine_tanh(table, weight, bias, ids, offsets)
    wide = ad.Tensor(np.zeros((4, 3)))  # inner size 3 against the table's 2
    for t, w, b, shift in [(table, wide, bias, None), (table, weight, table, None),
                           (table, weight, bias, np.zeros((1, 3))),
                           (ad.Tensor(np.zeros(3)), weight, bias, None)]:
        with pytest.raises(DimensionError):
            ad.mean_affine_tanh(t, w, b, [1, 2], [0, 2],
                                shift=None if shift is None else ad.Tensor(shift))
    with pytest.raises(DimensionError):
        ad.gather(ad.Tensor(np.zeros((3, 2))), [[0, 1]])
    for x, y in [((3, 2), (3,)), ((3, 2), (2, 2)), ((3, 2), (1, 3))]:
        with pytest.raises(DimensionError):
            ad.mul(ad.Tensor(np.zeros(x)), ad.Tensor(np.zeros(y)))
        with pytest.raises(DimensionError):
            ad.sub(ad.Tensor(np.zeros(y)), ad.Tensor(np.zeros(x)))
    with pytest.raises(DimensionError):
        ad.softmax(ad.Tensor(np.zeros((2, 2))), mask=[True, False])
    with pytest.raises(DimensionError):
        ad.softmax(ad.Tensor(np.zeros((2, 2))), mask=[[True, False], [False, False]])
    with pytest.raises(DimensionError):
        ad.gather(b, ([0, 1], [1, 2]))
    for op, args in [(ad.matmul, (ad.Tensor(2.0), a)), (ad.concat, ([],)),
                     (ad.mean, (ad.Tensor(np.zeros(0)),)), (ad.transpose, (a,)),
                     (ad.logsumexp, (ad.Tensor(np.zeros((2, 0))),))]:
        with pytest.raises(DimensionError):
            op(*args)
    with pytest.raises(ContractError):
        a.item()
    assert repr(a) == "Tensor(shape=(2,), requires_grad=False)"


def test_backward_requires_recorded_scalar():
    tape = ad.Tape()
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    y = ad.mul(x, x, tape)
    with pytest.raises(ContractError):
        ad.backward(tape, y)  # not a scalar
    z = ad.mean(y)  # off-tape
    with pytest.raises(ContractError):
        ad.backward(tape, z)


# ---------------------------------------------------------------------------
# backward correctness
# ---------------------------------------------------------------------------

def test_grad_check_quality_on_square():
    def f(params):
        tape = ad.Tape()
        out = ad.mul(params["x"], params["x"], tape)
        return tape, out

    err = ad.grad_check(f, {"x": ad.Tensor(3.0, requires_grad=True)}, eps=1e-4)
    assert err < 1e-8


def test_grad_check_contract_and_sampled_coordinates():
    def f(params):
        tape = ad.Tape()
        return tape, ad.mean(ad.mul(params["x"], params["x"], tape), tape)

    x = {"x": ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)}
    for eps in (0.0, -1e-4):
        with pytest.raises(ContractError, match="eps"):
            ad.grad_check(f, x, eps=eps)
    # two of the three coordinates, picked by the default generator
    assert ad.grad_check(f, x, max_coords=2) < 1e-8
    with pytest.raises(EvaluationError, match="not finite"):
        ad.grad_check(f, {"x": ad.Tensor([np.inf], requires_grad=True)})


def test_unused_leaf_gets_zero_gradient():
    tape = ad.Tape()
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    unused = ad.Tensor([5.0, 6.0], requires_grad=True)
    y = ad.mean(ad.mul(x, x, tape), tape)
    _ = ad.add(unused, unused, tape)  # on tape but off the output path
    grads = ad.backward(tape, y)
    np.testing.assert_allclose(grads[tape.node_of(x)].values, [1.0, 2.0])
    np.testing.assert_allclose(grads[tape.node_of(unused)].values, [0.0, 0.0])


def test_backward_is_idempotent():
    rng = np.random.default_rng(17)
    tape = ad.Tape()
    x = rand_tensor(rng, (3, 3))
    w = rand_tensor(rng, (3,))
    out = ad.mean(ad.sigmoid(ad.matmul(x, w, tape), tape), tape)
    first = ad.backward(tape, out)
    second = ad.backward(tape, out)
    assert first.keys() == second.keys()
    for k in first:
        np.testing.assert_array_equal(first[k].values, second[k].values)


def _weighted(t, out):
    """A scalar that weighs every output entry differently."""
    w = np.linspace(-1.0, 2.0, out.values.size).reshape(out.shape)
    return ad.mean(ad.reshape(ad.mul(out, ad.Tensor(w), t), (out.values.size,), t), t)


def _single_op_cases(rng):
    a2 = rand_tensor(rng, (3, 4))
    b2 = rand_tensor(rng, (4, 2))
    v4 = rand_tensor(rng, (4,))
    v3 = rand_tensor(rng, (3,))
    a3 = rand_tensor(rng, (3, 3))
    c3 = rand_tensor(rng, (3, 1))
    s = ad.Tensor(rng.uniform(0.5, 1.5), requires_grad=True)
    return {
        "matmul_mm": ({"a": a2, "b": b2},
                      lambda t, p: ad.mean(ad.gather(ad.matmul(p["a"], p["b"], t), 1, t), t)),
        "matmul_mv": ({"a": a2, "v": v4},
                      lambda t, p: ad.mean(ad.matmul(p["a"], p["v"], t), t)),
        "matmul_vm": ({"v": v3, "b": a2},
                      lambda t, p: ad.mean(ad.matmul(p["v"], p["b"], t), t)),
        "matmul_vv": ({"a": v4, "b": rand_tensor(rng, (4,))},
                      lambda t, p: ad.matmul(p["a"], p["b"], t)),
        "dot": ({"a": v4, "b": rand_tensor(rng, (4,))},
                lambda t, p: ad.dot(p["a"], p["b"], t)),
        "add_sub_mul": ({"a": v4, "b": rand_tensor(rng, (4,)), "s": s},
                        lambda t, p: ad.mean(ad.mul(ad.sub(ad.add(p["a"], p["b"], t),
                                                           ad.mul(p["s"], p["a"], t), t),
                                                    p["b"], t), t)),
        "scale": ({"a": v4}, lambda t, p: ad.mean(ad.scale(p["a"], -2.5, t), t)),
        "sigmoid": ({"a": v4}, lambda t, p: ad.mean(ad.sigmoid(p["a"], t), t)),
        "softmax": ({"a": v4},
                    lambda t, p: ad.gather(ad.softmax(p["a"], t), 2, t)),
        "concat": ({"a": v4, "b": v3, "s": s},
                   lambda t, p: ad.mean(ad.concat([p["a"], p["s"], p["b"]], t), t)),
        "structural": ({"a": a2},
                       lambda t, p: ad.gather(ad.gather(ad.transpose(
                           ad.reshape(p["a"], (4, 3), t), t), 2, t), 1, t)),
        "mean_affine_tanh": ({"e": rand_tensor(rng, (6, 3)), "w": rand_tensor(rng, (2, 3)),
                              "b": rand_tensor(rng, (2,))},
                             lambda t, p: _weighted(t, ad.mean_affine_tanh(
                                 p["e"], p["w"], p["b"], [0, 2, 2, 5, 1], [0, 4, 5], t))),
        "mean_affine_tanh_shift": ({"e": rand_tensor(rng, (6, 3)), "w": a3,
                                    "b": v3, "s": rand_tensor(rng, (3, 3))},
                                   lambda t, p: _weighted(t, ad.mean_affine_tanh(
                                       p["e"], p["w"], p["b"], [4, 4, 0, 4, 1, 0],
                                       [0, 3, 4, 6], t, p["s"]))),
        "logsumexp": ({"a": v4}, lambda t, p: ad.logsumexp(p["a"], t)),
        "logsumexp_rows": ({"a": a2},
                           lambda t, p: _weighted(t, ad.logsumexp(p["a"], t))),
        "gather_rows": ({"a": a2},
                        lambda t, p: _weighted(t, ad.gather(p["a"], [2, 0, 2], t))),
        "gather_entries": ({"a": v4},
                           lambda t, p: _weighted(t, ad.gather(p["a"], [[3, 0], [3, 3]], t))),
        "gather_pairs": ({"a": a2},
                         lambda t, p: _weighted(t, ad.gather(
                             p["a"], (np.array([[2], [0], [2]]), [3, 0, 3]), t))),
        "add_broadcast_row": ({"a": a2, "v": v4},
                              lambda t, p: _weighted(t, ad.add(p["a"], p["v"], t))),
        "sub_broadcast_row": ({"a": a2, "v": v4},
                              lambda t, p: _weighted(t, ad.sub(p["v"], p["a"], t))),
        "mul_broadcast_column": ({"a": a2, "c": c3},
                                 lambda t, p: _weighted(t, ad.mul(p["a"], p["c"], t))),
        "scalar_with_matrix": ({"a": a2, "s": s},
                               lambda t, p: _weighted(t, ad.mul(ad.sub(
                                   p["s"], p["a"], t), ad.add(p["a"], p["s"], t), t))),
        "softmax_rows": ({"a": a2}, lambda t, p: _weighted(t, ad.softmax(p["a"], t))),
        "softmax_rows_masked": ({"a": a2}, lambda t, p: _weighted(t, ad.softmax(
            p["a"], t, [[1, 0, 1, 1], [0, 1, 0, 0], [1, 1, 1, 1]]))),
    }


def test_every_op_passes_finite_difference_check():
    rng = np.random.default_rng(18)
    for name, (params, body) in _single_op_cases(rng).items():
        def f(p, body=body):
            tape = ad.Tape()
            return tape, body(tape, p)

        err = ad.grad_check(f, params, eps=1e-4)
        assert err < 1e-4, f"{name}: max relative error {err}"


def test_every_differentiable_op_has_a_finite_difference_case():
    # every primitive records itself through one ``_emit(tape, "<op>", ...)``
    source = inspect.getsource(ad)
    ops = set(re.findall(r'_emit\(tape, "(\w+)"', source))
    assert len(ops) == source.count("_emit(") - 1  # each call site, not the def
    recorded = set()
    for params, body in _single_op_cases(np.random.default_rng(18)).values():
        tape = ad.Tape()
        body(tape, params)
        recorded.update(node.op for node in tape.nodes)
    assert ops <= recorded, sorted(ops - recorded)


def test_random_composite_programs_pass_finite_difference_check():
    rng = np.random.default_rng(19)
    checked = 0
    for trial in range(10):
        w = rand_tensor(rng, (4, 4))
        b = rand_tensor(rng, (4,))
        x = rand_tensor(rng, (4,), requires_grad=False)

        def f(p):
            tape = ad.Tape()
            h = ad.sigmoid(ad.add(ad.matmul(p["w"], x, tape), p["b"], tape), tape)
            probs = ad.softmax(h, tape)
            out = ad.sub(ad.logsumexp(h, tape), ad.gather(probs, 1, tape), tape)
            return tape, out

        err = ad.grad_check(f, {"w": w, "b": b}, eps=1e-4,
                            rng=np.random.default_rng(100 + trial), max_coords=10)
        checked += 10
        assert err < 1e-4
    assert checked == 100


def test_softmax_cross_entropy_gradient_is_tight():
    # -log softmax(z)[3] = logsumexp(z) - z[3], with gradient softmax(z) - e_3
    rng = np.random.default_rng(20)
    logits = rand_tensor(rng, (6,))

    def f(p):
        tape = ad.Tape()
        return tape, ad.sub(ad.logsumexp(p["z"], tape), ad.gather(p["z"], 3, tape), tape)

    err = ad.grad_check(f, {"z": logits}, eps=1e-4)
    assert err < 1e-6
    tape, out = f({"z": logits})
    want = ad.softmax(logits).values - np.eye(6)[3]
    np.testing.assert_allclose(ad.backward(tape, out)[tape.node_of(logits)].values,
                               want, rtol=1e-12, atol=1e-15)


def test_gradient_flows_through_shared_subexpression():
    # x used twice: d/dx mean(x*x + x) = 2x/n + 1/n
    tape = ad.Tape()
    x = ad.Tensor([1.0, -2.0, 0.5], requires_grad=True)
    y = ad.mean(ad.add(ad.mul(x, x, tape), x, tape), tape)
    grads = ad.backward(tape, y)
    np.testing.assert_allclose(grads[tape.node_of(x)].values,
                               (2.0 * x.values + 1.0) / 3.0)


def test_constant_inputs_are_not_differentiated():
    tape = ad.Tape()
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    c = ad.Tensor([3.0, 4.0])  # constant
    y = ad.mean(ad.mul(x, c, tape), tape)
    grads = ad.backward(tape, y)
    assert tape.node_of(x) in grads
    assert all(tape._tensors[nid].requires_grad for nid in grads)
    np.testing.assert_allclose(grads[tape.node_of(x)].values, c.values / 2.0)
