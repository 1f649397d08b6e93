import math

import numpy as np
import pytest

from relayalloc import (
    Batch,
    Gradients,
    InvalidArgumentError,
    MlpParams,
    OpCounter,
    PowerAllocation,
    SchemaError,
    adam_step,
    decode_output,
    encode_input,
    encode_target,
    flop_count,
    forward,
    gradients,
    init_adam,
    init_mlp,
    load_model,
    mse_loss,
    save_model,
    sigmoid,
)
from relayalloc.mlp import NormalizationSpec

# Three Adam steps on f(theta) = theta^2 from theta = 1 with step size 0.1,
# beta1 = 0.9, beta2 = 0.999, epsilon = 1e-8; frozen from an independent
# plain-float implementation of the update equations.
ADAM_TRACE = [
    # (theta, m, v) after each step
    (0.9000000005, 0.19999999999999996, 0.0040000000000000036),
    (0.8004122286917928, 0.3600000000999999, 0.007236000003600007),
    (0.7015862729460303, 0.48408244582835847, 0.00979140294695386),
]


def scalar_params(theta: float) -> MlpParams:
    return MlpParams(
        layer_dims=(1, 1, 1),
        weights=[np.array([[theta]]), np.array([[0.0]])],
        biases=[np.zeros(1), np.zeros(1)],
    )


def test_adam_matches_frozen_trace():
    params = scalar_params(1.0)
    state = init_adam(params, step_size=0.1, beta1=0.9, beta2=0.999, epsilon=1e-8)
    for theta_ref, m_ref, v_ref in ADAM_TRACE:
        theta = float(params.weights[0][0, 0])
        grads = Gradients(
            d_weights=[np.array([[2.0 * theta]]), np.zeros((1, 1))],
            d_biases=[np.zeros(1), np.zeros(1)],
            loss=theta * theta,
        )
        state, params = adam_step(state, params, grads)
        assert abs(params.weights[0][0, 0] - theta_ref) < 1e-12
        assert abs(state.m_weights[0][0, 0] - m_ref) < 1e-12
        assert abs(state.v_weights[0][0, 0] - v_ref) < 1e-12
    assert state.step == 3


def test_first_adam_step_has_unit_scale():
    # after bias correction the first update is ~step_size regardless of
    # the gradient's magnitude
    for g0, alpha in [(2.0, 0.1), (1e-3, 0.05), (400.0, 1e-4)]:
        params = scalar_params(1.0)
        state = init_adam(params, step_size=alpha)
        grads = Gradients(
            d_weights=[np.array([[g0]]), np.zeros((1, 1))],
            d_biases=[np.zeros(1), np.zeros(1)],
            loss=0.0,
        )
        adam_step(state, params, grads)
        step = 1.0 - params.weights[0][0, 0]
        assert 0.99 * alpha <= step <= alpha


def test_untouched_parameters_stay_put():
    params = scalar_params(1.0)
    state = init_adam(params, step_size=0.1)
    grads = Gradients(
        d_weights=[np.array([[2.0]]), np.zeros((1, 1))],
        d_biases=[np.zeros(1), np.zeros(1)],
        loss=0.0,
    )
    adam_step(state, params, grads)
    assert params.weights[1][0, 0] == 0.0
    assert params.biases[0][0] == 0.0 and params.biases[1][0] == 0.0


def test_sigmoid_values_and_saturation():
    assert sigmoid(np.array(0.0)) == 0.5
    z = np.array([-3.0, -0.5, 0.25, 4.0])
    expected = 1.0 / (1.0 + np.exp(-z))
    assert np.allclose(sigmoid(z), expected, rtol=1e-15, atol=0)
    assert sigmoid(np.array(41.0)) == 1.0
    assert sigmoid(np.array(-41.0)) == 0.0
    with np.errstate(over="raise", under="raise"):
        big = sigmoid(np.array([-800.0, 800.0]))
    assert big.tolist() == [0.0, 1.0]
    # the negative tail stays strictly positive right up to the guard, while
    # the positive side rounds to 1.0 naturally once e^-z drops below the
    # float64 epsilon (around z = 36.7), before the guard ever applies
    inside = sigmoid(np.array([-39.9, 36.0, 39.9]))
    assert 0.0 < inside[0] < 1e-15
    assert inside[1] < 1.0
    assert inside[2] == 1.0


def test_sigmoid_is_monotone():
    z = np.linspace(-50, 50, 1001)
    out = sigmoid(z)
    assert (np.diff(out) >= 0).all()
    assert ((out >= 0) & (out <= 1)).all()


def test_init_is_seeded_and_bounded():
    a = init_mlp([8, 64, 64, 4], seed=7)
    b = init_mlp([8, 64, 64, 4], seed=7)
    c = init_mlp([8, 64, 64, 4], seed=8)
    for wa, wb in zip(a.weights, b.weights):
        assert (wa == wb).all()
    assert any((wa != wc).any() for wa, wc in zip(a.weights, c.weights))
    for w, fan_in in zip(a.weights, (8, 64, 64)):
        limit = 1.0 / math.sqrt(fan_in)
        assert (np.abs(w) <= limit).all()
        assert w.shape[1] == fan_in
    for bias in a.biases:
        assert (bias == 0.0).all()


def test_init_requires_hidden_layer():
    with pytest.raises(InvalidArgumentError):
        init_mlp([8, 4], seed=0)
    with pytest.raises(InvalidArgumentError):
        init_mlp([8, 0, 4], seed=0)


def test_forward_shapes_and_row_consistency():
    params = init_mlp([8, 16, 4], seed=3)
    rng = np.random.default_rng(0)
    batch = rng.uniform(0, 1, size=(5, 8))
    out = forward(params, batch)
    assert out.shape == (5, 4)
    for row_in, row_out in zip(batch, out):
        assert np.array_equal(forward(params, row_in), row_out)
    assert ((out > 0) & (out < 1)).all()
    with pytest.raises(InvalidArgumentError):
        forward(params, np.zeros(7))


@pytest.mark.parametrize("dims", [[8, 64, 64, 4], [8, *[128] * 6, 4]])
def test_forward_is_batch_invariant(dims):
    params = init_mlp(dims, seed=4)
    rng = np.random.default_rng(5)
    for b in params.biases:
        b[:] = rng.normal(size=b.shape)
    inputs = rng.uniform(0, 1, size=(500, dims[0]))
    rows = np.stack([forward(params, x) for x in inputs])
    for size in (1, 2, 25, 500):
        assert np.array_equal(forward(params, inputs[:size]), rows[:size])  # bitwise
    # a batch that is not C-contiguous answers the same
    assert np.array_equal(forward(params, np.asfortranarray(inputs)), rows)


def test_flop_count_matches_instrumented_forward():
    dims = [8, 64, 64, 4]
    params = init_mlp(dims, seed=1)
    per_sample = flop_count(dims)
    assert per_sample == 8 * 64 + 64 + 64 * 64 + 64 + 64 * 4 + 4
    counter = OpCounter()
    forward(params, np.random.default_rng(2).uniform(0, 1, size=(17, 8)), counter)
    assert counter.total == 17 * per_sample
    assert counter.macs == 17 * (8 * 64 + 64 * 64 + 64 * 4)
    assert counter.activations == 17 * (64 + 64 + 4)


def test_loss_hand_value():
    # identity-free check on a fixed tiny network
    params = MlpParams(
        layer_dims=(1, 1, 1),
        weights=[np.array([[0.0]]), np.array([[0.0]])],
        biases=[np.zeros(1), np.zeros(1)],
    )
    # all-zero weights: every activation is sigmoid(0) = 0.5
    batch = Batch(inputs=np.array([[0.3], [0.9]]), targets=np.array([[0.0], [1.0]]))
    # loss = (0.5^2 + 0.5^2) / 2
    assert mse_loss(params, batch) == 0.25


@pytest.mark.parametrize("dims", [[3, 5, 2], [4, 8, 8, 3], [2, 16, 1]])
def test_backprop_matches_central_differences(dims):
    rng = np.random.default_rng(hash(tuple(dims)) % 2**32)
    params = init_mlp(dims, seed=11)
    batch = Batch(
        inputs=rng.uniform(0, 1, size=(7, dims[0])),
        targets=rng.uniform(0, 1, size=(7, dims[-1])),
    )
    grads = gradients(params, batch)
    assert mse_loss(params, batch) == grads.loss  # the same training pass, bitwise
    eps = 1e-6
    for layer in range(len(params.weights)):
        w = params.weights[layer]
        for idx in np.ndindex(*w.shape):
            orig = w[idx]
            w[idx] = orig + eps
            up = mse_loss(params, batch)
            w[idx] = orig - eps
            down = mse_loss(params, batch)
            w[idx] = orig
            numeric = (up - down) / (2 * eps)
            scale = max(1.0, abs(numeric))
            assert abs(grads.d_weights[layer][idx] - numeric) / scale < 1e-4
        b = params.biases[layer]
        for j in range(b.size):
            orig = b[j]
            b[j] = orig + eps
            up = mse_loss(params, batch)
            b[j] = orig - eps
            down = mse_loss(params, batch)
            b[j] = orig
            numeric = (up - down) / (2 * eps)
            scale = max(1.0, abs(numeric))
            assert abs(grads.d_biases[layer][j] - numeric) / scale < 1e-4


def test_bias_free_network_keeps_biases_zero():
    params = init_mlp([3, 4, 2], seed=5, use_bias=False)
    state = init_adam(params, step_size=0.01)
    rng = np.random.default_rng(6)
    batch = Batch(
        inputs=rng.uniform(0, 1, size=(8, 3)),
        targets=rng.uniform(0, 1, size=(8, 2)),
    )
    for _ in range(5):
        grads = gradients(params, batch)
        assert all((g == 0.0).all() for g in grads.d_biases)
        adam_step(state, params, grads)
    assert all((b == 0.0).all() for b in params.biases)


def test_training_step_reduces_loss_on_fixed_batch():
    params = init_mlp([4, 8, 2], seed=9)
    state = init_adam(params, step_size=0.05)
    rng = np.random.default_rng(10)
    batch = Batch(
        inputs=rng.uniform(0, 1, size=(16, 4)),
        targets=rng.uniform(0.2, 0.8, size=(16, 2)),
    )
    before = mse_loss(params, batch)
    for _ in range(50):
        adam_step(state, params, gradients(params, batch))
    after = mse_loss(params, batch)
    assert after < before


def test_encode_decode_round_trip():
    alloc = PowerAllocation(pt=(120.0, 37.5), pr=(14.25, 60.0))
    raw = encode_target(alloc, pt_max=5000.0, pr_max=5000.0)
    assert raw.shape == (4,)
    assert ((raw >= 0) & (raw <= 1)).all()
    back = decode_output(raw, pt_max=5000.0, pr_max=5000.0)
    assert np.allclose(back.as_vector(), alloc.as_vector(), rtol=1e-12, atol=0)


def test_encode_input_layout_and_validation():
    v = np.arange(1, 9, dtype=float).reshape(4, 2)  # 4x2 statistics matrix
    x = encode_input(v, range_hi=8.0)
    assert (x == v.reshape(-1) / 8.0).all()  # row-major flatten
    stack = np.stack([v, v / 2.0, v / 4.0]).reshape(3, 1, 4, 2)
    assert np.array_equal(encode_input(stack, 8.0)[:, 0], [x, x / 2.0, x / 4.0])
    with pytest.raises(InvalidArgumentError):
        encode_input(stack * 2.0, range_hi=8.0)  # one entry above the range
    with pytest.raises(InvalidArgumentError):
        encode_input(v.T, range_hi=8.0)
    with pytest.raises(InvalidArgumentError):
        encode_input(v, range_hi=4.0)  # entries above the range
    with pytest.raises(InvalidArgumentError):
        encode_target(PowerAllocation(pt=(6000.0,), pr=(1.0,)), 5000.0, 5000.0)
    with pytest.raises(InvalidArgumentError):
        decode_output(np.array([0.2, 1.3]), 5000.0, 5000.0)


def test_model_persistence_is_bit_exact(tmp_path):
    params = init_mlp([8, 32, 16, 4], seed=21)
    # perturb away from the raw init so the file sees arbitrary floats
    state = init_adam(params, step_size=0.01)
    rng = np.random.default_rng(22)
    batch = Batch(
        inputs=rng.uniform(0, 1, size=(12, 8)),
        targets=rng.uniform(0, 1, size=(12, 4)),
    )
    for _ in range(3):
        adam_step(state, params, gradients(params, batch))
    norm = NormalizationSpec(range_hi=5.0, pt_max=5000.0, pr_max=5000.0)
    path = tmp_path / "model.json"
    save_model(params, norm, str(path))
    loaded, loaded_norm = load_model(str(path))
    assert loaded.layer_dims == params.layer_dims
    assert loaded_norm == norm
    for a, b in zip(loaded.weights, params.weights):
        assert (a == b).all()
    for a, b in zip(loaded.biases, params.biases):
        assert (a == b).all()
    # saving the loaded model reproduces the file byte for byte
    path2 = tmp_path / "model2.json"
    save_model(loaded, loaded_norm, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_model_loader_rejects_malformed_files(tmp_path):
    params = init_mlp([4, 8, 2], seed=1)
    norm = NormalizationSpec(range_hi=5.0, pt_max=5000.0, pr_max=5000.0)
    good = tmp_path / "good.json"
    save_model(params, norm, str(good))

    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(SchemaError):
        load_model(str(bad))

    import json

    doc = json.loads(good.read_text())
    doc["format"] = "something-else"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_model(str(bad))

    doc = json.loads(good.read_text())
    doc["weights"][0] = doc["weights"][0][:-1]  # drop one weight
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_model(str(bad))

    doc = json.loads(good.read_text())
    del doc["weights"][1]  # drop a whole block
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_model(str(bad))

    doc = json.loads(good.read_text())
    doc["weights"][0][0] = float("nan")
    bad.write_text(json.dumps(doc).replace("NaN", "NaN"))
    with pytest.raises(SchemaError):
        load_model(str(bad))

    doc = json.loads(good.read_text())
    del doc["normalization"]
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_model(str(bad))
