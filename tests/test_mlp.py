import ast
import base64
import importlib.util
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import relayalloc.mlp
import relayalloc.training
from relayalloc import (
    Batch,
    Gradients,
    InvalidArgumentError,
    MlpParams,
    NonFiniteLossError,
    PowerAllocation,
    SchemaError,
    SystemConfig,
    TrainingConfig,
    adam_step,
    build_dataset,
    dataset_arrays,
    decode_output,
    encode_input,
    flop_count,
    forward,
    gradients,
    init_adam,
    init_mlp,
    load_model,
    mse_loss,
    save_model,
    sigmoid,
    train,
)
from relayalloc.mlp import NormalizationSpec, _decode_powers, _encode_powers

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


def two_branch_sigmoid(z):
    """The logistic as two masked branches, each with its own exp."""
    out = np.where(z > 40.0, 1.0, 0.0)
    mid = np.abs(z) <= 40.0
    pos, neg = mid & (z >= 0), mid & (z < 0)
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    out[neg] = np.exp(z[neg]) / (1.0 + np.exp(z[neg]))
    return out


ULP_ABOVE_40, ULP_BELOW_40 = np.nextafter(40.0, 50.0), np.nextafter(40.0, 0.0)
# the guard, one ulp either side of it, signed zeros, infinities and subnormals
SIGMOID_EDGES = [40.0, -40.0, ULP_ABOVE_40, -ULP_ABOVE_40, 0.0, -0.0, ULP_BELOW_40, -ULP_BELOW_40,
                 np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310]


@pytest.mark.parametrize("shape", [(32, 64), (7,), (3, 5, 4), (len(SIGMOID_EDGES),)])
def test_sigmoid_equals_the_two_branch_form_bitwise(shape):
    z = np.random.default_rng(17).normal(scale=25.0, size=shape)
    count = min(z.size, len(SIGMOID_EDGES))
    z.flat[:count] = SIGMOID_EDGES[:count]
    assert sigmoid(z).tobytes() == two_branch_sigmoid(z).tobytes()


def test_sigmoid_without_saturated_entries_equals_the_two_branch_form_bitwise():
    # nothing beyond |z| = 40: the clip is skipped, and the guard values
    # themselves must still come out of the unclipped formula unchanged
    inside = [40.0, -40.0, ULP_BELOW_40, -ULP_BELOW_40, 0.0, -0.0, 5e-324, -5e-324, 1e-310]
    z = np.concatenate([inside, np.random.default_rng(18).uniform(-40.0, 40.0, 200)])
    assert sigmoid(z).tobytes() == two_branch_sigmoid(z).tobytes()
    for value in inside:
        assert sigmoid(np.array(value)) == two_branch_sigmoid(np.array([value]))[0]


def test_sigmoid_propagates_nan():
    z = np.array([np.nan, 0.3, np.nan] * 300)
    out = sigmoid(z)
    assert np.isnan(out[np.isnan(z)]).all()
    assert not np.isnan(out[~np.isnan(z)]).any()


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


def test_flop_count_hand_value():
    dims = [8, 64, 64, 4]
    assert flop_count(dims) == 8 * 64 + 64 + 64 * 64 + 64 + 64 * 4 + 4


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


def reference_training(params, batches, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Backprop and Adam on one array per layer and parameter kind."""
    n = len(params.weights)
    theta = [w.copy() for w in params.weights] + [b.copy() for b in params.biases]
    m = [np.zeros_like(x) for x in theta]
    v = [np.zeros_like(x) for x in theta]
    for t, batch in enumerate(batches, start=1):
        acts = [batch.inputs]
        for w, b in zip(theta[:n], theta[n:]):
            acts.append(two_branch_sigmoid(acts[-1] @ w.T + b))
        out = acts[-1]
        delta = (2.0 / batch.size) * (out - batch.targets) * out * (1.0 - out)
        grads = [None] * (2 * n)
        for layer in reversed(range(n)):
            grads[layer] = delta.T @ acts[layer]
            grads[n + layer] = delta.sum(axis=0)
            a = acts[layer]
            delta = (delta @ theta[layer]) * a * (1.0 - a)
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
            mhat, vhat = m[i] / (1.0 - b1**t), v[i] / (1.0 - b2**t)
            theta[i] = theta[i] - lr * mhat / (np.sqrt(vhat) + eps)
    return theta, m, v


def test_flat_training_equals_per_array_reference_bitwise():
    params = init_mlp([8, 64, 64, 4], seed=31)
    rng = np.random.default_rng(32)
    batches = [Batch(inputs=rng.uniform(0, 1, size=(32, 8)),
                     targets=rng.uniform(0, 1, size=(32, 4))) for _ in range(200)]
    theta, m, v = reference_training(params, batches, lr=1e-3)
    state = init_adam(params, step_size=1e-3)
    for batch in batches:
        state, params = adam_step(state, params, gradients(params, batch))
    for got, want in [
        (params.weights + params.biases, theta),
        (state.m_weights + state.m_biases, m),
        (state.v_weights + state.v_biases, v),
    ]:
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.fixture(scope="module")
def t2_dataset():
    config = SystemConfig(n=2, t=2, m=2, psi_th=1e-2, pt_max=5000.0, pr_max=5000.0)
    return build_dataset(config, 100, 0.5, 5.0, 41, 1e-2,
                         solver_kwargs={"grid0": 8, "max_levels": 2})


@pytest.mark.parametrize("dims, batch_size, epochs, saturate", [
    ([8, 64, 64, 4], 32, 4, False),  # 100 records: three batches of 32 and one of 4
    ([8, 64, 64, 4], 100, 6, False),  # batch size = n
    ([8, 16, 4], 250, 6, False),  # batch size > n
    ([8, 128, 128, 128, 4], 32, 2, False),
    ([8, 64, 64, 4], 32, 3, True),  # some |z| > 40: the sigmoid's saturating branch
])
def test_train_equals_per_array_reference_bitwise(t2_dataset, monkeypatch, dims, batch_size,
                                                  epochs, saturate):
    params = init_mlp(dims, seed=33)
    if saturate:
        params.weights[0][0] *= 300.0
    x, y = dataset_arrays(t2_dataset)
    z = x @ params.weights[0].T
    assert (np.abs(z) > 40).any() == saturate and (np.abs(z) <= 40).any()
    config = TrainingConfig(epochs=epochs, batch_size=batch_size, step_size=1e-3,
                            shuffle_seed=34, snapshot_every=2)
    rng = np.random.default_rng(config.shuffle_seed)
    batches = []
    for _ in range(epochs):
        perm = rng.permutation(len(x))
        batches += [Batch(inputs=x[idx], targets=y[idx])
                    for idx in np.split(perm, range(batch_size, len(x), batch_size))]
    theta, m, v = reference_training(params, batches, lr=config.step_size)
    states = []
    monkeypatch.setattr(relayalloc.training, "init_adam",
                        lambda *a, **k: states.append(init_adam(*a, **k)) or states[-1])
    trained, _ = train(params, t2_dataset, config)
    assert trained is params and states[0].step == len(batches)
    for got, want in [(params.weights + params.biases, theta),
                      (states[0].m_weights + states[0].m_biases, m),
                      (states[0].v_weights + states[0].v_biases, v)]:
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_non_finite_loss_leaves_the_last_finite_step(t2_dataset):
    # one step per epoch; steps this large overflow the weights within a few epochs
    config = TrainingConfig(epochs=50, batch_size=100, step_size=1e308, snapshot_every=1)
    params = init_mlp([8, 16, 4], seed=35)
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteLossError) as err:
            train(params, t2_dataset, config)
        assert err.value.epoch >= 2 and err.value.batch_index == 0
        last_finite, _ = train(init_mlp([8, 16, 4], seed=35), t2_dataset,
                               replace(config, epochs=err.value.epoch - 1))
    assert params.flat.tobytes() == last_finite.flat.tobytes()


def test_parameters_and_moments_are_views_of_one_vector():
    params = init_mlp([3, 5, 2], seed=1)
    x = np.full(3, 0.5)
    before = forward(params, x)
    params.weights[1][0, 2] += 1.0  # writes through to the network
    assert forward(params, x)[0] != before[0]
    assert params.flat[15 + 2] == params.weights[1][0, 2]  # after the 5x3 first layer
    params.biases[0][4] = 7.0
    assert params.flat[-3] == 7.0  # the last entry of the first bias block
    state = init_adam(params)
    state.m_weights[0][1, 1] = 3.0
    assert state.m[4] == 3.0
    for views, vector in [(state.m_weights + state.m_biases, state.m),
                          (state.v_weights + state.v_biases, state.v),
                          (params.weights + params.biases, params.flat)]:
        assert all(view.base is vector for view in views)
    assert state.m.shape == state.v.shape == params.flat.shape == (3 * 5 + 5 * 2 + 5 + 2,)
    # construction copies: the caller's arrays are not aliased
    given = [np.ones((5, 3)), np.ones((2, 5))]
    built = MlpParams(layer_dims=(3, 5, 2), weights=given, biases=[np.zeros(5), np.zeros(2)])
    given[0][0, 0] = 9.0
    assert built.weights[0][0, 0] == 1.0


def test_encode_decode_round_trip():
    alloc = PowerAllocation(pt=(120.0, 37.5), pr=(14.25, 60.0))
    raw = _encode_powers(np.array(alloc.as_vector()), pt_max=5000.0, pr_max=5000.0)
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
        _encode_powers(np.array([6000.0, 1.0]), 5000.0, 5000.0)
    with pytest.raises(InvalidArgumentError):
        decode_output(np.array([0.2, 1.3]), 5000.0, 5000.0)


def test_range_checks_refuse_exactly_what_entrywise_comparisons_refuse():
    v = np.full((4, 2), 2.0)

    def with_entry(value):
        out = v.copy()
        out[1, 0] = value
        return out

    # a NaN entry is refused where it enters, with the statistics or the
    # raw-output message, alone or beside an entry out of range
    for sample in (with_entry(np.nan), np.where(np.eye(4, 2) > 0, np.nan, 9.0)):
        with pytest.raises(InvalidArgumentError,
                           match=re.escape("(0, 5.0], got range [nan, nan]")):
            encode_input(sample, 5.0)
    for raw in (np.array([0.5, np.nan, 0.25, 1.0]), np.array([np.nan, 2.0])):
        with pytest.raises(InvalidArgumentError, match=r"raw outputs must lie in \[0, 1\]"):
            decode_output(raw, 5000.0, 5000.0)
    # empty stacks are legal
    assert encode_input(np.empty((0, 4, 2)), 5.0).shape == (0, 8)
    assert _decode_powers(np.empty((0, 4)), 5000.0, 5000.0).shape == (0, 4)
    # the bounds, and one ulp beyond them
    assert encode_input(with_entry(5.0), 5.0)[2] == 1.0
    assert encode_input(with_entry(5e-324), 5.0)[2] == 5e-324 / 5.0
    for bad, shown in [(0.0, "[0.0, 2.0]"), (-0.0, "[-0.0, 2.0]"), (np.inf, "[2.0, inf]"),
                       (np.nextafter(5.0, 6.0), "[2.0, 5.000000000000001]")]:
        with pytest.raises(InvalidArgumentError, match=re.escape(f"got range {shown}")):
            encode_input(with_entry(bad), 5.0)
    assert decode_output(np.array([1.0, -0.0]), 5000.0, 4000.0).as_vector() == (5000.0, -0.0)
    for bad in (np.nextafter(1.0, 2.0), -5e-324):
        with pytest.raises(InvalidArgumentError, match=r"raw outputs must lie in \[0, 1\]"):
            decode_output(np.array([0.5, bad]), 5000.0, 5000.0)
    for range_hi in (np.nan, np.inf, 0.0, -1.0, 10**400):
        with pytest.raises(InvalidArgumentError, match="range_hi must be finite and > 0"):
            encode_input(v, range_hi)


def test_power_allocation_refuses_powers_that_are_not_finite_and_non_negative():
    for power in (np.nan, np.inf, -1.0, -5e-324, 10**400, -10**400):
        with pytest.raises(InvalidArgumentError, match="powers must be finite and >= 0"):
            PowerAllocation(pt=(1.0, power), pr=(1.0, 1.0))
    with pytest.raises(TypeError):
        PowerAllocation(pt=("1.0",), pr=(1.0,))
    # the largest float, integers and -0.0 are finite and not negative
    assert PowerAllocation(pt=(1.7976931348623157e308, 2**63), pr=(-0.0, 0)).pt[1] == 2**63


def pack(vec) -> str:
    """A parameter vector as a model file's ``params`` string."""
    return base64.b64encode(np.asarray(vec, dtype="<f8").tobytes()).decode("ascii")


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


def test_model_file_holds_the_parameter_vector_as_base64_float64(tmp_path):
    params = init_mlp([3, 4, 2], seed=5)
    # values a decimal writer could lose: -0.0, the least subnormal, the
    # largest float and a float with all 53 significand bits set
    params.flat[:4] = [-0.0, 5e-324, 1.7976931348623157e308, 1.0 - 2.0**-53]
    norm = NormalizationSpec(range_hi=5.0, pt_max=5000.0, pr_max=2500.0)
    path = tmp_path / "model.json"
    save_model(params, norm, str(path))
    doc = json.loads(path.read_text())
    assert list(doc) == ["format", "layer_dims", "normalization", "params"]
    assert doc["format"] == "relay-mlp-v2" and doc["layer_dims"] == [3, 4, 2]
    assert base64.b64decode(doc["params"]) == params.flat.astype("<f8").tobytes()
    loaded, _ = load_model(str(path))
    assert loaded.flat.tobytes() == params.flat.tobytes()
    assert all(w.base is loaded.flat for w in (*loaded.weights, *loaded.biases))
    loaded.biases[-1][:] += 1.0  # a loaded model is writable, as a new one is
    save_model(loaded, norm, str(path))
    assert load_model(str(path))[0].flat.tobytes() == loaded.flat.tobytes()


def test_model_loader_rejects_malformed_files(tmp_path):
    params = init_mlp([4, 8, 2], seed=1)
    norm = NormalizationSpec(range_hi=5.0, pt_max=5000.0, pr_max=5000.0)
    good = tmp_path / "good.json"
    save_model(params, norm, str(good))

    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(SchemaError):
        load_model(str(bad))

    bad.write_text("[1, 2]")  # JSON, but not an object
    with pytest.raises(SchemaError):
        load_model(str(bad))

    doc = json.loads(good.read_text())
    doc["format"] = "something-else"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_model(str(bad))

    doc = json.loads(good.read_text())
    doc["params"] = pack(params.flat[:-1])  # drop the last value
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_model(str(bad))

    doc = json.loads(good.read_text())
    doc["params"] = pack(np.delete(params.flat, np.s_[32:48]))  # drop the second weight block
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_model(str(bad))

    doc = json.loads(good.read_text())
    doc["params"] = pack(np.where(np.arange(params.flat.size) == 0, np.nan, params.flat))
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_model(str(bad))

    doc = json.loads(good.read_text())
    del doc["normalization"]
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_model(str(bad))


@pytest.mark.parametrize(
    "field, value",
    [
        ("params", False),
        ("params", 1),
        pytest.param("params", [0.0083], id="params-list"),
        ("params", "0.0083"),
        ("params", True),
        ("params", None),
        ("layer_dims.1", 8.9),
        ("layer_dims.1", "8"),
        ("layer_dims.2", True),
        ("layer_dims.1", 10**30),
        pytest.param("params", 10**400, id="params-too-large-for-float"),
        ("layer_dims", [[4], [8], [1]]),
        ("normalization.range_hi", True),
        ("normalization.pt_max", "5000.0"),
        ("normalization.pr_max", -1.0),
    ],
)
def test_model_loader_refuses_wrong_typed_fields(tmp_path, field, value):
    path = tmp_path / "model.json"
    save_model(init_mlp([4, 8, 1], seed=2),
               NormalizationSpec(range_hi=5.0, pt_max=5000.0, pr_max=5000.0), str(path))
    doc = json.loads(path.read_text())
    *parents, name = field.split(".")
    target = doc
    for key in parents:
        target = target[int(key) if key.isdigit() else key]
    target[int(name) if name.isdigit() else name] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_model(str(path))


def test_model_module_imports_nothing_from_the_dataset_module():
    # the strict JSON reading rule lives in _files, which both loaders import
    tree = ast.parse(open(relayalloc.mlp.__file__, encoding="utf-8").read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name("." * node.level + (node.module or ""),
                                               "relayalloc")
            imported |= {base} | {f"{base}.{alias.name}" for alias in node.names}
    assert "relayalloc._files" in imported
    assert "relayalloc.data" not in imported

