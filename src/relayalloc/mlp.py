"""Fully connected network with sigmoid activations everywhere, trained
with Adam on a mean squared error loss.

The network maps a flattened 4xT statistics matrix (normalized by the
sampling range) to 2T normalized power levels. The sigmoid is applied
after every layer *including the output layer*, so raw outputs live in
(0, 1) and decode to powers via the caps. Chaining
``encode_input -> forward -> decode_output`` is the whole inference path,
and the first two take whole stacks of samples too.

Inference is batch-invariant: row i of a ``forward`` batch is bitwise the
single-row answer. BLAS gemm picks different kernels for one row and for
many, so ``forward`` multiplies each row as its own one-row product.
Training (``gradients``, ``mse_loss``) needs no batch invariance and
multiplies each batch with one gemm, the faster product.

Everything here is plain numpy; gradients are computed analytically by
backpropagation and verified against central differences in the tests.

Loss convention: for a batch of D samples,

    loss = (1/D) * sum_d || targets_d - outputs_d ||^2

(sum over the 2T output entries, mean over the batch only).

Adam, per step, with gradient g and step counter t:

    m <- beta1 m + (1 - beta1) g
    v <- beta2 v + (1 - beta2) g*g
    mhat = m / (1 - beta1^t),  vhat = v / (1 - beta2^t)
    theta <- theta - step_size * mhat / (sqrt(vhat) + epsilon)

Cost accounting: one forward pass of one sample through layer r costs
rho_r * rho_{r+1} multiply-accumulates plus rho_{r+1} activations;
``flop_count`` totals that over layers and the instrumented forward pass
counts the same quantities at run time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._files import atomic_open
from .errors import InvalidArgumentError, SchemaError
from .gridsearch import PowerAllocation

_SIGMOID_SAT = 40.0  # |z| beyond which the sigmoid is saturated in float64

MODEL_FORMAT = "relay-mlp-v1"


@dataclass
class MlpParams:
    """Weights and biases; weights[r] has shape (rho_{r+1}, rho_r)."""

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    use_bias: bool = True

    @property
    def n_in(self) -> int:
        return self.layer_dims[0]

    @property
    def n_out(self) -> int:
        return self.layer_dims[-1]


@dataclass
class AdamState:
    """First/second moment estimates and the shared step counter."""

    m_weights: list[np.ndarray]
    v_weights: list[np.ndarray]
    m_biases: list[np.ndarray]
    v_biases: list[np.ndarray]
    step: int = 0
    step_size: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


@dataclass
class Gradients:
    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray]
    loss: float


@dataclass
class Batch:
    """A training batch: inputs (D, n_in) and targets (D, n_out) in [0, 1]."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        self.targets = np.atleast_2d(np.asarray(self.targets, dtype=float))
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise InvalidArgumentError(
                f"inputs and targets disagree on batch size: "
                f"{self.inputs.shape} vs {self.targets.shape}"
            )

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


@dataclass
class OpCounter:
    """Accumulates multiply-accumulate and activation counts during forward."""

    macs: int = 0
    activations: int = 0

    @property
    def total(self) -> int:
        return self.macs + self.activations


@dataclass(frozen=True)
class NormalizationSpec:
    """Constants that tie a trained model to its data scaling."""

    range_hi: float
    pt_max: float
    pr_max: float

    def __post_init__(self):
        for name in ("range_hi", "pt_max", "pr_max"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise InvalidArgumentError(f"{name} must be finite and > 0, got {v!r}")


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic; exactly 0.0/1.0 beyond |z| = 40.

    The saturation guard changes nothing above 1e-17 (sigmoid(40) is within
    4e-18 of 1) and keeps exp() away from its overflow range.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    hi = z > _SIGMOID_SAT
    lo = z < -_SIGMOID_SAT
    mid_pos = ~hi & ~lo & (z >= 0)
    mid_neg = ~hi & ~lo & (z < 0)
    out[hi] = 1.0
    out[lo] = 0.0
    out[mid_pos] = 1.0 / (1.0 + np.exp(-z[mid_pos]))
    ez = np.exp(z[mid_neg])
    out[mid_neg] = ez / (1.0 + ez)
    return out


def _validate_dims(layer_dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 3:
        raise InvalidArgumentError(
            f"need input, at least one hidden, and output layer; got dims {dims}"
        )
    if any(d <= 0 for d in dims):
        raise InvalidArgumentError(f"layer dims must be positive, got {dims}")
    return dims


def init_mlp(layer_dims, seed: int, use_bias: bool = True) -> MlpParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    dims = _validate_dims(layer_dims)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(layer_dims=dims, weights=weights, biases=biases, use_bias=use_bias)


def init_adam(params: MlpParams, step_size: float = 1e-4, beta1: float = 0.9,
              beta2: float = 0.999, epsilon: float = 1e-8) -> AdamState:
    """Zeroed moment estimates shaped like the parameters."""
    w, b = params.weights, params.biases
    moments = ([np.zeros_like(x) for x in arrays] for arrays in (w, w, b, b))
    return AdamState(*moments, step=0, step_size=step_size, beta1=beta1, beta2=beta2,
                     epsilon=epsilon)


def _forward_acts(params: MlpParams, x: np.ndarray, invariant: bool,
                  counter: OpCounter | None = None):
    """All layer activations for a 2-d input; acts[0] is the input.

    ``invariant`` multiplies each row of a C-contiguous ``x`` as its own
    one-row product, so a row's result ignores the batch; otherwise one gemm.
    """
    acts = [x]
    a = x
    for w, b in zip(params.weights, params.biases):
        z = np.matmul(a[:, None, :], w.T)[:, 0, :] if invariant else a @ w.T
        if params.use_bias:
            z = z + b
        a = sigmoid(z)
        if counter is not None:
            counter.macs += x.shape[0] * w.shape[0] * w.shape[1]
            counter.activations += x.shape[0] * w.shape[0]
        acts.append(a)
    return acts


def forward(params: MlpParams, x, counter: OpCounter | None = None) -> np.ndarray:
    """Network output for a single input vector or a (D, n_in) batch;
    batch-invariant (see the module docstring)."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    arr = np.ascontiguousarray(np.atleast_2d(arr))
    if arr.shape[1] != params.n_in:
        raise InvalidArgumentError(
            f"input width {arr.shape[1]} does not match layer_dims[0]={params.n_in}"
        )
    out = _forward_acts(params, arr, invariant=True, counter=counter)[-1]
    return out[0] if single else out


def flop_count(layer_dims) -> int:
    """Per-sample forward cost: sum over layers of rho_r*rho_{r+1} + rho_{r+1}."""
    dims = _validate_dims(layer_dims)
    return sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))


def _check_widths(params: MlpParams, batch: Batch) -> None:
    if batch.inputs.shape[1] != params.n_in:
        raise InvalidArgumentError(
            f"input width {batch.inputs.shape[1]} does not match layer_dims[0]={params.n_in}"
        )
    if batch.targets.shape[1] != params.n_out:
        raise InvalidArgumentError(
            f"target width {batch.targets.shape[1]} does not match layer_dims[-1]={params.n_out}"
        )


def mse_loss(params: MlpParams, batch: Batch) -> float:
    """(1/D) sum of squared output errors over the batch, from the training
    pass: bitwise the ``loss`` of ``gradients`` on the same batch."""
    _check_widths(params, batch)
    diff = _forward_acts(params, batch.inputs, invariant=False)[-1] - batch.targets
    return float(np.sum(diff * diff) / batch.size)


def gradients(params: MlpParams, batch: Batch) -> Gradients:
    """Backpropagated loss gradients; loss comes for free from the same pass."""
    _check_widths(params, batch)
    acts = _forward_acts(params, batch.inputs, invariant=False)
    d = batch.size
    out = acts[-1]
    diff = out - batch.targets
    loss = float(np.sum(diff * diff) / d)
    # output layer: dL/dz = (2/D)(out - target) * sigmoid'(z), sigmoid' = a(1-a)
    delta = (2.0 / d) * diff * out * (1.0 - out)
    n_layers = len(params.weights)
    d_w = [None] * n_layers
    d_b = [None] * n_layers
    for layer in range(n_layers - 1, -1, -1):
        d_w[layer] = delta.T @ acts[layer]
        d_b[layer] = delta.sum(axis=0)
        if layer > 0:
            a = acts[layer]
            delta = (delta @ params.weights[layer]) * a * (1.0 - a)
    if not params.use_bias:
        d_b = [np.zeros_like(b) for b in params.biases]
    return Gradients(d_weights=d_w, d_biases=d_b, loss=loss)


def adam_step(state: AdamState, params: MlpParams, grads: Gradients):
    """One Adam update, in place; returns the advanced (state, params)."""
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    lr, eps = state.step_size, state.epsilon
    groups = [(state.m_weights, state.v_weights, params.weights, grads.d_weights)]
    if params.use_bias:
        groups.append((state.m_biases, state.v_biases, params.biases, grads.d_biases))
    for m, v, theta, grad in groups:
        for i, g in enumerate(grad):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
            theta[i] -= lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + eps)
    return state, params


def encode_input(v: np.ndarray, range_hi: float) -> np.ndarray:
    """Row-major flatten of the 4xT statistics matrix, scaled by range_hi;
    a (..., 4, T) stack of matrices gives (..., 4T)."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim < 2 or arr.shape[-2] != 4:
        raise InvalidArgumentError(f"expected 4xT matrices, got shape {arr.shape}")
    if not (np.isfinite(range_hi) and range_hi > 0):
        raise InvalidArgumentError(f"range_hi must be finite and > 0, got {range_hi!r}")
    if (arr <= 0).any() or (arr > range_hi).any():
        raise InvalidArgumentError(
            f"statistics entries must lie in (0, {range_hi}], got range "
            f"[{arr.min()}, {arr.max()}]"
        )
    return arr.reshape(arr.shape[:-2] + (4 * arr.shape[-1],)) / range_hi


def _encode_powers(vec: np.ndarray, pt_max: float, pr_max: float) -> np.ndarray:
    """(..., 2T) powers, pt then pr, divided by their caps."""
    caps = np.repeat([pt_max, pr_max], vec.shape[-1] // 2)
    if (vec > caps).any():
        raise InvalidArgumentError("allocation exceeds the power caps")
    return vec / caps


def _decode_powers(raw: np.ndarray, pt_max: float, pr_max: float) -> np.ndarray:
    """(..., 2T) raw outputs in [0, 1] -> powers, pt then pr."""
    if (raw < 0).any() or (raw > 1).any():
        raise InvalidArgumentError("raw outputs must lie in [0, 1]")
    return raw * np.repeat([pt_max, pr_max], raw.shape[-1] // 2)


def encode_target(allocation: PowerAllocation, pt_max: float, pr_max: float) -> np.ndarray:
    """Normalize an allocation into [0, 1]^(2T) by the power caps."""
    return _encode_powers(np.array(allocation.as_vector(), dtype=float), pt_max, pr_max)


def decode_output(raw: np.ndarray, pt_max: float, pr_max: float) -> PowerAllocation:
    """Map a raw network output in [0, 1]^(2T) back to power units."""
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1 or arr.size % 2 != 0:
        raise InvalidArgumentError(f"expected a flat even-length vector, got shape {arr.shape}")
    vec = _decode_powers(arr, pt_max, pr_max).tolist()
    t = arr.size // 2
    return PowerAllocation(pt=tuple(vec[:t]), pr=tuple(vec[t:]))


def save_model(params: MlpParams, normalization: NormalizationSpec, path: str) -> None:
    """Versioned JSON with row-major float lists; written atomically."""
    doc = {
        "format": MODEL_FORMAT,
        "layer_dims": list(params.layer_dims),
        "use_bias": params.use_bias,
        "normalization": {
            "range_hi": normalization.range_hi,
            "pt_max": normalization.pt_max,
            "pr_max": normalization.pr_max,
        },
        "weights": [[float(x) for x in w.reshape(-1)] for w in params.weights],
        "biases": [[float(x) for x in b] for b in params.biases],
    }
    with atomic_open(path) as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path: str) -> tuple[MlpParams, NormalizationSpec]:
    """Bit-exact inverse of save_model; refuses unknown formats."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise SchemaError(
            f"{path}: expected format {MODEL_FORMAT!r}, got {doc.get('format')!r}"
        )
    try:
        dims = _validate_dims(doc["layer_dims"])
        use_bias = bool(doc["use_bias"])
        norm = NormalizationSpec(**doc["normalization"])
        if len(doc["weights"]) != len(dims) - 1 or len(doc["biases"]) != len(dims) - 1:
            raise SchemaError(
                f"{path}: expected {len(dims) - 1} weight and bias blocks, got "
                f"{len(doc['weights'])} and {len(doc['biases'])}"
            )
        weights, biases = [], []
        for fan_in, fan_out, flat_w, flat_b in zip(
            dims[:-1], dims[1:], doc["weights"], doc["biases"]
        ):
            w = np.asarray(flat_w, dtype=float)
            if w.size != fan_in * fan_out:
                raise SchemaError(
                    f"{path}: layer expects {fan_in * fan_out} weights, got {w.size}"
                )
            b = np.asarray(flat_b, dtype=float)
            if b.size != fan_out:
                raise SchemaError(f"{path}: layer expects {fan_out} biases, got {b.size}")
            weights.append(w.reshape(fan_out, fan_in))
            biases.append(b)
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"{path}: missing or malformed field: {exc}") from exc
    for arr in (*weights, *biases):
        if not np.isfinite(arr).all():
            raise SchemaError(f"{path}: non-finite parameter values")
    params = MlpParams(layer_dims=dims, weights=weights, biases=biases, use_bias=use_bias)
    return params, norm
