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
multiplies each batch with one gemm, the faster product. Every pass
writes into preallocated buffers (a ``_Workspace``; Adam's temporaries
live in ``AdamState``) in the operation order of the formulas here, so
the results are bitwise those of the formulas.

Everything here is plain numpy; gradients are computed analytically by
backpropagation and verified against central differences in the tests.

Loss convention: for a batch of D samples,

    loss = (1/D) * sum_d || targets_d - outputs_d ||^2

(sum over the 2T output entries, mean over the batch only).

Parameter layout: one contiguous vector per network, every weight matrix
(row-major) then every bias vector, in layer order. ``MlpParams.flat`` is
that vector and its ``weights[r]``/``biases[r]`` are views of it;
``Gradients.flat``, Adam's ``m``/``v`` and a model file's ``params``
share the layout, so Adam is a few whole-vector operations, with
gradient g and step counter t:

    m <- beta1 m + (1 - beta1) g
    v <- beta2 v + (1 - beta2) g*g
    mhat = m / (1 - beta1^t),  vhat = v / (1 - beta2^t)
    theta <- theta - step_size * mhat / (sqrt(vhat) + epsilon)

Cost accounting: one forward pass of one sample through layer r costs
rho_r * rho_{r+1} multiply-accumulates plus rho_{r+1} activations;
``flop_count`` totals that over layers.
"""

from __future__ import annotations

import base64
import itertools
import json
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from ._files import atomic_open, numbers, read_json, typed
from .errors import InvalidArgumentError, SchemaError, check_finite, check_integer
from .gridsearch import PowerAllocation

_SIGMOID_SAT = 40.0  # |z| beyond which the sigmoid is saturated in float64
# 0-d operands: a ufunc takes them faster than Python floats, with the same bits
_ONE, _MINUS_ONE = np.array(1.0), np.array(-1.0)

MODEL_FORMAT = "relay-mlp-v2"


def _pack(weights, biases, flat=None) -> tuple[np.ndarray, list, list]:
    """``flat`` (by default a new vector holding copies of the arrays) and
    its views shaped like ``weights``, then like ``biases``."""
    arrays = [np.asarray(a, dtype=float) for a in (*weights, *biases)]
    if flat is None:
        flat = np.concatenate([a.reshape(-1) for a in arrays])
    ends = itertools.accumulate(a.size for a in arrays)
    views = [flat[end - a.size : end].reshape(a.shape) for a, end in zip(arrays, ends)]
    return flat, views[: len(weights)], views[len(weights) :]


@dataclass
class MlpParams:
    """weights[r] (rho_{r+1}, rho_r) and biases[r] (rho_{r+1},), views of
    the parameter vector ``flat``. Construction copies the given arrays
    into a new ``flat``, so the caller's arrays are not aliased."""

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.flat, self.weights, self.biases = _pack(self.weights, self.biases)

    @property
    def n_in(self) -> int:
        return self.layer_dims[0]

    @property
    def n_out(self) -> int:
        return self.layer_dims[-1]


@dataclass
class AdamState:
    """Moment vectors ``m`` and ``v``, laid out like ``MlpParams.flat``, and
    the shared step counter; ``m_weights[r]``, ``v_weights[r]``,
    ``m_biases[r]`` and ``v_biases[r]`` are views of ``m`` and ``v``."""

    m: np.ndarray
    v: np.ndarray
    m_weights: list[np.ndarray]
    v_weights: list[np.ndarray]
    m_biases: list[np.ndarray]
    v_biases: list[np.ndarray]
    step: int = 0
    step_size: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    scratch: np.ndarray = field(init=False, repr=False)  # two temporaries like m

    def __post_init__(self):
        self.scratch = np.empty((2, self.m.size))


@dataclass
class Gradients:
    """Loss gradients laid out like ``MlpParams.flat``; arrays are copied
    into a new ``flat`` unless ``flat`` is given with them as its views."""

    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray]
    loss: float
    flat: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.flat is None:
            self.flat, self.d_weights, self.d_biases = _pack(self.d_weights, self.d_biases)


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


@dataclass(frozen=True)
class NormalizationSpec:
    """Constants that tie a trained model to its data scaling."""

    range_hi: float
    pt_max: float
    pr_max: float

    def __post_init__(self):
        for name in ("range_hi", "pt_max", "pr_max"):
            check_finite(name, getattr(self, name))


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic with one exp: exactly 0.0/1.0 beyond
    |z| = 40, and NaN stays NaN.

    With e = where(|z| > 40, 0, exp(-minimum(|z|, 40))) it is
    where(z >= 0, 1, e) / (1 + e); the clip at 40 keeps exp from
    underflowing and changes nothing above 1e-17 (sigmoid(40) is within
    4e-18 of 1)."""
    z = np.array(z, dtype=float)
    _sigmoid_into(z, np.empty_like(z))
    return z[()]  # a scalar for 0-d input


def _sigmoid_into(z, e) -> None:
    """z <- sigmoid(z) in place, bitwise ``sigmoid``'s formula; e is scratch
    like z. e = -|z| = copysign(z, -1), so the clip is maximum(e, -40);
    unless some e < -40 (or NaN) the clip and its where are skipped: they
    change nothing. maximum(e, sign(z)) is 1 for z >= 0, else e, and 1 + e
    then overwrites e."""
    np.copysign(z, _MINUS_ONE, out=e)
    least = np.minimum.reduce(e, axis=None, initial=0.0)
    big = None if least >= -_SIGMOID_SAT else e < -_SIGMOID_SAT
    if big is not None:
        np.maximum(e, -_SIGMOID_SAT, out=e)
    np.exp(e, out=e)
    if big is not None:
        e[big] = 0.0
    np.maximum(e, np.sign(z, out=z), out=z)
    np.divide(z, np.add(e, _ONE, out=e), out=z)


def _validate_dims(layer_dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 3:
        raise InvalidArgumentError(
            f"need input, at least one hidden, and output layer; got dims {dims}"
        )
    if any(d <= 0 for d in dims):
        raise InvalidArgumentError(f"layer dims must be positive, got {dims}")
    return dims


def init_mlp(layer_dims, seed: int) -> MlpParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    dims = _validate_dims(layer_dims)
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    weights = [rng.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in))
               for fan_in, fan_out in zip(dims[:-1], dims[1:])]
    return MlpParams(layer_dims=dims, weights=weights, biases=[np.zeros(d) for d in dims[1:]])


def init_adam(params: MlpParams, step_size: float = 1e-4, beta1: float = 0.9,
              beta2: float = 0.999, epsilon: float = 1e-8) -> AdamState:
    """Zeroed moment vectors laid out like the parameters."""
    m, m_w, m_b = _pack(params.weights, params.biases, np.zeros_like(params.flat))
    v, v_w, v_b = _pack(params.weights, params.biases, np.zeros_like(params.flat))
    return AdamState(m=m, v=v, m_weights=m_w, v_weights=v_w, m_biases=m_b, v_biases=v_b,
                     step=0, step_size=step_size, beta1=beta1, beta2=beta2, epsilon=epsilon)


class _Workspace:
    """Buffers for passes over ``rows`` inputs: layer r's activation
    ``acts[r]`` and the sigmoid's scratch ``exps[r]``, which backprop reuses
    as its ``deltas``. Backprop's ``factors`` (1 - a, shared by layers of
    one width) are made on first use, so a forward pass never pays for them."""

    def __init__(self, layer_dims, rows: int):
        self.acts = [np.empty((rows, w)) for w in layer_dims[1:]]
        self.exps = self.deltas = [np.empty((rows, w)) for w in layer_dims[1:]]

    @cached_property
    def factors(self) -> list[np.ndarray]:
        by_shape = {a.shape: np.empty(a.shape) for a in self.acts}
        return [by_shape[a.shape] for a in self.acts]


def _forward_into(params: MlpParams, x, ws: _Workspace, invariant=False) -> _Workspace:
    """Fill ``ws.acts`` for the 2-d input x; returns ``ws``.

    ``invariant`` multiplies each row of a C-contiguous ``x`` as its own
    one-row product, so a row's result ignores the batch; otherwise one gemm.
    A single row is that one-row product either way.
    """
    a = x
    for w, b, z, e in zip(params.weights, params.biases, ws.acts, ws.exps):
        if invariant and len(z) > 1:
            np.matmul(a[:, None, :], w.T, out=z[:, None, :])
        else:
            np.matmul(a, w.T, out=z)
        _sigmoid_into(np.add(z, b, out=z), e)
        a = z
    return ws


def _loss_into(ws: _Workspace, targets: np.ndarray) -> float:
    """Loss of the last forward pass; leaves out - targets in ``ws.deltas[-1]``."""
    diff = np.subtract(ws.acts[-1], targets, out=ws.deltas[-1])
    squares = np.multiply(diff, diff, out=ws.factors[-1])
    return float(np.add.reduce(squares, axis=None) / len(targets))  # np.sum without its wrapper


def _backprop_into(params: MlpParams, x, targets, ws: _Workspace, grads: Gradients):
    """Loss and backpropagated gradients of the batch (x, targets), written
    into ``grads``, which is returned."""
    grads.loss = _loss_into(_forward_into(params, x, ws), targets)
    acts = [x, *ws.acts]
    delta = np.multiply(ws.deltas[-1], 2.0 / len(x), out=ws.deltas[-1])
    for layer in range(len(params.weights) - 1, -1, -1):
        # dL/dz = delta a (1 - a), delta being (2/D)(out - target), then dL/dz @ W
        a = acts[layer + 1]
        np.multiply(np.multiply(delta, a, out=delta), np.subtract(1.0, a, out=ws.factors[layer]),
                    out=delta)
        np.matmul(delta.T, acts[layer], out=grads.d_weights[layer])
        np.add.reduce(delta, axis=0, out=grads.d_biases[layer])
        if layer > 0:
            delta = np.matmul(delta, params.weights[layer], out=ws.deltas[layer - 1])
    return grads


def forward(params: MlpParams, x) -> np.ndarray:
    """Network output for a single input vector or a (D, n_in) batch;
    batch-invariant (see the module docstring)."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    arr = np.ascontiguousarray(arr.reshape(1, -1) if single else np.atleast_2d(arr))
    if arr.shape[1] != params.n_in:
        raise InvalidArgumentError(
            f"input width {arr.shape[1]} does not match layer_dims[0]={params.n_in}"
        )
    ws = _Workspace(params.layer_dims, len(arr))
    out = _forward_into(params, arr, ws, invariant=True).acts[-1]
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
    ws = _forward_into(params, batch.inputs, _Workspace(params.layer_dims, batch.size))
    return _loss_into(ws, batch.targets)


def gradients(params: MlpParams, batch: Batch) -> Gradients:
    """Backpropagated loss gradients, written straight into one gradient
    vector; loss comes for free from the same pass."""
    _check_widths(params, batch)
    grads = Gradients(params.weights, params.biases, float("nan"))  # a buffer, all overwritten
    return _backprop_into(params, batch.inputs, batch.targets,
                          _Workspace(params.layer_dims, batch.size), grads)


def adam_step(state: AdamState, params: MlpParams, grads: Gradients):
    """One Adam update of the whole parameter vector, in place; returns the
    advanced (state, params)."""
    state.step += 1
    b1, b2, g = state.beta1, state.beta2, grads.flat
    m, v, (t, u) = state.m, state.v, state.scratch
    np.add(np.multiply(m, b1, out=m), np.multiply(g, 1.0 - b1, out=t), out=m)
    np.add(np.multiply(v, b2, out=v), np.multiply(np.multiply(g, g, out=t), 1.0 - b2, out=t),
           out=v)
    step = np.multiply(np.divide(m, 1.0 - b1**state.step, out=t), state.step_size, out=t)
    den = np.add(np.sqrt(np.divide(v, 1.0 - b2**state.step, out=u), out=u), state.epsilon, out=u)
    np.subtract(params.flat, np.divide(step, den, out=t), out=params.flat)
    return state, params


def encode_input(v: np.ndarray, range_hi: float) -> np.ndarray:
    """Row-major flatten of the 4xT statistics matrix, scaled by range_hi;
    a (..., 4, T) stack of matrices gives (..., 4T)."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim < 2 or arr.shape[-2] != 4:
        raise InvalidArgumentError(f"expected 4xT matrices, got shape {arr.shape}")
    check_finite("range_hi", range_hi)
    lo, hi = _extremes(arr)
    if not (lo > 0 and hi <= range_hi):
        raise InvalidArgumentError(
            f"statistics entries must lie in (0, {range_hi}], got range [{lo}, {hi}]"
        )
    return arr.reshape(arr.shape[:-2] + (4 * arr.shape[-1],)) / range_hi


def _extremes(arr: np.ndarray) -> tuple[float, float]:
    """(least, greatest) entry, (inf, -inf) for no entries. Both are NaN
    when some entry is, so a range check on them refuses NaN."""
    return (np.minimum.reduce(arr, axis=None, initial=np.inf),
            np.maximum.reduce(arr, axis=None, initial=-np.inf))


def _caps(pt_max: float, pr_max: float, width: int) -> np.ndarray:
    """The (2T,) cap vector, pt_max T times then pr_max T times."""
    t = width // 2
    return np.array([pt_max] * t + [pr_max] * t)


def _encode_powers(vec: np.ndarray, pt_max: float, pr_max: float) -> np.ndarray:
    """(..., 2T) powers, pt then pr, divided by their caps."""
    caps = _caps(pt_max, pr_max, vec.shape[-1])
    if (vec > caps).any():
        raise InvalidArgumentError("allocation exceeds the power caps")
    return vec / caps


def _decode_powers(raw: np.ndarray, pt_max: float, pr_max: float) -> np.ndarray:
    """(..., 2T) raw outputs in [0, 1] -> powers, pt then pr."""
    lo, hi = _extremes(raw)
    if not (lo >= 0 and hi <= 1):
        raise InvalidArgumentError("raw outputs must lie in [0, 1]")
    return raw * _caps(pt_max, pr_max, raw.shape[-1])


def decode_output(raw: np.ndarray, pt_max: float, pr_max: float) -> PowerAllocation:
    """Map a raw network output in [0, 1]^(2T) back to power units."""
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1 or arr.size % 2 != 0:
        raise InvalidArgumentError(f"expected a flat even-length vector, got shape {arr.shape}")
    vec = _decode_powers(arr, pt_max, pr_max).tolist()
    t = arr.size // 2
    return PowerAllocation(pt=tuple(vec[:t]), pr=tuple(vec[t:]))


def save_model(params: MlpParams, normalization: NormalizationSpec, path: str) -> None:
    """Versioned JSON; ``params`` is the parameter vector ``flat`` as one
    base64 string of little-endian float64. Written atomically."""
    doc = {
        "format": MODEL_FORMAT,
        "layer_dims": list(params.layer_dims),
        "normalization": asdict(normalization),
        "params": base64.b64encode(params.flat.astype("<f8").tobytes()).decode("ascii"),
    }
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc) + "\n")  # the C encoder; json.dump takes the Python one


def load_model(path: str) -> tuple[MlpParams, NormalizationSpec]:
    """Bit-exact inverse of save_model; refuses unknown formats, fields of
    the wrong JSON type (the strict rule of ``_files``: no strings or
    booleans for numbers, integers for ``layer_dims``), ``params`` that is
    not base64 of exactly the float64 vector ``layer_dims`` implies, and
    non-finite parameters."""
    with open(path, "r", encoding="utf-8") as fh:
        params, norm = read_json(fh.read(), path, "field", _read_model, MODEL_FORMAT)
    if not np.isfinite(params.flat).all():
        raise SchemaError(f"{path}: non-finite parameter values")
    return params, norm


def _read_model(doc: dict) -> tuple[MlpParams, NormalizationSpec]:
    dims = _validate_dims(numbers(doc["layer_dims"], 1, "int").tolist())
    norm = NormalizationSpec(**typed(NormalizationSpec, doc["normalization"]))
    if type(doc["params"]) is not str:
        raise TypeError(f"params must be a base64 string, got {type(doc['params']).__name__}")
    raw = base64.b64decode(doc["params"], validate=True)  # binascii.Error is a ValueError
    shapes = list(zip(dims[1:], dims[:-1]))
    sizes = [i * j for i, j in shapes] + list(dims[1:])
    if len(raw) != 8 * sum(sizes):
        raise ValueError(f"params hold {len(raw)} bytes, {dims} need {8 * sum(sizes)}")
    parts = np.split(np.frombuffer(raw, dtype="<f8"), list(itertools.accumulate(sizes))[:-1])
    weights = [w.reshape(shape) for w, shape in zip(parts, shapes)]
    return MlpParams(layer_dims=dims, weights=weights, biases=parts[len(shapes):]), norm
