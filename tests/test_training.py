import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relayalloc import (
    Dataset,
    InvalidArgumentError,
    NonFiniteLossError,
    OutageQuery,
    PowerAllocation,
    SubcarrierPower,
    SystemConfig,
    TrainingConfig,
    all_active_outage,
    average_histories,
    average_outage,
    build_dataset,
    compare_against_labels,
    decode_output,
    encode_input,
    enumerate_saps,
    forward,
    init_mlp,
    normalization_for,
    relative_error,
    stats_from_sample,
    sweep,
    train,
    write_comparison_csv,
    write_history_csv,
)
from relayalloc.mlp import MlpParams
from relayalloc.gridsearch import _outage
from relayalloc.training import (
    SweepSpec,
    TrainingHistory,
    HistoryPoint,
    _predict,
    _scale_up_repair,
)

CFG = SystemConfig(n=2, t=1, m=2, psi_th=1e-2, pt_max=5000.0, pr_max=5000.0)
SOLVER = {"grid0": 8, "max_levels": 2}


def tiny_dataset(count=12, seed=301):
    return build_dataset(CFG, count, 0.5, 5.0, seed, 1e-2, solver_kwargs=SOLVER)


def tiny_training(**overrides):
    base = dict(epochs=6, batch_size=4, step_size=1e-3, shuffle_seed=99,
                snapshot_every=2)
    base.update(overrides)
    return TrainingConfig(**base)


def constant_model(bias: float = 0.0) -> MlpParams:
    """Zero weights: the output is sigmoid(bias) in every coordinate."""
    params = init_mlp([4, 4, 2], seed=0)
    for w in params.weights:
        w[:] = 0.0
    for b in params.biases:
        b[:] = 0.0
    params.biases[-1][:] = bias
    return params


def test_training_is_deterministic():
    dataset = tiny_dataset()
    val = tiny_dataset(count=4, seed=302)
    runs = []
    for _ in range(2):
        params = init_mlp([4, 8, 2], seed=7)
        params, history = train(params, dataset, tiny_training(), validation=val)
        runs.append((params, history))
    a, b = runs
    for wa, wb in zip(a[0].weights, b[0].weights):
        assert (wa == wb).all()
    assert [(p.epoch, p.loss, p.rel_error) for p in a[1].points] == [
        (p.epoch, p.loss, p.rel_error) for p in b[1].points
    ]
    # a different shuffle seed changes the trajectory
    params = init_mlp([4, 8, 2], seed=7)
    _, other = train(params, dataset, tiny_training(shuffle_seed=100), validation=val)
    assert other.points[-1].loss != a[1].points[-1].loss


def test_snapshot_cadence_and_final_point():
    dataset = tiny_dataset()
    params = init_mlp([4, 8, 2], seed=7)
    _, history = train(params, dataset, tiny_training(epochs=7, snapshot_every=3))
    assert history.epochs() == [3, 6, 7]
    assert all(b > a for a, b in zip(history.epochs(), history.epochs()[1:]))
    assert all(math.isnan(p.rel_error) for p in history.points)  # no validation
    assert all(p.elapsed_sec >= 0 for p in history.points)


def test_loss_decreases_on_small_problem():
    dataset = tiny_dataset(count=16, seed=303)
    params = init_mlp([4, 8, 2], seed=7)
    _, history = train(
        params, dataset, tiny_training(epochs=300, snapshot_every=100, step_size=5e-3)
    )
    assert history.points[-1].loss < history.points[0].loss


def test_network_width_must_match_dataset():
    dataset = tiny_dataset(count=4)
    with pytest.raises(InvalidArgumentError):
        train(init_mlp([6, 8, 2], seed=0), dataset, tiny_training())


@pytest.mark.parametrize("other", [
    (CFG, 4.0),  # decoded with its own normalization, its error would be meaningless
    (SystemConfig(n=2, t=2, m=2), 5.0),  # would fail only at the first snapshot
], ids=["range_hi", "active"])
def test_train_refuses_a_mismatched_validation_set_before_any_step(monkeypatch, other):
    config, range_hi = other
    validation = build_dataset(config, 3, 0.5, range_hi, 302, 1e-2, solver_kwargs=SOLVER)

    def never(*args, **kwargs):
        raise AssertionError("stepped before the validation set was checked")

    monkeypatch.setattr("relayalloc.training.adam_step", never)
    with pytest.raises(InvalidArgumentError, match="training and validation sets disagree"):
        train(init_mlp([4, 8, 2], seed=7), tiny_dataset(count=4), tiny_training(),
              validation=validation)


def test_non_finite_loss_aborts_with_location():
    dataset = tiny_dataset(count=8)
    params = init_mlp([4, 8, 2], seed=7)
    params.weights[0][0, 0] = float("nan")
    with pytest.raises(NonFiniteLossError) as err:
        train(params, dataset, tiny_training())
    assert err.value.epoch == 1
    assert err.value.batch_index == 0
    assert math.isnan(err.value.loss)


def test_relative_error_hand_values():
    dataset = tiny_dataset(count=4)
    model = constant_model(bias=0.0)  # outputs exactly 0.5 everywhere
    predicted = PowerAllocation(pt=(0.5 * CFG.pt_max,), pr=(0.5 * CFG.pr_max,))
    exact = Dataset(
        config=dataset.config,
        gen=dataset.gen,
        records=tuple(
            replace(rec, label=predicted, total_power=predicted.total_power)
            for rec in dataset.records
        ),
    )
    assert relative_error(model, exact) == 0.0
    half = PowerAllocation(pt=(0.25 * CFG.pt_max,), pr=(0.25 * CFG.pr_max,))
    off_by_half = Dataset(
        config=dataset.config,
        gen=dataset.gen,
        records=tuple(
            replace(rec, label=half, total_power=half.total_power)
            for rec in dataset.records
        ),
    )
    # |label - 2*label| / label = 1 in every entry
    assert abs(relative_error(model, off_by_half) - 1.0) < 1e-12


def test_relative_error_excludes_zero_labels_with_warning():
    dataset = tiny_dataset(count=3)
    zero = PowerAllocation(pt=(0.0,), pr=(0.0,))
    mixed = Dataset(
        config=dataset.config,
        gen=dataset.gen,
        records=(
            replace(dataset.records[0], label=zero, total_power=0.0),
            dataset.records[1],
            dataset.records[2],
        ),
    )
    model = constant_model()
    with pytest.warns(RuntimeWarning, match="excluded 1 record"):
        partial = relative_error(model, mixed)
    full = relative_error(
        model, Dataset(config=dataset.config, gen=dataset.gen, records=dataset.records[1:])
    )
    assert partial == full
    all_zero = Dataset(
        config=dataset.config,
        gen=dataset.gen,
        records=tuple(
            replace(r, label=zero, total_power=0.0) for r in dataset.records
        ),
    )
    with pytest.warns(RuntimeWarning):
        with pytest.raises(InvalidArgumentError):
            relative_error(model, all_zero)


def test_relative_error_matches_per_record_reference():
    dataset = tiny_dataset(count=12)
    model = init_mlp([4, 16, 16, 2], seed=5)
    norm = normalization_for(dataset)
    errors = []
    for rec in dataset.records:
        label = np.array([*rec.label.pt, *rec.label.pr])
        pred = decode_output(forward(model, encode_input(rec.sample, norm.range_hi)),
                             norm.pt_max, norm.pr_max)
        errors.append(np.mean(np.abs(label - np.array([*pred.pt, *pred.pr])) / label))
    assert relative_error(model, dataset) == float(np.mean(errors))  # bitwise


def test_one_query_is_bitwise_its_row_of_the_batch_prediction():
    # one query (one matrix encoded, one row forward, one vector decoded)
    # answers with the bits of its row of the whole-set prediction
    config = SystemConfig()
    dataset = build_dataset(config, 12, 0.5, 5.0, 305, 1e-2, solver_kwargs=SOLVER)
    model, _ = train(init_mlp([8, 64, 64, 4], seed=6), dataset, tiny_training())
    norm = normalization_for(dataset)
    batch = _predict(model, dataset)
    for rec, row in zip(dataset.records, batch):
        alloc = decode_output(forward(model, encode_input(rec.sample, norm.range_hi)),
                              norm.pt_max, norm.pr_max)
        assert np.array(alloc.as_vector()).tobytes() == row.tobytes()


def test_comparison_report_flags_violations_and_repairs():
    tight = SystemConfig(n=2, t=1, m=2, psi_th=1e-2, pt_max=20.0, pr_max=20.0)
    dataset = build_dataset(tight, 6, 0.5, 5.0, 311, 1e-2, solver_kwargs=SOLVER)
    lowball = constant_model(bias=-2.0)  # ~12% of the caps: far too little power
    report = compare_against_labels(lowball, dataset)
    assert report.violation_rate == 1.0
    assert all(r.violated and not r.repaired for r in report.rows)
    assert all(r.gap < 0 for r in report.rows)  # cheap but infeasible

    repaired = compare_against_labels(lowball, dataset, repair="scale-up")
    assert repaired.repair == "scale-up"
    assert repaired.violation_rate == 0.0
    for before, after in zip(report.rows, repaired.rows):
        assert after.repaired
        assert after.ann_outage <= tight.psi_th
        assert after.ann_total > before.ann_total
    with pytest.raises(InvalidArgumentError):
        compare_against_labels(lowball, dataset, repair="other")


def test_comparison_gap_sign_convention():
    dataset = tiny_dataset(count=4)
    generous = constant_model(bias=1.5)  # ~82% of the caps: feasible, wasteful
    report = compare_against_labels(generous, dataset)
    assert report.violation_rate == 0.0
    assert all(r.gap > 0 for r in report.rows)
    assert report.mean_gap == pytest.approx(
        float(np.mean([r.gap for r in report.rows]))
    )


def test_comparison_gap_against_a_zero_label():
    # psi_th = 1 lets every allocation through, so every label is all zeros
    dataset = build_dataset(replace(CFG, psi_th=1.0), 3, 0.5, 5.0, 313, 1e-2,
                            solver_kwargs=SOLVER)
    assert dataset.totals.tolist() == [0.0] * 3
    # sigmoid(-50) is exactly 0: a zero network total ties the zero label
    silent = compare_against_labels(constant_model(-50.0), dataset)
    assert [r.gap for r in silent.rows] == [0.0] * 3
    report = compare_against_labels(constant_model(), dataset)
    assert [r.gap for r in report.rows] == [math.inf] * 3 and report.mean_gap == math.inf


def test_history_csv_round_trip(tmp_path):
    history = TrainingHistory(
        points=[
            HistoryPoint(epoch=2, loss=0.125, rel_error=0.5, elapsed_sec=1.0),
            HistoryPoint(epoch=4, loss=0.101007051, rel_error=float("nan"),
                         elapsed_sec=2.0),
        ]
    )
    path = tmp_path / "history.csv"
    write_history_csv(history, str(path))
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["epoch", "loss", "rel_error"]
    assert len(rows) == 3
    assert int(rows[1][0]) == 2
    assert float(rows[1][1]) == 0.125
    assert float(rows[2][1]) == 0.101007051  # repr floats survive the trip
    assert math.isnan(float(rows[2][2]))
    # wall-clock never reaches the artifact
    assert "elapsed" not in path.read_text()


def test_comparison_csv_headers(tmp_path):
    dataset = tiny_dataset(count=3)
    report = compare_against_labels(constant_model(), dataset)
    path = tmp_path / "cmp.csv"
    write_comparison_csv(report, str(path))
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["sample_id", "ann_total", "oracle_total", "gap"]
    assert len(rows) == 4
    assert [int(r[0]) for r in rows[1:]] == [0, 1, 2]
    for row, rep in zip(rows[1:], report.rows):
        assert float(row[1]) == rep.ann_total
        assert float(row[3]) == rep.gap


def test_training_config_validation():
    with pytest.raises(InvalidArgumentError):
        TrainingConfig(epochs=0)
    with pytest.raises(InvalidArgumentError):
        TrainingConfig(batch_size=0)
    with pytest.raises(InvalidArgumentError):
        TrainingConfig(beta1=1.0)
    for value in (0.0, float("nan"), float("inf")):
        with pytest.raises(InvalidArgumentError, match="step_size must be finite and > 0"):
            TrainingConfig(step_size=value)
        with pytest.raises(InvalidArgumentError, match="epsilon must be finite and > 0"):
            TrainingConfig(epsilon=value)


def test_sweep_shapes_and_determinism():
    spec = SweepSpec(
        experiment="neurons",
        grid=(3, 4),
        repeats=2,
        base_seed=5,
        hidden_layers=1,
        train_count=6,
        validation_count=2,
    )
    training = tiny_training(epochs=4, snapshot_every=2)
    runs = sweep(spec, CFG, training)
    assert len(runs) == 4
    assert [(r.value, r.repeat) for r in runs] == [(3.0, 0), (3.0, 1), (4.0, 0), (4.0, 1)]
    seeds = [tuple(r.seeds.values()) for r in runs]
    assert len(set(seeds)) == len(seeds)  # every run gets its own seeds
    again = sweep(spec, CFG, training)
    for a, b in zip(runs, again):
        assert a.seeds == b.seeds
        assert a.final_rel_error == b.final_rel_error
        assert [(p.epoch, p.loss) for p in a.history.points] == [
            (p.epoch, p.loss) for p in b.history.points
        ]


def test_sweep_validation():
    with pytest.raises(InvalidArgumentError):
        SweepSpec(experiment="other", grid=(1,))
    with pytest.raises(InvalidArgumentError):
        SweepSpec(experiment="neurons", grid=())
    with pytest.raises(InvalidArgumentError):
        SweepSpec(experiment="neurons", grid=(8,), repeats=0)


@pytest.mark.parametrize("spec, message", [
    ({"experiment": "neurons", "grid": (4,), "hidden_layers": 0}, "at least one hidden"),
    ({"experiment": "neurons", "grid": (4, 0)}, r"layer dims must be positive, got \(4, 0, 0, 2\)"),
    ({"experiment": "layers", "grid": (2, 0)}, r"hidden, and output layer; got dims \(4, 2\)"),
    ({"experiment": "outage-threshold", "grid": (1e-2, 2.0)}, "psi_th must be in"),
    ({"experiment": "neurons", "grid": (4,), "train_count": 0}, "train_count must be >= 1"),
    ({"experiment": "neurons", "grid": (4,), "validation_count": 0},
     "validation_count must be >= 1, got 0"),
])
def test_sweep_refuses_bad_shapes_before_labeling(monkeypatch, spec, message):
    def never(*args, **kwargs):
        raise AssertionError("labeled before the shapes were checked")

    monkeypatch.setattr("relayalloc.training.build_dataset", never)
    with pytest.raises(InvalidArgumentError, match=message):
        sweep(SweepSpec(**spec), CFG, tiny_training())


def test_average_histories():
    h1 = TrainingHistory(points=[HistoryPoint(1, 0.4, 0.2, 1.0),
                                 HistoryPoint(2, 0.2, 0.1, 2.0)])
    h2 = TrainingHistory(points=[HistoryPoint(1, 0.6, 0.4, 3.0),
                                 HistoryPoint(2, 0.4, 0.3, 4.0)])
    mean = average_histories([h1, h2])
    assert mean.epochs() == [1, 2]
    assert mean.losses() == [0.5, pytest.approx(0.3)]
    assert mean.rel_errors() == [pytest.approx(0.3), pytest.approx(0.2)]
    with pytest.raises(InvalidArgumentError):
        average_histories([])
    h3 = TrainingHistory(points=[HistoryPoint(1, 0.1, 0.1, 1.0)])
    with pytest.raises(InvalidArgumentError):
        average_histories([h1, h3])


def repair_one_at_a_time(alloc, sample, config):
    """Reference: the per-record 80-step bisection on scalar outage calls."""
    stats = stats_from_sample(sample)

    def outage_of(a):
        powers = [SubcarrierPower(pt=p, pr=r) for p, r in zip(a.pt, a.pr)]
        if config.outage_mode == "single-sap":
            return all_active_outage(stats, powers, config.s)
        sap_set = enumerate_saps(config.n, config.t)
        return average_outage(
            OutageQuery(s=config.s, stats=tuple(stats), powers=tuple(powers), sap_set=sap_set)
        )

    def scaled(c):
        return PowerAllocation(
            pt=tuple(min(p * c, config.pt_max) for p in alloc.pt),
            pr=tuple(min(p * c, config.pr_max) for p in alloc.pr),
        )

    positive = [p for p in alloc.as_vector() if p > 0]
    if not positive:
        return alloc
    c_hi = max(config.pt_max, config.pr_max) / min(positive)
    if outage_of(scaled(c_hi)) > config.psi_th:
        return alloc
    lo, hi = 1.0, c_hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if outage_of(scaled(mid)) <= config.psi_th:
            hi = mid
        else:
            lo = mid
    return scaled(hi)


def violating_allocations(config, count, seed):
    """Random (sample, allocation) pairs above the cap; some unrepairable."""
    rng = np.random.default_rng(seed)
    cols = config.cols
    samples, vecs = [], []
    while len(vecs) < count:
        v = rng.uniform(0.02, 5.0, (4, cols))
        vec = rng.uniform(0.0, 1.0, 2 * cols) * 10.0 ** rng.uniform(-3, 0)
        vec *= np.repeat([config.pt_max, config.pr_max], cols)
        if rng.random() < 0.1:
            vec[:cols] = 0.0  # no transmit power: nothing to scale on those entries
        if rng.random() < 0.05:
            vec[:] = 0.0
        if _outage(v, vec, config) > config.psi_th:
            samples.append(v)
            vecs.append(vec)
    return np.array(samples), np.array(vecs)


@pytest.mark.parametrize(
    "config",
    [
        SystemConfig(),
        SystemConfig(n=2, t=1, psi_th=1e-3, pt_max=100.0, pr_max=300.0),
        SystemConfig(n=4, t=2, outage_mode="sap-averaged"),
    ],
)
def test_lock_step_repair_matches_per_record_bisection(config):
    samples, vecs = violating_allocations(config, 60, seed=808)
    cols = samples.shape[2]
    rows, new = _scale_up_repair(vecs, samples, config)
    repaired = dict(zip(rows.tolist(), new.tolist()))
    unchanged = 0
    for i, (sample, vec) in enumerate(zip(samples, vecs.tolist())):
        alloc = PowerAllocation(pt=tuple(vec[:cols]), pr=tuple(vec[cols:]))
        ref = repair_one_at_a_time(alloc, sample, config)
        if ref is alloc:
            unchanged += 1
            assert i not in repaired
        else:
            assert tuple(repaired[i]) == ref.as_vector()  # bitwise
    assert 0 < unchanged < len(vecs)  # both outcomes are exercised


BUDGET_ROWS = 6
SPREAD_ROWS = 24


def edge_allocations(config, seed=909):
    """Violating rows at the edges of the bisection, in three blocks.

    - ``BUDGET_ROWS`` rows whose smallest power is about 1e-9 x cap (a
      random row with pt_1 cut by 1e9 and mu1 of subcarrier 1 raised by
      1e9, so the outage barely moves) and which turn feasible below
      scale 1.5: the bracket starts at least 1e9 wide and after 80 levels
      is still about 8e-16 wide around a factor below 2, several ulps, so
      the 80-level budget ends the search, not a collapse;
    - one row at a common fraction of the caps whose statistics are scaled
      until the caps only just meet the outage target, so the repair
      climbs all the way to the box;
    - ``SPREAD_ROWS`` rows feasible at the box whose smallest power spans
      1e-6 to 1 x cap, so their brackets collapse in different rounds.
    """
    rng = np.random.default_rng(seed)
    cols = config.cols
    box = np.repeat([config.pt_max, config.pr_max], cols)
    samples, vecs = [], []

    def keep(count, draw, fitting):
        """Append draws that violate the cap until ``count`` rows, keeping
        only those that fit at the allocation ``fitting(vec)``."""
        while len(vecs) < count:
            v, vec = draw()
            if (_outage(v, vec, config) > config.psi_th
                    and _outage(v, fitting(vec), config) <= config.psi_th):
                samples.append(v)
                vecs.append(vec)

    def budget_row():
        v = rng.uniform(0.02, 5.0, (4, cols))
        vec = rng.uniform(0.2, 1.0, 2 * cols) * box * 10.0 ** rng.uniform(-2, 0)
        v[0, 0] *= 1e9
        vec[0] *= 1e-9
        return v, vec

    keep(BUDGET_ROWS, budget_row, lambda vec: np.minimum(1.5 * vec, box))
    v = rng.uniform(0.02, 5.0, (4, cols))

    def with_mu1_scaled(f):
        w = v.copy()
        w[0] *= f
        return w

    def caps_fit(f):
        return _outage(with_mu1_scaled(f), box, config) <= config.psi_th

    lo, hi = 0.0, 1.0
    while not caps_fit(hi):
        lo, hi = hi, 2 * hi
    while lo < 0.5 * (lo + hi) < hi:  # the smallest mu1 factor that fits at the caps
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if caps_fit(mid) else (mid, hi)
    samples.append(with_mu1_scaled(hi))
    vecs.append(rng.uniform(0.05, 0.5) * box)  # every entry meets its cap at one factor

    def spread_row():
        v = rng.uniform(0.02, 5.0, (4, cols))
        v[:2] *= 10.0 ** rng.uniform(0, 2)
        return v, rng.uniform(0.1, 1.0, 2 * cols) * box * 10.0 ** rng.uniform(-6, 0)

    keep(BUDGET_ROWS + 1 + SPREAD_ROWS, spread_row, lambda vec: box)
    return np.array(samples), np.array(vecs)


@pytest.mark.parametrize(
    "config",
    [
        SystemConfig(),
        SystemConfig(n=2, t=1, psi_th=1e-3, pt_max=100.0, pr_max=300.0),
        SystemConfig(n=4, t=2, outage_mode="sap-averaged"),
    ],
)
def test_repair_edges_match_per_record_bisection(config, monkeypatch):
    samples, vecs = edge_allocations(config)
    cols = samples.shape[2]
    box = np.repeat([config.pt_max, config.pr_max], cols)
    live = []

    def counted(s, v, c):
        live.append(np.shape(v)[-2] if np.ndim(v) == 3 else 0)
        return _outage(s, v, c)

    monkeypatch.setattr("relayalloc.training._outage", counted)
    rows, new = _scale_up_repair(vecs, samples, config)
    # at most the box check plus one call per round of four levels; the budget
    # rows never stop, so here every round runs and they alone fill the last
    assert len(live) == 1 + math.ceil(80 / 4)
    assert len(set(live[1:])) >= 3  # the other rows stop in different rounds
    assert live[-1] == BUDGET_ROWS
    repaired = dict(zip(rows.tolist(), new.tolist()))
    assert list(range(BUDGET_ROWS + 1)) == rows.tolist()[: BUDGET_ROWS + 1]
    assert (new[:BUDGET_ROWS, 0] < 2 * vecs[:BUDGET_ROWS, 0]).all()
    assert (new[BUDGET_ROWS] >= box * (1 - 1e-12)).all()  # the box row ends at the box
    monkeypatch.undo()
    for i, (sample, vec) in enumerate(zip(samples, vecs.tolist())):
        alloc = PowerAllocation(pt=tuple(vec[:cols]), pr=tuple(vec[cols:]))
        ref = repair_one_at_a_time(alloc, sample, config)
        assert (i in repaired) == (ref is not alloc)
        if i in repaired:
            assert tuple(repaired[i]) == ref.as_vector()  # bitwise
        if i <= BUDGET_ROWS + 2:  # a single-row call gives the same answer
            _, one = _scale_up_repair(vecs[i : i + 1], samples[i : i + 1], config)
            assert one.tolist() == ([repaired[i]] if i in repaired else [])


def test_repair_of_a_fitting_row_settles_on_scale_one():
    config = SystemConfig()
    samples, vecs = edge_allocations(config)
    samples, vecs = samples[BUDGET_ROWS + 1 :], vecs[BUDGET_ROWS + 1 :]
    _, fixed = _scale_up_repair(vecs, samples, config)
    roomy = np.minimum(2 * fixed, np.repeat([config.pt_max, config.pr_max], samples.shape[2]))
    rows, again = _scale_up_repair(roomy, samples, config)
    assert rows.tolist() == list(range(SPREAD_ROWS))
    # scale 1 fits but starts untested: the search has to reach and test it
    assert again.tolist() == roomy.tolist()


@settings(max_examples=40, deadline=None)
@given(
    sample=st.lists(st.floats(0.02, 5.0), min_size=8, max_size=8),
    vec=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 5000.0)), min_size=4, max_size=4),
)
def test_repair_output_is_feasible_or_unchanged(sample, vec):
    config = SystemConfig()
    v = np.array(sample).reshape(1, 4, 2)
    vec = np.array([vec])
    rows, new = _scale_up_repair(vec, v, config)
    if len(rows):
        assert (new >= vec).all()
        assert _outage(v[0], new[0], config) <= config.psi_th
    else:
        assert new.shape == (0, 4)


def test_csv_write_failure_keeps_the_old_file(tmp_path):
    class Unprintable(float):
        def __repr__(self):
            raise RuntimeError("disk full")

    path = tmp_path / "history.csv"
    good = TrainingHistory(points=[HistoryPoint(epoch=1, loss=0.5, rel_error=0.25,
                                                elapsed_sec=1.0)])
    write_history_csv(good, str(path))
    before = path.read_bytes()
    bad = TrainingHistory(points=[
        HistoryPoint(epoch=1, loss=0.4, rel_error=0.2, elapsed_sec=1.0),
        HistoryPoint(epoch=2, loss=Unprintable(0.3), rel_error=0.1, elapsed_sec=2.0),
    ])
    with pytest.raises(RuntimeError, match="disk full"):
        write_history_csv(bad, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["history.csv"]


@pytest.mark.parametrize("repair", [None, "scale-up"])
def test_comparison_matches_per_record_reference(repair):
    tight = SystemConfig(n=2, t=1, m=2, psi_th=1e-2, pt_max=20.0, pr_max=20.0)
    dataset = build_dataset(tight, 8, 0.5, 5.0, 313, 1e-2, solver_kwargs=SOLVER)
    model = init_mlp([4, 6, 2], seed=3)
    model.biases[-1][:] = 2.0  # outputs near the boundary: about half violate
    report = compare_against_labels(model, dataset, repair=repair)
    norm = normalization_for(dataset)
    for rec, row in zip(dataset.records, report.rows):
        raw = forward(model, encode_input(rec.sample, norm.range_hi))
        alloc = decode_output(raw, norm.pt_max, norm.pr_max)
        stats = stats_from_sample(rec.sample)

        def outage_of(a):
            return all_active_outage(stats, [SubcarrierPower(p, r) for p, r in zip(a.pt, a.pr)],
                                     tight.s)

        repaired = False
        if repair and outage_of(alloc) > tight.psi_th:
            fixed = repair_one_at_a_time(alloc, rec.sample, tight)
            repaired, alloc = fixed is not alloc, fixed
        assert row.repaired == repaired
        assert row.ann_total == alloc.total_power
        assert row.ann_outage == outage_of(alloc)
        assert row.violated == (row.ann_outage > tight.psi_th)
    assert any(r.violated or r.repaired for r in report.rows)
    assert any(not r.violated for r in report.rows)
