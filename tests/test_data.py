import itertools
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relayalloc.data
from relayalloc import (
    Dataset,
    DatasetRecord,
    GenerationSpec,
    BudgetExceededError,
    InfeasibleProblemError,
    InvalidArgumentError,
    InvariantViolationError,
    PowerAllocation,
    SchemaError,
    SubcarrierStats,
    SystemConfig,
    TrainingConfig,
    build_dataset,
    draw_feasible_samples,
    feasibility_check,
    generate_grid_samples,
    label_dataset,
    load_dataset,
    save_dataset,
    solve,
    split,
    stats_from_sample,
    sweep,
)
from relayalloc.gridsearch import _batch_size, _search_options
from relayalloc.training import SweepSpec

# one active subcarrier keeps the searches tiny
CFG = SystemConfig(n=2, t=1, m=2, psi_th=1e-2, pt_max=5000.0, pr_max=5000.0)
SOLVER = {"grid0": 8, "max_levels": 2}


def tiny_dataset(count=4, seed=101):
    return build_dataset(CFG, count, 0.5, 5.0, seed, 1e-2, solver_kwargs=SOLVER)


def uniform_samples(count, t, seed):
    return np.random.default_rng(seed).uniform(0.5, 5.0, size=(count, 4, t))


def records_equal(a: DatasetRecord, b: DatasetRecord) -> bool:
    return (
        (a.sample == b.sample).all()
        and a.label == b.label
        and a.total_power == b.total_power
        and a.achieved_outage == b.achieved_outage
        and a.evaluations == b.evaluations
    )


def test_grid_samples_form_a_lattice():
    lattice = generate_grid_samples(2, 0.5, 5.0, 1)
    assert lattice.shape == (16, 4, 1)
    assert set(np.unique(lattice)) == {0.5, 5.0}
    # all combinations appear exactly once
    rows = {tuple(v.reshape(-1)) for v in lattice}
    assert len(rows) == 16
    assert (lattice[0] == 0.5).all()


@pytest.mark.parametrize("levels, cols", [(3, 1), (2, 2), (3, 2)])
def test_grid_samples_follow_the_product_order(levels, cols):
    axis = np.linspace(0.5, 5.0, levels)
    ref = np.array(list(itertools.product(axis, repeat=4 * cols))).reshape(-1, 4, cols)
    lattice = generate_grid_samples(levels, 0.5, 5.0, cols)
    assert lattice.shape == ref.shape == (levels ** (4 * cols), 4, cols)
    assert lattice.tobytes() == ref.tobytes()


def test_draws_give_up_when_almost_no_draw_meets_the_cap():
    # the corner meets the cap (outage 0.301 <= 0.31), so the draws start,
    # but none of a million draws does
    config = SystemConfig(psi_th=0.31, pt_max=1.0, pr_max=1.0)
    with pytest.raises(InfeasibleProblemError,
                       match=r"only 0 of \d+ draws in \[0.5, 5.0\] meet the cap psi_th=3.100e-01 "
                             r"\(acceptance 0.00e\+00\); gave up after \d+ rejections, "
                             r"10000 per requested sample"):
        draw_feasible_samples(2, 0.5, 5.0, config, seed=1)


def test_feasible_draws_reject_and_are_deterministic():
    tight = SystemConfig(n=2, t=1, m=2, psi_th=1e-2, pt_max=20.0, pr_max=20.0)
    samples, rejected = draw_feasible_samples(5, 0.5, 5.0, tight, seed=17)
    again, rejected2 = draw_feasible_samples(5, 0.5, 5.0, tight, seed=17)
    assert (samples == again).all() and rejected == rejected2
    assert rejected > 0  # the range includes plenty of infeasible corners
    for v in samples:
        assert feasibility_check(stats_from_sample(v), tight).feasible


def test_labeling_is_in_order_and_matches_direct_solves():
    samples = uniform_samples(3, 1, seed=23)
    dataset = label_dataset(samples, CFG, 1e-2, solver_kwargs=SOLVER)
    assert len(dataset) == 3
    for v, rec in zip(samples, dataset.records):
        assert (rec.sample == v).all()
        direct = solve(stats_from_sample(v), CFG, 1e-2, **SOLVER)
        assert rec.label == direct.allocation
        assert rec.total_power == direct.total_power
        assert rec.achieved_outage == direct.achieved_outage
        assert rec.evaluations == direct.evaluations


def test_labeling_refuses_infeasible_samples():
    tight = SystemConfig(n=2, t=1, m=2, psi_th=1e-2, pt_max=20.0, pr_max=20.0)
    bad = np.array([[0.5], [0.5], [5.0], [5.0]])  # weak channels, loud noise
    assert not feasibility_check(stats_from_sample(bad), tight).feasible
    with pytest.raises(InfeasibleProblemError):
        label_dataset(bad[None, :, :], tight, 1e-2, solver_kwargs=SOLVER)


def test_build_dataset_is_deterministic():
    a = tiny_dataset(seed=31)
    b = tiny_dataset(seed=31)
    assert a.gen == b.gen
    assert all(records_equal(x, y) for x, y in zip(a.records, b.records))
    c = tiny_dataset(seed=32)
    assert any(not records_equal(x, y) for x, y in zip(a.records, c.records))


def test_parallel_labeling_matches_sequential():
    # two full chunks and a short one; progress is reported once per chunk
    options = _search_options(CFG, 1e-2, SOLVER)
    size = _batch_size(CFG.t, options["grid0"], options["refine_points"])
    samples = uniform_samples(2 * size + 3, 1, seed=37)
    calls = {1: [], 2: []}
    seq, par = (
        label_dataset(samples, CFG, 1e-2, workers=workers, solver_kwargs=SOLVER,
                      progress=lambda done, total, w=workers: calls[w].append((done, total)))
        for workers in (1, 2)
    )
    assert len(seq) == len(par) == len(samples)
    assert all(records_equal(x, y) for x, y in zip(seq.records, par.records))
    expected = [(size, len(samples)), (2 * size, len(samples)), (len(samples), len(samples))]
    assert calls[1] == calls[2] == expected


def test_labeling_reports_stop_reasons():
    samples = uniform_samples(5, 1, seed=38)
    capped = label_dataset(samples, CFG, 1e-2, solver_kwargs=SOLVER).labeling
    assert capped["stop_reasons"] == {"resolution": 0, "max_levels": 5, "level_cap": 0}
    assert capped["seconds"] > 0
    full = label_dataset(samples, CFG, 1e-2).labeling
    assert full["stop_reasons"] == {"resolution": 5, "max_levels": 0, "level_cap": 0}


def test_split_is_disjoint_and_seeded():
    dataset = tiny_dataset(count=10, seed=41)
    train, val = split(dataset, 3, seed=5)
    train2, val2 = split(dataset, 3, seed=5)
    assert len(train) == 7 and len(val) == 3
    assert all(records_equal(x, y) for x, y in zip(train.records, train2.records))
    assert all(records_equal(x, y) for x, y in zip(val.records, val2.records))
    key = lambda rec: rec.sample.tobytes()
    train_keys = {key(r) for r in train.records}
    val_keys = {key(r) for r in val.records}
    assert not (train_keys & val_keys)
    assert train_keys | val_keys == {key(r) for r in dataset.records}
    assert train.gen.split_role == "train" and val.gen.split_role == "validation"
    assert train.gen.split_seed == val.gen.split_seed == 5
    with pytest.raises(InvalidArgumentError):
        split(dataset, 0, seed=1)
    with pytest.raises(InvalidArgumentError):
        split(dataset, 10, seed=1)


def test_save_load_round_trip_is_bit_exact(tmp_path):
    dataset = tiny_dataset(count=5, seed=43)
    path = tmp_path / "data.jsonl"
    save_dataset(dataset, str(path))
    loaded = load_dataset(str(path))
    assert loaded.config == dataset.config
    assert loaded.gen == dataset.gen
    assert all(records_equal(x, y) for x, y in zip(loaded.records, dataset.records))
    path2 = tmp_path / "again.jsonl"
    save_dataset(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_hand_written_file_loads(tmp_path):
    # a file assembled line by line, independent of save_dataset
    v = np.array([[1.0], [1.0], [1.0], [1.0]])
    oracle = solve(stats_from_sample(v), CFG, 1e-2, **SOLVER)
    header = {
        "format": "relay-dataset-v1",
        "config": {"n": 2, "t": 1, "m": 2, "s": 1.0, "psi_th": 0.01,
                   "pt_max": 5000.0, "pr_max": 5000.0, "outage_mode": "single-sap"},
        "generation": {"sampler": "uniform", "range_lo": 0.5, "range_hi": 5.0,
                       "count": 1, "seed": 0, "delta": 0.01, "rejected": 0},
    }
    record = {
        "v": [[1.0], [1.0], [1.0], [1.0]],
        "pt": list(oracle.allocation.pt),
        "pr": list(oracle.allocation.pr),
        "total_power": oracle.total_power,
        "achieved_outage": oracle.achieved_outage,
        "evaluations": oracle.evaluations,
    }
    path = tmp_path / "hand.jsonl"
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    loaded = load_dataset(str(path))
    assert len(loaded) == 1
    assert loaded.records[0].label == oracle.allocation
    assert loaded.records[0].total_power == oracle.total_power


def corrupt_and_expect(tmp_path, mutate, exc):
    dataset = tiny_dataset(count=3, seed=47)
    path = tmp_path / "data.jsonl"
    save_dataset(dataset, str(path))
    lines = path.read_text().splitlines()
    mutated = mutate(lines)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(mutated) + "\n")
    with pytest.raises(exc):
        load_dataset(str(bad))


def test_load_rejects_header_garbage(tmp_path):
    corrupt_and_expect(tmp_path, lambda ls: ["{ nope"] + ls[1:], SchemaError)
    corrupt_and_expect(tmp_path, lambda ls: ["[1, 2]"] + ls[1:], SchemaError)  # not an object


def test_load_rejects_unknown_format(tmp_path):
    def mutate(ls):
        doc = json.loads(ls[0])
        doc["format"] = "other-format"
        return [json.dumps(doc)] + ls[1:]

    corrupt_and_expect(tmp_path, mutate, SchemaError)


def test_load_rejects_missing_records(tmp_path):
    corrupt_and_expect(tmp_path, lambda ls: ls[:-1], InvariantViolationError)
    corrupt_and_expect(  # a header that promises no records, and none
        tmp_path, lambda ls: [replace_field(ls[0], "generation.count", 0)], InvariantViolationError
    )


def test_load_rejects_non_json_record(tmp_path):
    corrupt_and_expect(tmp_path, lambda ls: ls[:1] + ["broken"] + ls[2:], SchemaError)
    corrupt_and_expect(tmp_path, lambda ls: ls[:1] + ["7"] + ls[2:], SchemaError)  # not an object


def test_load_rejects_tampered_outage(tmp_path):
    def mutate(ls):
        doc = json.loads(ls[1])
        doc["achieved_outage"] = doc["achieved_outage"] * 0.5
        return ls[:1] + [json.dumps(doc)] + ls[2:]

    corrupt_and_expect(tmp_path, mutate, InvariantViolationError)


def test_load_rejects_infeasible_label(tmp_path):
    def mutate(ls):
        doc = json.loads(ls[1])
        doc["pt"] = [0.0]  # no transmit power: certain outage
        doc["achieved_outage"] = 1.0
        doc["total_power"] = doc["pr"][0]
        return ls[:1] + [json.dumps(doc)] + ls[2:]

    corrupt_and_expect(tmp_path, mutate, InvariantViolationError)


def test_load_rejects_label_beyond_caps(tmp_path):
    def mutate(ls):
        doc = json.loads(ls[1])
        doc["pt"] = [9999.0]
        return ls[:1] + [json.dumps(doc)] + ls[2:]

    corrupt_and_expect(tmp_path, mutate, InvariantViolationError)


def test_load_rejects_total_power_mismatch(tmp_path):
    def mutate(ls):
        doc = json.loads(ls[1])
        doc["total_power"] = doc["total_power"] + 1.0
        return ls[:1] + [json.dumps(doc)] + ls[2:]

    corrupt_and_expect(tmp_path, mutate, InvariantViolationError)


def test_load_rejects_out_of_range_sample(tmp_path):
    def mutate(ls):
        doc = json.loads(ls[1])
        doc["v"][0][0] = 99.0
        return ls[:1] + [json.dumps(doc)] + ls[2:]

    corrupt_and_expect(tmp_path, mutate, InvariantViolationError)


def test_stats_from_sample_reads_columns():
    v = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    stats = stats_from_sample(v)
    assert stats[0] == SubcarrierStats(mu1=1.0, mu2=3.0, eta1=5.0, eta2=7.0)
    assert stats[1] == SubcarrierStats(mu1=2.0, mu2=4.0, eta1=6.0, eta2=8.0)
    with pytest.raises(InvalidArgumentError):
        stats_from_sample(v.T)


def test_grid_sampler_through_build_dataset():
    dataset = build_dataset(
        CFG, 0, 0.5, 5.0, 0, 1e-2, sampler="grid", grid_levels=2, solver_kwargs=SOLVER
    )
    assert dataset.gen.sampler == "grid"
    assert dataset.gen.grid_levels == 2
    assert dataset.gen.seed is None
    assert len(dataset) + dataset.gen.rejected == 16
    with pytest.raises(InvalidArgumentError):
        build_dataset(CFG, 0, 0.5, 5.0, 0, 1e-2, sampler="grid")
    with pytest.raises(InvalidArgumentError):
        build_dataset(CFG, 1, 0.5, 5.0, 0, 1e-2, sampler="other")


def draw_one_at_a_time(count, range_lo, range_hi, config, seed):
    """Reference: one (4, t) draw and one scalar feasibility check at a time."""
    rng = np.random.default_rng(seed)
    kept, rejected = [], 0
    while len(kept) < count:
        v = rng.uniform(range_lo, range_hi, size=(4, config.cols))
        if feasibility_check(stats_from_sample(v), config).feasible:
            kept.append(v)
        else:
            rejected += 1
    return np.stack(kept), rejected


@pytest.mark.parametrize(
    "config, count, range_lo, range_hi",
    [
        (SystemConfig(), 100, 0.5, 5.0),  # nothing rejected
        (SystemConfig(psi_th=1e-3), 60, 0.05, 1.0),  # a few rejected
        (SystemConfig(n=2, t=1, psi_th=1e-2, pt_max=20.0, pr_max=20.0), 20, 0.5, 5.0),  # most
        (SystemConfig(n=3, t=3, psi_th=1e-3), 25, 0.1, 3.0),
        (SystemConfig(n=3, t=1, outage_mode="sap-averaged", psi_th=1e-3), 25, 0.1, 3.0),
    ],
)
def test_chunked_draws_match_one_at_a_time(config, count, range_lo, range_hi):
    for seed in (1, 2, 3):
        samples, rejected = draw_feasible_samples(count, range_lo, range_hi, config, seed)
        ref, ref_rejected = draw_one_at_a_time(count, range_lo, range_hi, config, seed)
        assert samples.tobytes() == ref.tobytes()
        assert samples.shape == ref.shape
        assert rejected == ref_rejected


def test_draws_refuse_a_range_no_statistic_of_which_meets_the_cap():
    # Phi falls with mu and rises with eta: the corner mu = hi, eta = lo is
    # the most favourable, so when it misses the cap no draw can meet it
    config = SystemConfig(n=4, t=2, outage_mode="sap-averaged", pt_max=1.0, pr_max=1.0)
    corner = np.repeat([[5.0], [5.0], [0.5], [0.5]], 4, axis=1)
    best = feasibility_check(stats_from_sample(corner), config).outage
    draws = np.random.default_rng(3).uniform(0.5, 5.0, (500, 4, 4))
    assert min(feasibility_check(stats_from_sample(v), config).outage for v in draws) >= best
    assert best > config.psi_th
    with pytest.raises(InfeasibleProblemError, match=r"no statistics in \[0.5, 5.0\] meet"):
        draw_feasible_samples(2, 0.5, 5.0, config, seed=1)
    # a cap the corner meets lets the draws through
    assert len(draw_feasible_samples(2, 0.5, 5.0, replace(config, psi_th=0.9), seed=1)[0]) == 2


@pytest.mark.parametrize("sampler", ["uniform", "grid"])
@pytest.mark.parametrize("config, solver_kwargs", [
    (SystemConfig(n=3, t=1, outage_mode="sap-averaged"), {}),  # 12^6 cells at level 0
    (SystemConfig(), {"max_evaluations": 12**4 - 1}),
])
def test_build_dataset_refuses_the_budget_before_sampling(monkeypatch, sampler, config,
                                                          solver_kwargs):
    def never(*args, **kwargs):
        raise AssertionError("sampled before the budget check")

    monkeypatch.setattr("relayalloc.data.draw_feasible_samples", never)
    monkeypatch.setattr("relayalloc.data.generate_grid_samples", never)
    with pytest.raises(BudgetExceededError) as refused:
        build_dataset(config, 5, 0.5, 5.0, 1, 1e-2, sampler=sampler, grid_levels=3,
                      solver_kwargs=solver_kwargs)
    # the text the search itself gives on the first sample
    stats = [SubcarrierStats(5.0, 5.0, 0.5, 0.5)] * config.cols
    with pytest.raises(BudgetExceededError) as searched:
        solve(stats, config, **solver_kwargs)
    assert str(refused.value) == str(searched.value)
    assert str(refused.value).startswith("level 0 needs ")


@pytest.mark.parametrize("sampler", ["uniform", "grid"])
def test_build_dataset_refuses_unknown_search_options_before_sampling(monkeypatch, sampler):
    def never(*args, **kwargs):
        raise AssertionError("sampled before the search options were checked")

    monkeypatch.setattr("relayalloc.data.draw_feasible_samples", never)
    monkeypatch.setattr("relayalloc.data.generate_grid_samples", never)
    with pytest.raises(InvalidArgumentError, match=r"unknown search option\(s\): grid_0, x;"):
        build_dataset(SystemConfig(), 3, 0.5, 5.0, 1, 1e-2, sampler=sampler, grid_levels=3,
                      solver_kwargs={"grid_0": 5, "x": 1, "grid0": 5})
    with pytest.raises(InvalidArgumentError, match="grid_0"):
        label_dataset(np.full((1, 4, 1), 1.0), CFG, 1e-2, solver_kwargs={"grid_0": 5})


@pytest.mark.parametrize("sampler", ["uniform", "grid"])
@pytest.mark.parametrize("delta, solver_kwargs, message", [
    (2.0, {}, r"delta must be in \(0, 1\), got 2.0"),
    (1e-2, {"refine_points": 8}, "refine_points must be odd"),
    (1e-2, {"shrink": 1.0}, r"shrink must be in \(0, 1\), got 1.0"),
    (1e-2, {"grid0": 1}, "grid0 must be >= 2, got 1"),
])
def test_build_dataset_refuses_bad_search_options_before_sampling(monkeypatch, sampler, delta,
                                                                  solver_kwargs, message):
    def never(*args, **kwargs):
        raise AssertionError("sampled before the search options were checked")

    monkeypatch.setattr("relayalloc.data.draw_feasible_samples", never)
    monkeypatch.setattr("relayalloc.data.generate_grid_samples", never)
    with pytest.raises(InvalidArgumentError, match=message):
        build_dataset(SystemConfig(), 3, 0.5, 5.0, 1, delta, sampler=sampler, grid_levels=3,
                      solver_kwargs=solver_kwargs)


def test_grid_levels_must_be_an_integer_of_at_least_2():
    with pytest.raises(InvalidArgumentError, match="levels must be an integer, got 2.5"):
        generate_grid_samples(2.5, 0.5, 5.0, 1)
    with pytest.raises(InvalidArgumentError, match="levels must be >= 2, got 1"):
        generate_grid_samples(1, 0.5, 5.0, 1)


def test_labeling_refuses_zero_samples():
    with pytest.raises(InvalidArgumentError, match=r"got \(0, 4, 2\)"):
        label_dataset(np.empty((0, 4, 2)), SystemConfig(), 1e-2)


@pytest.mark.parametrize("workers", [0, -2])
def test_every_labeling_entry_refuses_fewer_than_one_worker_before_sampling(monkeypatch,
                                                                             workers):
    def never(*args, **kwargs):
        raise AssertionError("sampled before the worker count was checked")

    monkeypatch.setattr("relayalloc.data.draw_feasible_samples", never)
    monkeypatch.setattr("relayalloc.data._solve_many", never)
    message = f"workers must be >= 1, got {workers}"
    with pytest.raises(InvalidArgumentError, match=message):
        build_dataset(CFG, 2, 0.5, 5.0, 1, 1e-2, workers=workers)
    with pytest.raises(InvalidArgumentError, match=message):
        label_dataset(np.full((1, 4, 1), 1.0), CFG, 1e-2, workers=workers)
    with pytest.raises(InvalidArgumentError, match=message):
        sweep(SweepSpec("neurons", (2,), repeats=1, train_count=2, validation_count=1), CFG,
              TrainingConfig(epochs=1), workers=workers)


def test_build_dataset_takes_a_budget_it_fits_exactly():
    dataset = build_dataset(CFG, 2, 0.5, 5.0, 1, 1e-2,
                            solver_kwargs={"grid0": 8, "max_levels": 0, "max_evaluations": 8**2})
    assert [rec.evaluations for rec in dataset.records] == [64, 64]


def replace_field(line: str, field: str, value) -> str:
    """One JSON line with ``field`` set: ``section.name`` inside a header
    section, ``v.2.0`` or ``pt.0`` for a nested entry."""
    doc = json.loads(line)
    *parents, name = [int(key) if key.isdigit() else key for key in field.split(".")]
    target = doc
    for key in parents:
        target = target[key]
    target[name] = value
    return json.dumps(doc)


def corrupt_records(tmp_path, edits):
    """Apply field edits {line number: (field, value)} to a saved dataset."""
    dataset = tiny_dataset(count=4, seed=47)
    path = tmp_path / "data.jsonl"
    save_dataset(dataset, str(path))
    lines = path.read_text().splitlines()
    for lineno, (field, value) in edits.items():
        lines[lineno - 1] = replace_field(lines[lineno - 1], field, value)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    return str(bad)


@pytest.mark.parametrize(
    "edits, exc, first",
    [
        # outage re-check on line 2 precedes a range escape on line 3
        ({2: ("achieved_outage", 0.5), 3: ("v", [[99.0], [1.0], [1.0], [1.0]])},
         InvariantViolationError, 2),
        # range escape on line 2 precedes an outage re-check on line 3
        ({2: ("v", [[99.0], [1.0], [1.0], [1.0]]), 3: ("achieved_outage", 0.5)},
         InvariantViolationError, 2),
        # a bad total on line 3 precedes a malformed record on line 5
        ({3: ("total_power", 1.0), 5: ("pt", [-1.0])}, InvariantViolationError, 3),
        # a malformed record on line 3 precedes a bad total on line 4
        ({3: ("pt", [-1.0]), 4: ("total_power", 1.0)}, SchemaError, 3),
        # an infeasible label on line 4 precedes a bad total on line 5
        ({4: ("pt", [0.0]), 5: ("total_power", 1.0)}, InvariantViolationError, 4),
        # non-numeric fields are malformed records
        ({3: ("evaluations", "x")}, SchemaError, 3),
        ({2: ("total_power", "abc")}, SchemaError, 2),
        ({4: ("v", [["x"], [1.0], [1.0], [1.0]])}, SchemaError, 4),
        # a bad total on line 2 precedes a non-numeric field on line 3
        ({2: ("total_power", 1.0), 3: ("evaluations", "x")}, InvariantViolationError, 2),
        # wrong JSON types are refused, not coerced
        ({3: ("evaluations", 1.5)}, SchemaError, 3),
        ({3: ("evaluations", True)}, SchemaError, 3),
        ({2: ("achieved_outage", "0.001")}, SchemaError, 2),
        # header faults (line 1) precede every record fault
        ({1: ("config.t", 1.5), 2: ("total_power", 1.0)}, SchemaError, 1),
        ({1: ("config.psi_th", 7.0)}, SchemaError, 1),
        ({1: ("config.n", True)}, SchemaError, 1),
        ({1: ("generation.count", "4")}, SchemaError, 1),
        ({1: ("generation.rejected", 0.5)}, SchemaError, 1),
        ({1: ("generation.range_hi", "5.0")}, SchemaError, 1),
        ({1: ("generation.range_hi", float("nan"))}, SchemaError, 1),  # not finite
        ({1: ("generation.seed", 4.5)}, SchemaError, 1),
        ({1: ("generation.sampler", 3)}, SchemaError, 1),
        # wrong JSON types in nested entries are refused, not coerced
        ({3: ("v.1.0", "1.0")}, SchemaError, 3),
        ({2: ("v.0.0", True)}, SchemaError, 2),
        ({4: ("pt.0", "0.5")}, SchemaError, 4),
        ({5: ("pr.0", False)}, SchemaError, 5),
        ({3: ("v.1.0", 10**400)}, SchemaError, 3),  # too large for a float
        # a bad total on line 2 precedes a string entry on line 3
        ({2: ("total_power", 1.0), 3: ("v.0.0", "1.0")}, InvariantViolationError, 2),
        # NaN is within no tolerance of the recomputed value
        ({3: ("total_power", float("nan"))}, InvariantViolationError, 3),
        ({4: ("achieved_outage", float("nan"))}, InvariantViolationError, 4),
    ],
)
def test_load_reports_the_first_corrupt_record(tmp_path, edits, exc, first):
    path = corrupt_records(tmp_path, edits)
    where = f"{first}: " if first > 1 else " malformed header: "
    with pytest.raises(exc, match=f"^{re.escape(path)}:{where}"):
        load_dataset(path)


# Each field of a saved file and its JSON type; "?" marks a field that may be null.
FIELD_TYPES = {
    1: {"format": "str", "config": "object", "generation": "object",
        "config.n": "int", "config.t": "int", "config.m": "int", "config.s": "num",
        "config.psi_th": "num", "config.pt_max": "num", "config.pr_max": "num",
        "config.outage_mode": "str", "generation.sampler": "str",
        "generation.range_lo": "num", "generation.range_hi": "num",
        "generation.count": "int", "generation.seed": "int?", "generation.delta": "num",
        "generation.rejected": "int", "generation.split_role": "str?",
        "generation.split_seed": "int?"},
    2: {"v": "list", "pt": "list", "pr": "list", "total_power": "num",
        "achieved_outage": "num", "evaluations": "int",
        "v.0": "list", "v.3.0": "num", "pt.0": "num", "pr.0": "num"},
}
WRONG_VALUES = {  # JSON type -> values of another type
    "str": st.one_of(st.integers(), st.floats(), st.lists(st.text(max_size=3), max_size=2)),
    "num": st.one_of(st.text(max_size=5), st.lists(st.floats(), max_size=2)),
    "int": st.one_of(
        st.text(max_size=5), st.lists(st.integers(), max_size=2),
        st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: x != int(x)),
    ),
    "list": st.one_of(st.text(max_size=5), st.integers(), st.floats()),
    "object": st.one_of(st.text(max_size=5), st.integers(), st.lists(st.integers(), max_size=2)),
}


@st.composite
def wrong_typed_field(draw):
    line = draw(st.sampled_from(sorted(FIELD_TYPES)))
    field = draw(st.sampled_from(sorted(FIELD_TYPES[line])))
    kind = FIELD_TYPES[line][field]
    wrong = WRONG_VALUES[kind.rstrip("?")] | st.booleans()
    if not kind.endswith("?"):
        wrong = wrong | st.none()
    return line, field, draw(wrong)


@pytest.fixture(scope="module")
def saved_split_lines(tmp_path_factory):
    train_part, _ = split(tiny_dataset(count=5, seed=51), 2, seed=52)
    path = tmp_path_factory.mktemp("saved") / "train.jsonl"
    save_dataset(train_part, str(path))
    return path.read_text().splitlines()


@settings(max_examples=300, deadline=None)
@given(edit=wrong_typed_field(), record=st.integers(0, 2))
def test_load_refuses_any_wrong_typed_field(saved_split_lines, tmp_path_factory, edit, record):
    line, field, value = edit
    lines = list(saved_split_lines)
    index = 0 if line == 1 else 1 + record
    lines[index] = replace_field(lines[index], field, value)
    path = tmp_path_factory.getbasetemp() / "wrong_typed.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises((SchemaError, InvariantViolationError)):
        load_dataset(str(path))


def test_column_views_match_the_records():
    dataset = tiny_dataset(count=3, seed=53)
    records = dataset.records
    assert np.array_equal(dataset.samples, np.stack([r.sample for r in records]))
    assert np.array_equal(dataset.labels, [[*r.label.pt, *r.label.pr] for r in records])
    assert dataset.totals.tolist() == [r.total_power for r in records]
    for column in (dataset.samples, dataset.labels, dataset.totals):
        with pytest.raises(ValueError):
            column[0] = 0.0
    assert dataset.samples is dataset.samples  # built once


def test_load_rejects_non_finite_statistics_before_later_faults(tmp_path):
    path = corrupt_records(
        tmp_path, {3: ("v", [[float("nan")], [1.0], [1.0], [1.0]]), 4: ("total_power", 1.0)}
    )
    with pytest.raises(InvariantViolationError, match=":3: channel statistics must be finite"):
        load_dataset(path)
    path = corrupt_records(
        tmp_path, {2: ("total_power", 1.0), 3: ("v", [[float("nan")], [1.0], [1.0], [1.0]])}
    )
    with pytest.raises(InvariantViolationError, match=":2: stored total_power"):
        load_dataset(path)
    # a zero statistic stays inside a header range that starts at 0
    lines = open(corrupt_records(tmp_path, {})).read().splitlines()
    header, record = json.loads(lines[0]), json.loads(lines[1])
    header["generation"]["range_lo"] = 0.0
    record["v"][1][0] = 0.0
    zero = tmp_path / "zero.jsonl"
    zero.write_text("\n".join([json.dumps(header), json.dumps(record), *lines[2:]]) + "\n")
    with pytest.raises(InvariantViolationError, match=":2: channel statistics must be finite"):
        load_dataset(str(zero))


@pytest.mark.parametrize("edits", [{}, {5: ("pt", [-1.0])}, {5: ("v", [[1.0, 1.0]] * 4)}],
                         ids=["clean", "malformed-last", "wrong-shape-last"])
def test_load_makes_one_outage_call(tmp_path, monkeypatch, edits):
    calls, outage = [], relayalloc.data._outage

    def counted(samples, *args):
        calls.append(len(samples))
        return outage(samples, *args)

    path = corrupt_records(tmp_path, edits)
    monkeypatch.setattr("relayalloc.data._outage", counted)
    if edits:
        with pytest.raises((SchemaError, InvariantViolationError), match=":5: "):
            load_dataset(path)
    else:
        load_dataset(path)
    assert calls == [3 if edits else 4]  # the records before the structural fault


def test_load_reports_a_records_shape_before_its_range(tmp_path):
    # one record, two faults: a label of the wrong length and a sample
    # outside the header's range; types and shapes are checked first
    lines = open(corrupt_records(tmp_path, {})).read().splitlines()
    record = json.loads(lines[2])
    record["v"][0][0], record["pt"], record["pr"] = 99.0, [1.0, 1.0], [1.0, 1.0]
    bad = tmp_path / "two_faults.jsonl"
    bad.write_text("\n".join([*lines[:2], json.dumps(record), *lines[3:]]) + "\n")
    with pytest.raises(InvariantViolationError, match=":3: label length 2 != 1"):
        load_dataset(str(bad))



@pytest.mark.parametrize(
    "edits, exc, message",
    [
        # a record that does not parse: the per-line reader names it
        ({6: ("v.0.0", "x")}, SchemaError, ":6: malformed record"),
        # an invariant fault of a clean file: the record check names it
        ({6: ("total_power", 1.0)}, InvariantViolationError, ":6: stored total_power"),
        # an invariant fault before a record that does not parse
        ({5: ("total_power", 1.0), 7: ("v.0.0", "x")}, InvariantViolationError,
         ":5: stored total_power"),
    ],
    ids=["parse-fault", "invariant-fault", "invariant-before-parse-fault"],
)
def test_load_names_the_file_line_after_blank_lines(tmp_path, edits, exc, message):
    # header, a record, an empty and a blank line, then records on lines 5-7
    lines = open(corrupt_records(tmp_path, {})).read().splitlines()
    lines[2:2] = ["", "   "]
    for lineno, (field, value) in edits.items():
        lines[lineno - 1] = replace_field(lines[lineno - 1], field, value)
    bad = tmp_path / "blank.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(exc, match=f"^{re.escape(str(bad))}{message}"):
        load_dataset(str(bad))


def test_a_clean_file_makes_one_column_read(tmp_path, monkeypatch):
    lines = open(corrupt_records(tmp_path, {})).read().splitlines()
    path = tmp_path / "clean.jsonl"
    path.write_text("\n".join([*lines[:3], "", *lines[3:]]) + "\n")
    calls, read_columns = [], relayalloc.data._read_columns

    def counted(docs, *args):
        calls.append(len(docs))
        return read_columns(docs, *args)

    monkeypatch.setattr("relayalloc.data._read_columns", counted)
    dataset = load_dataset(str(path))
    assert calls == [4]
    # the columns read are those the records would build
    built = Dataset(dataset.config, dataset.gen, dataset.records)
    for name in ("samples", "labels", "totals"):
        ours, reference = getattr(dataset, name), getattr(built, name)
        assert (ours.dtype, ours.shape) == (reference.dtype, reference.shape)
        assert ours.tobytes() == reference.tobytes()
        assert not ours.flags.writeable
    assert not any(rec.sample.flags.writeable for rec in dataset.records)


def test_a_record_broken_over_two_lines_is_refused(tmp_path):
    # neither line is JSON alone, but joined by a comma into one array the
    # two would read as two records; each line is parsed on its own
    lines = open(corrupt_records(tmp_path, {})).read().splitlines()
    lines[1] = lines[1][:-1] + ', "x": [{}'
    lines[2] = "{}]}, " + lines[2]
    bad = tmp_path / "broken.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    joined = json.loads("[" + ",".join(lines[1:]) + "]")
    assert len(joined) == len(lines) - 1 and all(type(doc) is dict for doc in joined)
    with pytest.raises(SchemaError, match=f"^{re.escape(str(bad))}:2: not valid JSON"):
        load_dataset(str(bad))


def load_outcome(lines, path, lineno):
    """What load_dataset gives for a file of ``lines`` whose record on line
    ``lineno`` may be corrupt: the exception's type and its message past
    ``path:lineno: ``, or that record and its rows of the column views."""
    path.write_text("\n".join(lines) + "\n")
    try:
        dataset = load_dataset(str(path))
    except (SchemaError, InvariantViolationError) as exc:
        prefix = f"{path}:{lineno}: "
        assert str(exc).startswith(prefix)
        return type(exc), str(exc)[len(prefix):]
    r, i = dataset.records[lineno - 2], lineno - 2
    return (r.sample.tobytes(), r.label, r.total_power, r.achieved_outage, r.evaluations,
            dataset.samples[i].tobytes(), dataset.labels[i].tobytes(), dataset.totals[i])


@settings(max_examples=200, deadline=None)
@given(
    field=st.sampled_from(["v", "v.1", "v.2.0", "pt", "pt.0", "pr.0", "total_power",
                           "achieved_outage", "evaluations"]),
    value=st.one_of(st.integers(-(2**70), 2**70), st.floats(), st.booleans(), st.none(),
                    st.text(max_size=3), st.lists(st.floats(0.5, 5.0), max_size=3)),
    record=st.integers(0, 2),
)
def test_a_corrupt_record_reads_the_same_among_clean_records_and_alone(
        saved_split_lines, tmp_path_factory, field, value, record):
    corrupt = replace_field(saved_split_lines[1 + record], field, value)
    among = list(saved_split_lines)
    among[1 + record] = corrupt
    alone = [replace_field(saved_split_lines[0], "generation.count", 1), corrupt]
    base = tmp_path_factory.getbasetemp()
    assert (load_outcome(among, base / "among.jsonl", 2 + record)
            == load_outcome(alone, base / "alone.jsonl", 2))


def test_integer_numbers_load_as_the_same_floats(tmp_path):
    v = np.array([[1.0], [2.0], [1.0], [1.0]])
    oracle = solve(stats_from_sample(v), CFG, 1e-2, **SOLVER)
    record = DatasetRecord(v, oracle.allocation, oracle.total_power, oracle.achieved_outage,
                           oracle.evaluations)
    path = tmp_path / "floats.jsonl"
    save_dataset(Dataset(CFG, GenerationSpec("uniform", 0.5, 5.0, 1, 0, 1e-2), (record,)),
                 str(path))
    header, line = path.read_text().splitlines()
    integers = tmp_path / "integers.jsonl"
    integers.write_text(header + "\n" + replace_field(line, "v", [[1], [2], [1], [1]]) + "\n")
    by_floats, by_integers = load_dataset(str(path)), load_dataset(str(integers))
    assert records_equal(by_integers.records[0], by_floats.records[0])
    assert by_integers.records[0].sample.tobytes() == v.tobytes()
    for name in ("samples", "labels", "totals"):
        ours, reference = getattr(by_integers, name), getattr(by_floats, name)
        assert (ours.dtype, ours.tobytes()) == (reference.dtype, reference.tobytes())


@pytest.mark.parametrize(
    "edits, exc, message",
    [
        # no int64 holds these counts
        ({3: ("evaluations", 10**30)}, SchemaError, ":3: malformed record"),
        ({3: ("evaluations", -(2**64))}, SchemaError, ":3: malformed record"),
        # a search makes at least one evaluation; faults are raised in record order
        ({3: ("evaluations", 0)}, InvariantViolationError, ":3: evaluations must be >= 1, got 0"),
        ({4: ("evaluations", -5)}, InvariantViolationError, ":4: evaluations must be >= 1, got -5"),
        ({2: ("total_power", 1.0), 3: ("evaluations", 0)}, InvariantViolationError,
         ":2: stored total_power"),
        ({3: ("evaluations", 0), 4: ("total_power", 1.0)}, InvariantViolationError,
         ":3: evaluations must be >= 1"),
        # shape faults, alone in a file or among clean records
        ({3: ("v", [[1.0, 1.0]] * 4)}, InvariantViolationError,
         ":3: sample shape (4, 2) != (4, 1)"),
        ({5: ("v", [[1.0]] * 3)}, InvariantViolationError, ":5: sample shape (3, 1) != (4, 1)"),
        ({4: ("pt", [1.0, 1.0])}, SchemaError, ":4: malformed record: pt and pr must have equal"),
    ],
)
def test_load_refuses_evaluation_counts_and_shapes(tmp_path, edits, exc, message):
    path = corrupt_records(tmp_path, edits)
    with pytest.raises(exc, match=f"^{re.escape(path + message)}"):
        load_dataset(path)
