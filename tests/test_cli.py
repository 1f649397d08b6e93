import json
import os
import subprocess
import sys

import pytest

import relayalloc
from relayalloc import (
    NonFiniteLossError,
    init_mlp,
    load_dataset,
    load_model,
    normalization_for,
    save_model,
)
from relayalloc.cli import build_parser, main
from relayalloc.gridsearch import _batch_size

SMALL_SYSTEM = ["--subcarriers", "2", "--active", "1", "--mod-order", "2"]


def gen_args(out, val_out=None, count=4, seed=901, extra=()):
    args = [
        "gen-data", *SMALL_SYSTEM,
        "--count", str(count), "--seed", str(seed),
        "--out", str(out),
    ]
    if val_out is not None:
        args += ["--validation-count", "2", "--val-out", str(val_out)]
    return args + list(extra)


def test_gen_data_writes_dataset_and_manifest(tmp_path, capsys):
    out = tmp_path / "train.jsonl"
    val = tmp_path / "val.jsonl"
    assert main(gen_args(out, val)) == 0
    printed = capsys.readouterr().out
    assert "4 training and 2 validation" in printed
    assert "rejected" in printed
    train_set = load_dataset(str(out))
    val_set = load_dataset(str(val))
    assert len(train_set) == 4 and len(val_set) == 2
    assert train_set.gen.split_role == "train"
    manifest = json.loads((tmp_path / "train.jsonl.manifest.json").read_text())
    assert manifest["format"] == "relay-run-v1"
    assert manifest["command"] == "gen-data"
    assert manifest["options"]["count"] == 4
    assert manifest["options"]["split_seed"] == 902  # derived from seed + 1
    assert manifest["artifacts"]["validation"] == str(val)
    assert manifest["wall_clock_sec"] > 0
    labeling = manifest["labeling"]
    assert labeling["stop_reasons"] == {"resolution": 6, "max_levels": 0, "level_cap": 0}
    assert 0 < labeling["seconds"] <= manifest["wall_clock_sec"]


def test_gen_data_reruns_are_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        out, val = d / "train.jsonl", d / "val.jsonl"
        assert main(gen_args(out, val)) == 0
        outs.append((out.read_bytes(), val.read_bytes()))
    assert outs[0] == outs[1]


def test_gen_data_reports_every_labeled_chunk(tmp_path, capsys):
    # 70 samples label in chunks of `size`; each chunk reaches a new twentieth
    size = _batch_size(2, 12, 9)
    assert 70 // 20 < size < 70
    assert main(["gen-data", "--count", "40", "--validation-count", "30", "--seed", "5",
                 "--out", str(tmp_path / "t.jsonl"), "--val-out", str(tmp_path / "v.jsonl")]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"labeling: {done}/70" for done in (*range(size, 70, size), 70)]


def test_config_file_layered_under_flags(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"count": 5, "seed": 77, "n": 2, "t": 1, "m": 2}))
    out = tmp_path / "train.jsonl"
    # config file beats defaults; the explicit --count beats the config file
    assert main(["gen-data", "--config", str(cfg), "--count", "3",
                 "--out", str(out)]) == 0
    dataset = load_dataset(str(out))
    assert len(dataset) == 3
    assert dataset.gen.seed == 77
    assert dataset.config.t == 1


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"no_such_option": 1}))
    assert main(["gen-data", "--config", str(cfg)]) == 2
    assert "unknown option" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad, option",
    [
        ({"t": 1.5}, "t"),
        ({"count": True}, "count"),
        ({"count": None}, "count"),
        ({"delta": "0.01x"}, "delta"),
        ({"outage_mode": "bogus"}, "outage_mode"),
    ],
)
def test_config_file_rejects_bad_values(tmp_path, capsys, bad, option):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 2, "t": 1, "m": 2, "count": 2, **bad}))
    out = tmp_path / "train.jsonl"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"option {option} " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_manifest_options_replay_as_config(tmp_path):
    def replay(manifest, command, *flags):
        cfg = tmp_path / f"{command}.options.json"
        cfg.write_text(json.dumps(json.loads(manifest.read_text())["options"]))
        return main([command, "--config", str(cfg), *flags])

    data, val = tmp_path / "a.jsonl", tmp_path / "a.val.jsonl"
    assert main(gen_args(data, val, count=6)) == 0
    data2, val2 = tmp_path / "b.jsonl", tmp_path / "b.val.jsonl"
    assert replay(tmp_path / "a.jsonl.manifest.json", "gen-data",
                  "--out", str(data2), "--val-out", str(val2)) == 0
    assert (data.read_bytes(), val.read_bytes()) == (data2.read_bytes(), val2.read_bytes())

    model, history = tmp_path / "m1.json", tmp_path / "h1.csv"
    assert main(train_args(data, val, model, history)) == 0
    model2, history2 = tmp_path / "m2.json", tmp_path / "h2.csv"
    assert replay(tmp_path / "m1.json.manifest.json", "train",
                  "--model-out", str(model2), "--history-out", str(history2)) == 0
    assert (model.read_bytes(), history.read_bytes()) == (
        model2.read_bytes(), history2.read_bytes())

    result, result2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["solve", *SMALL_SYSTEM, "--stats", "1,1,1,1", "--grid0", "8",
                 "--out", str(result)]) == 0
    assert replay(tmp_path / "r1.json.manifest.json", "solve",
                  "--stats", "1,1,1,1", "--out", str(result2)) == 0
    assert result.read_bytes() == result2.read_bytes()


def test_config_file_rejects_bad_json(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text("{ nope")
    assert main(["gen-data", "--config", str(cfg)]) == 2


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["solve", "--delta", "not-a-number"])
    assert err.value.code == 2
    # domain-level argument problems use the same code without the traceback
    assert main(["solve"]) == 2  # no --stats
    assert main(["solve", "--stats", "1,1,1"]) == 2  # three numbers
    assert main(["solve", "--stats", "1,1,1,1", "--delta", "7"]) == 2
    assert main(["sweep", "--grid", "a,b"]) == 2
    assert main(["sweep", "--experiment", "neurons", "--grid", "1.5"]) == 2
    assert main(["sweep", "--experiment", "layers", "--grid", "1.5"]) == 2
    assert "--grid '1.5'" in capsys.readouterr().err


def test_solve_prints_and_writes_result(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = main([
        "solve", *SMALL_SYSTEM, "--stats", "1,1,1,1", "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "subcarrier 1:" in printed
    assert "total power:" in printed
    doc = json.loads(out.read_text())
    assert set(doc) == {
        "pt", "pr", "total_power", "achieved_outage", "accuracy",
        "evaluations", "levels",
    }
    assert len(doc["pt"]) == 1
    assert doc["achieved_outage"] <= 0.01
    # rerun reproduces the artifact byte for byte
    out2 = tmp_path / "result2.json"
    main(["solve", *SMALL_SYSTEM, "--stats", "1,1,1,1", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()
    manifest = json.loads((tmp_path / "result.json.manifest.json").read_text())
    assert manifest["stop_reason"] == "resolution"
    capped = tmp_path / "capped.json"
    main(["solve", *SMALL_SYSTEM, "--stats", "1,1,1,1", "--shrink", "0.99", "--out", str(capped)])
    manifest = json.loads((tmp_path / "capped.json.manifest.json").read_text())
    assert manifest["stop_reason"] == "level_cap"
    assert doc["accuracy"] == 0.01
    assert json.loads(capped.read_text())["accuracy"] is None  # null: resolution not reached


def test_infeasible_solve_exits_3(tmp_path, capsys):
    code = main([
        "solve", *SMALL_SYSTEM, "--stats", "0.5,0.5,5,5",
        "--pt-max", "20", "--pr-max", "20",
    ])
    assert code == 3
    assert "infeasible" in capsys.readouterr().err


def test_missing_file_exits_4(tmp_path, capsys):
    assert main(["train", "--data", str(tmp_path / "absent.jsonl")]) == 4
    assert main(["eval", "--model", str(tmp_path / "absent.json"),
                 "--data", str(tmp_path / "absent.jsonl")]) == 4
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{ nope\n")
    assert main(["train", "--data", str(bad)]) == 4
    good = tmp_path / "good.jsonl"
    assert main(gen_args(good)) == 0
    header, record, *rest = good.read_text().splitlines()
    record = json.dumps({**json.loads(record), "evaluations": "x"})
    bad.write_text("\n".join([header, record, *rest]) + "\n")
    assert main(["train", "--data", str(bad)]) == 4
    assert ":2: malformed record" in capsys.readouterr().err
    doc = json.loads(header)
    doc["config"]["t"] = 1.5  # a header config that SystemConfig refuses
    bad.write_text("\n".join([json.dumps(doc), *good.read_text().splitlines()[1:]]) + "\n")
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(good), "--hidden", "4", "--epochs", "1",
                 "--model-out", str(model), "--history-out", str(tmp_path / "h.csv")]) == 0
    assert main(["train", "--data", str(bad)]) == 4
    assert main(["eval", "--model", str(model), "--data", str(bad)]) == 4
    assert capsys.readouterr().err.count(": malformed header: t must be int") == 2
    doc = json.loads(model.read_text())
    doc["use_bias"] = "false"  # a model field of the wrong JSON type
    model.write_text(json.dumps(doc))
    assert main(["eval", "--model", str(model), "--data", str(good)]) == 4
    assert "use_bias must be true" in capsys.readouterr().err


def test_mod_order_must_be_a_power_of_two(tmp_path, capsys):
    out = tmp_path / "data.jsonl"
    assert main(gen_args(out, extra=("--mod-order", "3"))) == 2
    assert "m must be a power of two >= 2, got 3" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main(gen_args(out)) == 0
    header, *records = out.read_text().splitlines()
    doc = json.loads(header)
    doc["config"]["m"] = 3
    out.write_text("\n".join([json.dumps(doc), *records]) + "\n")
    assert main(["train", "--data", str(out)]) == 4
    assert ": malformed header: m must be a power of two" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["gen-data", "--active", "3", "--subcarriers", "4", "--count", "2", "--out"],
    ["solve", "--max-evaluations", "10", "--stats", "1,1,1,1", "--stats", "2,2,1,1", "--out"],
    # four subcarriers' statistics per sample, refused before any is drawn
    ["gen-data", "--outage-mode", "sap-averaged", "--count", "2", "--out"],
    ["sweep", "--outage-mode", "sap-averaged", "--grid", "4", "--repeats", "1", "--out-dir"],
])
def test_search_budget_exceeded_exits_6(tmp_path, capsys, args):
    out = tmp_path / "out.json"
    assert main([*args, str(out)]) == 6
    err = capsys.readouterr().err
    assert "search budget exceeded: level 0 needs" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_numeric_failure_exits_5(tmp_path, monkeypatch):
    out = tmp_path / "train.jsonl"
    assert main(gen_args(out)) == 0

    def explode(*args, **kwargs):
        raise NonFiniteLossError("boom", epoch=1, batch_index=0, loss=float("nan"))

    monkeypatch.setattr("relayalloc.cli.run_train", explode)
    code = main(["train", "--data", str(out), "--hidden", "4",
                 "--epochs", "2", "--model-out", str(tmp_path / "m.json"),
                 "--history-out", str(tmp_path / "h.csv")])
    assert code == 5


def train_args(data, val, model, history, **kw):
    args = ["train", "--data", str(data), "--val-data", str(val),
            "--hidden", kw.get("hidden", "4"),
            "--epochs", kw.get("epochs", "3"),
            "--batch-size", "2", "--snapshot-every", "2",
            "--model-out", str(model), "--history-out", str(history)]
    return args


def test_one_parser_serves_every_run_with_its_own_options(tmp_path, capsys, monkeypatch):
    assert build_parser() is build_parser()
    data, val = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
    assert main(gen_args(data, val, count=6)) == 0
    model = tmp_path / "model.json"
    assert main(train_args(data, val, model, tmp_path / "h.csv")) == 0

    def solve(name):
        out = tmp_path / name
        assert main(["solve", *SMALL_SYSTEM, "--stats", "1,1,1,1", "--out", str(out)]) == 0
        return out

    def evaluate(name, *extra):
        out = tmp_path / name
        assert main(["eval", "--model", str(model), "--data", str(val), "--out", str(out),
                     *extra]) == 0
        return out, json.loads((tmp_path / f"{name}.manifest.json").read_text())["options"]

    first_solve = solve("first.json")
    first, first_opts = evaluate("first.csv", "--repair", "scale-up")
    with pytest.raises(SystemExit) as err:
        main(["eval", "--no-such-flag"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["eval", "--help"])
    assert err.value.code == 0
    assert "--repair" in capsys.readouterr().out
    again, again_opts = evaluate("again.csv", "--repair", "scale-up")
    plain, plain_opts = evaluate("plain.csv")
    # --stats appends: a second solve sees only its own one subcarrier
    assert solve("again.json").read_bytes() == first_solve.read_bytes()
    assert again.read_bytes() == first.read_bytes()
    assert again_opts == {**first_opts, "out": str(again)}
    assert plain_opts == {**first_opts, "out": str(plain), "repair": None}
    # a handler looks its callees up when it runs, so a later patch still takes effect
    monkeypatch.setattr("relayalloc.cli.run_train", lambda *args, **kwargs: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        main(train_args(data, val, model, tmp_path / "h.csv"))


def test_train_refuses_non_finite_adam_settings_before_any_epoch(tmp_path, capsys):
    data = tmp_path / "train.jsonl"
    assert main(gen_args(data, count=8)) == 0
    model, history = tmp_path / "model.json", tmp_path / "history.csv"
    for flag, value in [("--step-size", "nan"), ("--step-size", "inf"), ("--epsilon", "inf")]:
        capsys.readouterr()
        args = train_args(data, data, model, history) + [flag, value]
        assert main(args) == 2
        assert f"{flag[2:].replace('-', '_')} must be finite and > 0" in capsys.readouterr().err
        assert not model.exists() and not history.exists()


def test_train_and_eval_pipeline(tmp_path, capsys):
    data = tmp_path / "train.jsonl"
    val = tmp_path / "val.jsonl"
    assert main(gen_args(data, val, count=6)) == 0
    model = tmp_path / "model.json"
    history = tmp_path / "history.csv"
    assert main(train_args(data, val, model, history)) == 0
    printed = capsys.readouterr().out
    assert "trained 3 epochs" in printed
    lines = history.read_text().splitlines()
    assert lines[0] == "epoch,loss,rel_error"
    assert [row.split(",")[0] for row in lines[1:]] == ["2", "3"]
    manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
    assert manifest["layer_dims"] == [4, 4, 2]
    throughput = manifest["training"]
    assert throughput["steps"] == 3 * 3  # 3 epochs of 6 records in batches of 2
    assert 0 < throughput["seconds"] <= manifest["wall_clock_sec"]
    assert throughput["steps_per_second"] == throughput["steps"] / throughput["seconds"]
    assert "training" not in model.read_text()  # the model file carries no timings

    comparison = tmp_path / "cmp.csv"
    assert main(["eval", "--model", str(model), "--data", str(val),
                 "--out", str(comparison)]) == 0
    printed = capsys.readouterr().out
    assert "compared 2 records" in printed
    rows = comparison.read_text().splitlines()
    assert rows[0] == "sample_id,ann_total,oracle_total,gap"
    assert len(rows) == 3


def test_sap_averaged_pipeline_sizes_everything_by_all_subcarriers(tmp_path, capsys):
    # samples carry all n = 2 subcarriers, so the network is 8 -> 2n = 4
    system = ["--outage-mode", "sap-averaged", *SMALL_SYSTEM]
    data, val = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
    assert main(["gen-data", *system, "--count", "6", "--validation-count", "2",
                 "--out", str(data), "--val-out", str(val)]) == 0
    assert load_dataset(str(data)).samples.shape == (6, 4, 2)
    model = tmp_path / "model.json"
    assert main(train_args(data, val, model, tmp_path / "history.csv")) == 0
    manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
    assert manifest["layer_dims"] == [8, 4, 4]
    comparison = tmp_path / "cmp.csv"
    assert main(["eval", "--model", str(model), "--data", str(val), "--repair", "scale-up",
                 "--out", str(comparison)]) == 0
    assert len(comparison.read_text().splitlines()) == 3
    out_dir = tmp_path / "sweep"
    assert main(["sweep", *system, "--grid", "3", "--repeats", "1", "--train-count", "4",
                 "--validation-count", "2", "--epochs", "2", "--batch-size", "2",
                 "--snapshot-every", "1", "--out-dir", str(out_dir)]) == 0
    assert "neurons=3: mean final relative error" in capsys.readouterr().out


def run_cli(args, code=None):
    """A fresh interpreter running the CLI with ``args`` (or ``code``) on
    this package, killed after 60 s."""
    src = os.path.dirname(os.path.dirname(relayalloc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    command = ["-c", code] if code is not None else ["-m", "relayalloc.cli", *args]
    return subprocess.run([sys.executable, *command], capture_output=True, text=True,
                          timeout=60, env=env)


@pytest.mark.parametrize("cap", ["1e-6", "1.0"])
def test_gen_data_refuses_caps_no_statistic_can_meet(tmp_path, cap):
    # a subprocess with a timeout, so a generator that redraws forever fails
    proc = run_cli(["gen-data", "--pt-max", cap, "--pr-max", cap, "--count", "2",
                    "--out", str(tmp_path / "data.jsonl")])
    assert proc.returncode == 3
    assert "infeasible: no statistics in [0.5, 5.0] meet the cap" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_gen_data_gives_up_when_almost_no_draw_meets_the_cap(tmp_path):
    # the best corner meets psi_th = 0.31 (outage 0.301) but no draw does:
    # a subprocess with a timeout, so a generator that redraws forever fails
    proc = run_cli(["gen-data", "--pt-max", "1", "--pr-max", "1", "--outage-threshold", "0.31",
                    "--count", "2", "--out", str(tmp_path / "data.jsonl")])
    assert proc.returncode == 3
    assert "infeasible: only 0 of" in proc.stderr
    assert "(acceptance 0.00e+00); gave up after" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_importing_the_cli_loads_no_process_pool():
    # only gen-data --workers 2+ needs a process pool
    proc = run_cli([], code="import sys, relayalloc.cli; print(sorted(m for m in sys.modules "
                            "if m.startswith(('multiprocessing', 'concurrent.futures.process'))))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_train_reruns_are_byte_identical(tmp_path):
    data = tmp_path / "train.jsonl"
    val = tmp_path / "val.jsonl"
    assert main(gen_args(data, val, count=6)) == 0
    blobs = []
    for name in ("m1", "m2"):
        model = tmp_path / f"{name}.json"
        history = tmp_path / f"{name}.csv"
        assert main(train_args(data, val, model, history)) == 0
        blobs.append((model.read_bytes(), history.read_bytes()))
    assert blobs[0] == blobs[1]


def test_eval_rejects_normalization_mismatch(tmp_path):
    data = tmp_path / "train.jsonl"
    val = tmp_path / "val.jsonl"
    assert main(gen_args(data, val, count=6)) == 0
    model = tmp_path / "model.json"
    history = tmp_path / "h.csv"
    assert main(train_args(data, val, model, history)) == 0
    other = tmp_path / "other.jsonl"
    assert main(gen_args(other, count=4, extra=("--range-hi", "6.0"))) == 0
    assert main(["eval", "--model", str(model), "--data", str(other)]) == 2


def test_eval_limit_validation(tmp_path):
    data = tmp_path / "train.jsonl"
    val = tmp_path / "val.jsonl"
    assert main(gen_args(data, val, count=6)) == 0
    model = tmp_path / "model.json"
    assert main(train_args(data, val, model, tmp_path / "h.csv")) == 0
    assert main(["eval", "--model", str(model), "--data", str(val),
                 "--out", str(tmp_path / "c.csv"), "--limit", "1"]) == 0
    assert main(["eval", "--model", str(model), "--data", str(val),
                 "--out", str(tmp_path / "c.csv"), "--limit", "99"]) == 2


@pytest.mark.parametrize("repair", [[], ["--repair", "scale-up"]])
def test_eval_limit_rows_equal_the_full_run(tmp_path, repair):
    data = tmp_path / "train.jsonl"
    val = tmp_path / "val.jsonl"
    assert main(gen_args(data, val, count=30)) == 0
    model = tmp_path / "model.json"
    assert main(train_args(data, val, model, tmp_path / "h.csv", hidden="64,64", epochs="40")) == 0
    # lower output biases: rows differ and many break the cap, so a repair has work
    params, norm = load_model(str(model))
    params.biases[-1][:] -= 2.0
    save_model(params, norm, str(model))
    full, part = tmp_path / "full.csv", tmp_path / "part.csv"
    base = ["eval", "--model", str(model), "--data", str(data), *repair]
    assert main([*base, "--out", str(full)]) == 0
    full_rows = full.read_text().splitlines()
    assert len(full_rows) == 31
    for k in (1, 7):
        assert main([*base, "--out", str(part), "--limit", str(k)]) == 0
        assert part.read_text().splitlines() == full_rows[: k + 1]  # header + k rows, bitwise
    manifest = json.loads((tmp_path / "part.csv.manifest.json").read_text())
    if repair:  # of the 7 rows, some broke the cap and were repaired
        assert manifest["repair"]["repaired"] >= 1
    else:
        assert manifest["violation_rate"] > 0


@pytest.mark.parametrize("biases, repairable", [((-3.0, -3.0), True), ((-60.0, 0.0), False)])
def test_eval_manifest_counts_repairs(tmp_path, capsys, biases, repairable):
    # zero weights: every record gets sigmoid(bias) of the caps; -60 saturates to no power
    data = tmp_path / "data.jsonl"
    assert main(gen_args(data, count=12)) == 0
    params = init_mlp([4, 4, 2], seed=0)
    params.flat[:] = 0.0
    params.biases[-1][:] = biases
    model = tmp_path / "model.json"
    save_model(params, normalization_for(load_dataset(str(data))), str(model))
    base = ["eval", "--model", str(model), "--data", str(data)]
    assert main([*base, "--out", str(tmp_path / "raw.csv")]) == 0
    raw = json.loads((tmp_path / "raw.csv.manifest.json").read_text())
    assert "repair" not in raw
    violating = round(12 * raw["violation_rate"])
    assert violating > 0
    capsys.readouterr()
    assert main([*base, "--out", str(tmp_path / "fixed.csv"), "--repair", "scale-up"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    fixed = json.loads((tmp_path / "fixed.csv.manifest.json").read_text())
    repaired = violating if repairable else 0
    assert fixed["repair"] == {"violating": violating, "repaired": repaired,
                               "unrepairable": violating - repaired}
    assert fixed["violation_rate"] == (violating - repaired) / 12


def test_profile_bundles_defaults_under_flags(tmp_path):
    data = tmp_path / "train.jsonl"
    val = tmp_path / "val.jsonl"
    assert main(gen_args(data, val, count=6)) == 0
    model = tmp_path / "model.json"
    code = main(["train", "--profile", "desk", "--data", str(data),
                 "--val-data", str(val), "--epochs", "2",
                 "--model-out", str(model),
                 "--history-out", str(tmp_path / "h.csv")])
    assert code == 0
    manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
    assert manifest["options"]["hidden"] == "64,64"  # from the profile
    assert manifest["options"]["epochs"] == 2  # explicit flag wins
    assert manifest["layer_dims"] == [4, 64, 64, 2]


def test_sweep_writes_per_run_and_mean_csvs(tmp_path):
    out_dir = tmp_path / "sweep"
    code = main([
        "sweep", *SMALL_SYSTEM,
        "--experiment", "neurons", "--grid", "3", "--repeats", "2",
        "--train-count", "4", "--validation-count", "2",
        "--epochs", "2", "--batch-size", "2", "--snapshot-every", "1",
        "--out-dir", str(out_dir),
    ])
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "neurons_3_mean.csv", "neurons_3_r0.csv", "neurons_3_r1.csv",
        "sweep.manifest.json",
    ]
    mean_rows = (out_dir / "neurons_3_mean.csv").read_text().splitlines()
    assert mean_rows[0] == "epoch,loss,rel_error"
    assert len(mean_rows) == 3  # epochs 1 and 2
    manifest = json.loads((out_dir / "sweep.manifest.json").read_text())
    assert len(manifest["seeds"]) == 2


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "relayalloc.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "relayalloc" in proc.stdout
    which = subprocess.run(["relayalloc", "--version"], capture_output=True, text=True)
    assert which.returncode == 0
