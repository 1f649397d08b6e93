"""Golden digests of the CLI pipeline and of the loaders' refusals.

Runs 22 CLI invocations (gen-data, train, eval, solve, sweep, and eight
refused ones: an unknown flag, a negative seed, a negative validation count,
zero workers, a mismatched validation set, an over-budget shape, a delta
outside (0, 1) and a first grid of one point) and 24 evals of corrupt
datasets and models in a fresh directory, each as its own ``python -m
relayalloc.cli`` process with BLAS on one thread, and prints one JSON
object: for every invocation its exit code and the first 16 hex digits of
the sha256 of its stdout, and its stderr; for every artifact it left, the
same digest. Run manifests hold wall times and paths and are left out.

    python tools/golden_digests.py SRC_DIR WORK_DIR > digests.json

SRC_DIR is the ``src`` directory whose ``relayalloc`` runs, and WORK_DIR
must not exist yet. Two trees give the same digests where they write the
same bytes; ``diff`` the outputs.
"""

import base64
import hashlib
import json
import os
import subprocess
import sys

SMALL = ["--subcarriers", "2", "--active", "1", "--mod-order", "2"]
SAP = ["--outage-mode", "sap-averaged", *SMALL]

PIPELINE = [
    ("gen", ["gen-data", "--count", "40", "--validation-count", "10", "--seed", "7",
             "--out", "train.jsonl", "--val-out", "val.jsonl"]),
    ("gen_workers", ["gen-data", "--count", "40", "--validation-count", "10", "--seed", "7",
                     "--workers", "2", "--out", "train2.jsonl", "--val-out", "val2.jsonl"]),
    ("gen_narrow", ["gen-data", "--count", "20", "--seed", "11", "--range-lo", "0.1",
                    "--range-hi", "1.0", "--out", "narrow.jsonl"]),
    ("gen_sapavg", ["gen-data", *SAP, "--count", "12", "--seed", "3", "--out", "sapavg.jsonl"]),
    ("gen_grid", ["gen-data", *SMALL, "--sampler", "grid", "--grid-levels", "2",
                  "--out", "grid.jsonl"]),
    ("train", ["train", "--data", "train.jsonl", "--val-data", "val.jsonl", "--epochs", "60",
               "--model-out", "model.json", "--history-out", "history.csv"]),
    ("eval", ["eval", "--model", "model.json", "--data", "val.jsonl", "--out", "cmp.csv"]),
    ("eval_repair", ["eval", "--model", "model.json", "--data", "val.jsonl",
                     "--repair", "scale-up", "--out", "cmp_rep.csv"]),
    ("eval_repair_train", ["eval", "--model", "model.json", "--data", "train.jsonl",
                           "--repair", "scale-up", "--out", "cmp_rep_train.csv"]),
    ("eval_limit", ["eval", "--model", "model.json", "--data", "train.jsonl", "--limit", "7",
                    "--out", "cmp_lim.csv"]),
    ("solve", ["solve", "--stats", "1,2,0.5,0.7", "--stats", "3,2.5,1,1",
               "--out", "solve.json"]),
    ("solve_sapavg", ["solve", *SAP, "--stats", "2,2,1,1", "--stats", "4,3,1,2",
                      "--out", "solve2.json"]),
    ("solve_t3", ["solve", "--active", "3", "--grid0", "4", "--refine-points", "3",
                  "--stats", "1,2,0.5,0.7", "--stats", "3,2.5,1,1", "--stats", "2,1.5,0.8,1.2",
                  "--out", "solve3.json"]),
    ("unknown_flag", ["gen-data", "--grid_0", "5"]),
    ("sweep", ["sweep", *SMALL, "--grid", "2,4", "--repeats", "1", "--train-count", "8",
               "--validation-count", "4", "--epochs", "3", "--batch-size", "4"]),
    ("negative_seed", ["gen-data", "--count", "4", "--seed", "-1", "--out", "refused.jsonl"]),
    ("negative_validation_count", ["gen-data", "--count", "10", "--validation-count", "-3",
                                   "--out", "refused.jsonl"]),
    ("workers_0", ["gen-data", "--count", "4", "--workers", "0", "--out", "refused.jsonl"]),
    ("train_mismatched_validation", ["train", "--data", "train.jsonl", "--val-data",
                                     "narrow.jsonl", "--epochs", "3",
                                     "--model-out", "refused_model.json",
                                     "--history-out", "refused_history.csv"]),
    ("gen_budget", ["gen-data", "--outage-mode", "sap-averaged", "--count", "2",
                    "--out", "refused.jsonl"]),
    ("gen_bad_delta", ["gen-data", "--count", "2", "--delta", "2", "--out", "refused.jsonl"]),
    ("solve_grid0", ["solve", "--grid0", "1", "--stats", "1,2,0.5,0.7", "--stats", "3,2.5,1,1",
                     "--out", "refused.json"]),
]


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _edit(line, field, value):
    """The JSON line with ``field`` (dotted: ``config.t``, ``v.0.0``) set."""
    doc = json.loads(line)
    *parents, name = [int(k) if k.isdigit() else k for k in field.split(".")]
    node = doc
    for key in parents:
        node = node[key]
    node[name] = value
    return json.dumps(doc)


def _dataset_faults(lines):
    """Name -> corrupt copy of the lines of val.jsonl (header + 10 records)."""
    head, recs = lines[0], lines[1:]
    return {
        "ds_empty": [],
        "ds_header_garbage": ["{ nope", *recs],
        "ds_header_list": ["[1, 2]", *recs],
        "ds_format": [_edit(head, "format", "other"), *recs],
        "ds_count": [head, *recs[:-1]],
        "ds_header_type": [_edit(head, "config.t", 1.5), *recs],
        "ds_record_not_json": [head, recs[0], "broken", *recs[2:]],
        "ds_record_number": [head, "7", *recs[1:]],
        "ds_outage": [head, recs[0], _edit(recs[1], "achieved_outage", 0.5), *recs[2:]],
        "ds_range": [head, *recs[:3], _edit(recs[3], "v.0.0", 99.0), *recs[4:]],
        "ds_caps": [head, _edit(recs[0], "pt.0", 9999.0), *recs[1:]],
        "ds_total": [head, *recs[:5], _edit(recs[5], "total_power", 1.0), *recs[6:]],
        "ds_evaluations": [head, *recs[:2], _edit(recs[2], "evaluations", 1.5), *recs[3:]],
        "ds_evaluations_huge": [head, *recs[:2], _edit(recs[2], "evaluations", 10**30),
                                *recs[3:]],
        "ds_evaluations_zero": [head, *recs[:2], _edit(recs[2], "evaluations", 0), *recs[3:]],
        "ds_label_length": [head, *recs[:4],
                            _edit(_edit(recs[4], "pt", [1.0] * 3), "pr", [1.0] * 3), *recs[5:]],
        "ds_blank_total": [head, recs[0], "", "  ", _edit(recs[1], "total_power", 1.0),
                           *recs[2:]],
    }


def _model_faults(text):
    doc = json.loads(text)
    faults = {
        "model_not_json": "{ not json",
        "model_list": "[1, 2]",
        "model_format": json.dumps({**doc, "format": "relay-mlp-v0"}),
        "model_dims_type": json.dumps({**doc, "layer_dims": [8, "64", 64, 4]}),
        "model_no_norm": json.dumps({k: v for k, v in doc.items() if k != "normalization"}),
        "model_dims_size": json.dumps({**doc, "layer_dims": [8, 64, 32, 4]}),
    }
    # the parameters lose their last value, in a relay-mlp-v2 file or in a
    # relay-mlp-v1 one, so that trees on both sides of that format change compare
    if "params" in doc:
        raw = base64.b64decode(doc["params"])[:-8]
        faults["model_short"] = json.dumps({**doc, "params": base64.b64encode(raw).decode()})
    else:
        doc["biases"][-1] = doc["biases"][-1][:-1]
        faults["model_short"] = json.dumps(doc)
    return faults


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def main(src, work):
    try:
        os.makedirs(work)
    except FileExistsError:
        sys.exit(f"error: {work} exists; give a WORK_DIR that does not")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = {"runs": {}, "artifacts": {}}

    def run(name, args):
        proc = subprocess.run([sys.executable, "-m", "relayalloc.cli", *args], cwd=work,
                              env=env, capture_output=True)
        out["runs"][name] = {"exit": proc.returncode, "stdout": _digest(proc.stdout),
                             "stderr": proc.stderr.decode().replace(work + os.sep, "")}

    for name, args in PIPELINE:
        run(name, args)
    for root, _, names in os.walk(work):
        for name in names:
            if not name.endswith(".manifest.json"):
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    out["artifacts"][os.path.relpath(path, work)] = _digest(fh.read())
    with open(os.path.join(work, "model.json"), encoding="utf-8") as fh:
        model_text = fh.read()
    for name, lines in _dataset_faults(_lines(os.path.join(work, "val.jsonl"))).items():
        with open(os.path.join(work, name + ".jsonl"), "w", encoding="utf-8") as fh:
            fh.write("".join(ln + "\n" for ln in lines))
        run(name, ["eval", "--model", "model.json", "--data", name + ".jsonl",
                   "--out", "refused.csv"])
    for name, text in _model_faults(model_text).items():
        with open(os.path.join(work, name + ".json"), "w", encoding="utf-8") as fh:
            fh.write(text)
        run(name, ["eval", "--model", name + ".json", "--data", "val.jsonl",
                   "--out", "refused.csv"])
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main(*sys.argv[1:3])
