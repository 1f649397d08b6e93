"""The three workloads, each a part of the pipeline ``gen-data -> train -> eval``.

Every workload has a set-up, which builds its inputs from the seed before
any timing starts, and a measured pass in two parts:

* a stage: repeated in-process ``relayalloc.cli.main`` invocations of one
  subcommand, reported as items per second;
* a closed-loop query stream with one caller: single queries on fresh
  instances drawn from the seed, reported as latency.

The two parts alternate in rounds (see ``interleave``). Outputs are
checked after the pass, outside every timed region. A check
that fails marks its operation failed; operations are CLI invocations and
queries.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import shutil
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from relayalloc import (
    GenerationSpec,
    SubcarrierPower,
    SystemConfig,
    all_active_outage,
    compare_against_labels,
    decode_output,
    encode_input,
    feasibility_check,
    flop_count,
    forward,
    label_dataset,
    load_dataset,
    load_model,
    save_dataset,
    solve,
    stats_from_sample,
    write_comparison_csv,
)
from relayalloc import cli

from stats import Tally, blocks_summary, slow_quartile
from tracing import Tracer

# The default system throughout: n=4, t=2, M=4, psi_th=1e-2, caps 5000,
# single-sap. t >= 3 and sap-averaged fail at set-up today.
CONFIG = SystemConfig()
DELTA = 1e-2
RANGE_LO, RANGE_HI = 0.5, 5.0
HIDDEN = "64,64"
BATCH = 32
STEP = 1e-4

# Seed purposes; every input of a run derives from (seed, purpose, index).
(_QUERIES, _GEN, _TRAIN_DATA, _INIT, _SHUFFLE,
 _EVAL_TRAIN_DATA, _EVAL_INIT, _EVAL_SHUFFLE, _EVAL_DATA) = range(9)


def derive(seed: int, purpose: int, index: int = 0) -> int:
    return int(np.random.SeedSequence([seed, purpose, index]).generate_state(1)[0])


@dataclass(frozen=True)
class Sizes:
    gen_count: int          # training records per gen-data invocation
    gen_val: int            # validation records per gen-data invocation
    oracle_pool: int        # feasible query instances drawn in set-up
    surrogate_pool: int     # surrogate query instances drawn in set-up
    train_records: int      # train workload dataset
    train_val: int
    train_epochs: int       # per train invocation
    snapshot_every: int
    eval_train_records: int  # records the eval model is trained on
    eval_records: int        # held-out records eval compares against (labeled in set-up)
    eval_model_epochs: int   # brief: a realistic share of outputs break the cap
    setup_repeats: int
    stage_share: dict       # workload -> share of --seconds spent in the stage


FULL = Sizes(
    gen_count=24, gen_val=6, oracle_pool=400, surrogate_pool=20_000,
    train_records=96, train_val=32, train_epochs=300, snapshot_every=50,
    eval_train_records=64, eval_records=25, eval_model_epochs=1000,
    setup_repeats=3,
    stage_share={"gen-data": 0.4, "train": 0.7, "eval": 0.6},
)

# A few operations of each kind; used by the smoke tests and to fill the
# per-layer metrics of layers a workload does not exercise.
TINY = Sizes(
    gen_count=4, gen_val=2, oracle_pool=4, surrogate_pool=64,
    train_records=12, train_val=4, train_epochs=20, snapshot_every=5,
    eval_train_records=8, eval_records=8, eval_model_epochs=1500,
    setup_repeats=1,
    stage_share={"gen-data": 0.5, "train": 0.5, "eval": 0.5},
)


class SetupError(RuntimeError):
    pass


class Instances:
    """Channel statistics matrices (4 x t) drawn from one seed, read in order.

    ``feasible`` keeps only draws whose outage at the caps meets the cap,
    so that every oracle query has an answer. ``prefill`` draws happen at
    construction (set-up); later ones are drawn in chunks on demand, outside
    timed regions. Only the current chunk is kept, so the benchmark's memory
    does not grow with the number of queries.
    """

    def __init__(self, seed: int, feasible: bool, prefill: int):
        self._seed, self._feasible, self._prefill = seed, feasible, prefill
        self.rewind()

    def rewind(self) -> None:
        """Start again from the first instance (a second pass asks the same queries)."""
        self._rng = np.random.default_rng(self._seed)
        self._first = 0
        self._chunk = self._draw(self._prefill)

    def _draw(self, count: int) -> np.ndarray:
        if not self._feasible:
            return self._rng.uniform(RANGE_LO, RANGE_HI, size=(count, 4, CONFIG.t))
        kept = []
        while len(kept) < count:
            v = self._rng.uniform(RANGE_LO, RANGE_HI, size=(4, CONFIG.t))
            if feasibility_check(stats_from_sample(v), CONFIG).feasible:
                kept.append(v)
        return np.stack(kept) if kept else np.empty((0, 4, CONFIG.t))

    def get(self, i: int) -> np.ndarray:
        if i < self._first:
            raise ValueError(f"instance {i} was already passed; instances are read in order")
        while i >= self._first + len(self._chunk):
            self._first += len(self._chunk)
            self._chunk = self._draw(256 if self._feasible else 4096)
        return self._chunk[i - self._first]


class Run:
    """State of one workload run: where it writes, what it has tallied."""

    def __init__(self, workload: str, seed: int, sizes: Sizes, workdir: str,
                 tracer: Tracer | None = None, facts: dict | None = None):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.tracer = tracer
        self.facts = facts if facts is not None else {}
        self.tally = Tally()
        self.pending: list[Callable[[Tally], None]] = []
        self.digests: dict[str, str] = {}
        self.notes: dict[str, object] = {}  # information only, gates nothing
        os.makedirs(workdir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)

    def add_fact(self, key: str, amount: float = 1) -> None:
        self.facts[key] = self.facts.get(key, 0) + amount

    def defer(self, operation: str, check: Callable[[], list[str]]) -> None:
        """Check one operation's outputs when the pass has ended."""
        self.pending.append(lambda tally: tally.record(operation, problems_of(check)))

    def settle(self) -> None:
        """Run the deferred output checks and tally every operation."""
        for record in self.pending:
            record(self.tally)
        self.pending.clear()


def problems_of(check: Callable[[], list[str]]) -> list[str]:
    try:
        return check()
    except Exception as exc:  # a crashing check is a failed check
        return [f"check raised {type(exc).__name__}: {exc}"]


# ------------------------------------------------------------------ helpers


def invoke(run: Run, args: list[str]) -> tuple[object, int, str]:
    """One in-process CLI invocation: (exit code or error, elapsed ns, output)."""
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        start = time.perf_counter_ns()
        try:
            rc = run.call(f"cli.{args[0]}", cli.main, args)
        except (Exception, SystemExit) as exc:  # counted as a failed operation
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
    return rc, elapsed, log.getvalue()


def _exit_problems(rc, log: str) -> list[str]:
    if rc == 0:
        return []
    last = log.strip().splitlines()[-1] if log.strip() else ""
    return [f"exit {rc!r}: {last}"]


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def block_outage(sample: np.ndarray, pt, pr) -> float:
    """Outage of an allocation, recomputed through the public functions."""
    powers = [SubcarrierPower(pt=float(a), pr=float(b)) for a, b in zip(pt, pr)]
    return all_active_outage(stats_from_sample(sample), powers, CONFIG.s)


def allocation_problems(what: str, sample, pt, pr, need_feasible: bool) -> list[str]:
    problems = []
    pt = np.asarray(pt, dtype=float)
    pr = np.asarray(pr, dtype=float)
    if not (np.isfinite(pt).all() and np.isfinite(pr).all()):
        return [f"{what}: non-finite power"]
    if (pt < 0).any() or (pt > CONFIG.pt_max).any() or (pr < 0).any() or (pr > CONFIG.pr_max).any():
        problems.append(f"{what}: power outside the box")
    if need_feasible:
        outage = block_outage(sample, pt, pr)
        if not outage <= CONFIG.psi_th:
            problems.append(f"{what}: outage {outage!r} > psi_th {CONFIG.psi_th!r}")
    return problems


def dataset_problems(path: str, expected: int) -> list[str]:
    """Read back a dataset the CLI wrote and re-check every label."""
    try:
        dataset = load_dataset(path)
    except Exception as exc:
        return [f"load_dataset({os.path.basename(path)}): {type(exc).__name__}: {exc}"]
    problems = []
    if len(dataset) != expected:
        problems.append(f"{os.path.basename(path)}: {len(dataset)} records, expected {expected}")
    for i, rec in enumerate(dataset.records):
        problems += allocation_problems(f"label {i}", rec.sample, rec.label.pt, rec.label.pr, True)
    return problems


def history_problems(path: str) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        losses = [float(row["loss"]) for row in csv.DictReader(fh)]
    if not losses:
        return ["history has no snapshots"]
    if not all(math.isfinite(x) for x in losses):
        return ["training loss is not finite"]
    if len(losses) > 1 and not losses[-1] < losses[0]:
        return [f"last snapshot loss {losses[-1]!r} is not below the first {losses[0]!r}"]
    return []


def model_problems(path: str, dims: tuple) -> list[str]:
    try:
        params, _ = load_model(path)
    except Exception as exc:
        return [f"load_model({os.path.basename(path)}): {type(exc).__name__}: {exc}"]
    if tuple(params.layer_dims) != dims:
        return [f"model dims {params.layer_dims}, expected {dims}"]
    return []


def _digest_first(run: Run, key: str, *paths: str) -> None:
    if key not in run.digests:
        run.digests[key] = hashlib.sha256(
            "".join(sha256_file(p) for p in paths).encode()
        ).hexdigest()


def _gen_args(count: int, val: int, seed: int, out: str, val_out: str) -> list[str]:
    return ["gen-data", "--count", str(count), "--validation-count", str(val),
            "--seed", str(seed), "--delta", repr(DELTA), "--workers", "1",
            "--range-lo", repr(RANGE_LO), "--range-hi", repr(RANGE_HI),
            "--out", out, "--val-out", val_out]


def _train_args(data: str, val: str, epochs: int, snapshot_every: int,
                init_seed: int, shuffle_seed: int, model: str, history: str) -> list[str]:
    return ["train", "--data", data, "--val-data", val, "--hidden", HIDDEN,
            "--epochs", str(epochs), "--batch-size", str(BATCH), "--step-size", repr(STEP),
            "--snapshot-every", str(snapshot_every), "--init-seed", str(init_seed),
            "--shuffle-seed", str(shuffle_seed), "--model-out", model,
            "--history-out", history]


def _model_dims() -> tuple:
    return (4 * CONFIG.t, *(int(h) for h in HIDDEN.split(",")), 2 * CONFIG.t)


def _setup_invoke(run: Run, args: list[str]) -> None:
    rc, _, log = invoke(run, args)
    if rc != 0:
        raise SetupError(f"set-up {args[0]} failed: {_exit_problems(rc, log)}")


def _loop_until(deadline_ns: int, step: Callable[[], None]) -> None:
    """Call ``step()`` until the deadline passes; at least once."""
    while True:
        step()
        if time.perf_counter_ns() >= deadline_ns:
            return


# The machine's speed changes every few seconds. So the stage and the query
# stream alternate in rounds, and each samples the whole window.
ROUNDS = 12


class Stage:
    """Repeated CLI invocations of one subcommand; each one's items per second."""

    def __init__(self, invocation: Callable[[int], tuple[int, int]]):
        self._invocation = invocation  # i -> (items, elapsed ns)
        self.rates: list[float] = []

    def step(self) -> None:
        items, elapsed_ns = self._invocation(len(self.rates))
        self.rates.append(items / (elapsed_ns / 1e9))

    @property
    def rate(self) -> float:
        return slow_quartile(self.rates, higher_is_better=True)


def interleave(run: Run, seconds: float, stage: Stage, stream) -> dict:
    """ROUNDS rounds of stage invocations then queries, ``--seconds`` in all."""
    share = run.sizes.stage_share[run.workload]
    stage_ns = int(seconds * share * 1e9 / ROUNDS)
    query_ns = int(seconds * (1 - share) * 1e9 / ROUNDS)
    for _ in range(ROUNDS):
        _loop_until(time.perf_counter_ns() + stage_ns, stage.step)
        stream.start()
        _loop_until(time.perf_counter_ns() + query_ns, stream.step)
    stream.finish()
    return {"stage_rate": stage.rate, "stage_rates": stage.rates,
            "latency": stream.summary()}


# ------------------------------------------------------------ query streams


class Answers:
    """A query stream's latencies, and its answers checked block by block.

    Latencies go to a flat array. Answers wait in fixed buffers until a
    block of them is complete, are checked then (outside the timed query),
    and the buffers are reused. The benchmark thus adds no per-query objects
    for the garbage collector to walk, and its memory barely grows with the
    number of queries, which keeps it out of ``peak_rss_mb``.
    """

    def __init__(self, block: int, check: Callable[[int, np.ndarray, np.ndarray], list[str]]):
        self.block = block
        self._check = check  # (query index, sample, powers) -> problems
        self.latency_ns = array("q")
        self._index = np.empty(block, dtype=np.int64)
        self._samples = np.empty((block, 4, CONFIG.t))
        self._powers = np.empty((block, 2 * CONFIG.t))
        self._pending = 0
        self.passed = 0
        self.failures: list[str] = []
        self._digest = hashlib.sha256()
        self._digested = 0

    def add(self, i: int, latency_ns: int, sample: np.ndarray, pt, pr) -> None:
        k = self._pending
        self.latency_ns.append(latency_ns)
        self._index[k] = i
        self._samples[k] = sample
        self._powers[k, : CONFIG.t] = pt
        self._powers[k, CONFIG.t:] = pr
        self._pending += 1
        if self._pending == self.block:
            self.flush()

    def flush(self) -> None:
        """Check the answers waiting in the buffers."""
        n, self._pending = self._pending, 0
        take = min(n, 100 - self._digested)  # the digest covers the first 100 answers
        self._digest.update(self._powers[:take].tobytes())
        self._digested += take
        for k in range(n):
            i = int(self._index[k])
            problems = problems_of(lambda: self._check(i, self._samples[k], self._powers[k]))
            if problems:
                self.failures.append("; ".join(problems))
            else:
                self.passed += 1

    def digest(self) -> str:
        return self._digest.hexdigest()


class QueryStream:
    """Closed loop, one caller: each query on the next fresh instance.

    The first ``start`` prepares (after the first stage round, which may
    have written the model) and answers one untimed warm-up query.
    """

    operation = ""
    need_feasible = False
    block = 0  # queries per block of the latency summary

    def __init__(self, run: Run, instances: Instances):
        self.run = run
        self.instances = instances
        self.answers = Answers(self.block, self._check)
        self._next = 0

    def start(self) -> None:
        if self._next == 0:
            self.prepare()
            self.query(self.instances.get(0))
            self._next = 1

    def prepare(self) -> None:
        pass

    def query(self, v: np.ndarray):
        raise NotImplementedError

    def _check(self, i: int, sample: np.ndarray, powers: np.ndarray) -> list[str]:
        t = CONFIG.t
        return allocation_problems(f"query {i}", sample, powers[:t], powers[t:], self.need_feasible)

    def step(self) -> None:
        i = self._next
        self._next += 1
        v = self.instances.get(i)
        start = time.perf_counter_ns()
        try:
            pt, pr = self.query(v)
        except Exception as exc:
            self.answers.failures.append(f"query {i}: {type(exc).__name__}: {exc}")
            return
        self.answers.add(i, time.perf_counter_ns() - start, v, pt, pr)

    def summary(self) -> dict:
        return blocks_summary(self.answers.latency_ns.tolist(), self.block)

    def finish(self) -> None:
        """Check the last answers; tally every query when the run settles."""
        answers, operation = self.answers, self.operation
        answers.flush()

        def record(tally: Tally) -> None:
            for _ in range(answers.passed):
                tally.record(operation, [])
            for problem in answers.failures:
                tally.record(operation, [problem])

        self.run.pending.append(record)
        self.run.digests[f"{operation}_answers_first100"] = answers.digest()


class OracleStream(QueryStream):
    """Single ``solve`` queries on feasible instances."""

    operation = "query.solve"
    need_feasible = True
    block = 40  # tail p75; at 10-20 ms a query, a block spans under a second

    def query(self, v):
        result = self.run.call("query.solve", solve, stats_from_sample(v), CONFIG, DELTA)
        self.run.facts.setdefault("solve_levels", []).append(result.levels)
        self.run.facts.setdefault("solve_evaluations", []).append(result.evaluations)
        return result.allocation.pt, result.allocation.pr


class SurrogateStream(QueryStream):
    """Single ``encode_input -> forward -> decode_output`` queries."""

    operation = "query.surrogate"
    block = 200  # tail p95; at 0.07-0.2 ms a query, a block spans 15-40 ms

    def __init__(self, run: Run, instances: Instances, model_path: str):
        super().__init__(run, instances)
        self.model_path = model_path

    def prepare(self) -> None:
        self.params, self.norm = load_model(self.model_path)
        self.run.facts["flops_per_query"] = flop_count(self.params.layer_dims)

    def query(self, v):
        alloc = self.run.call("query.surrogate", self._answer, v)
        return alloc.pt, alloc.pr

    def _answer(self, v):
        run, norm = self.run, self.norm
        x = run.call("query.encode", encode_input, v, norm.range_hi)
        raw = run.call("query.forward", forward, self.params, x)
        return run.call("query.decode", decode_output, raw, norm.pt_max, norm.pr_max)


# ----------------------------------------------------------------- gen-data


def setup_gen_data(run: Run) -> dict:
    return {"instances": Instances(derive(run.seed, _QUERIES), True, run.sizes.oracle_pool)}


def measure_gen_data(run: Run, inputs: dict, seconds: float) -> dict:
    s = run.sizes
    records = s.gen_count + s.gen_val

    def invocation(i: int) -> tuple[int, int]:
        out, val = run.path(f"gen-{i}.jsonl"), run.path(f"gen-{i}.val.jsonl")
        rc, elapsed, log = invoke(run, _gen_args(
            s.gen_count, s.gen_val, derive(run.seed, _GEN, i), out, val))
        run.add_fact("stage_records", records)

        def check() -> list[str]:
            problems = _exit_problems(rc, log)
            if not problems:
                problems = dataset_problems(out, s.gen_count) + dataset_problems(val, s.gen_val)
                _digest_first(run, "gen-data_datasets", out, val)
            for p in (out, val):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(p)
            return problems

        run.defer("cli.gen-data", check)
        return records, elapsed

    return interleave(run, seconds, Stage(invocation), OracleStream(run, inputs["instances"]))


# -------------------------------------------------------------------- train


def setup_train(run: Run) -> dict:
    s = run.sizes
    data, val = run.path("train.jsonl"), run.path("train.val.jsonl")
    _setup_invoke(run, _gen_args(s.train_records, s.train_val,
                                 derive(run.seed, _TRAIN_DATA), data, val))
    return {"data": data, "val": val,
            "instances": Instances(derive(run.seed, _QUERIES), False, s.surrogate_pool)}


def check_setup_train(run: Run, inputs: dict) -> list[str]:
    s = run.sizes
    return (dataset_problems(inputs["data"], s.train_records)
            + dataset_problems(inputs["val"], s.train_val))


def measure_train(run: Run, inputs: dict, seconds: float) -> dict:
    s = run.sizes
    steps = s.train_epochs * math.ceil(s.train_records / BATCH)
    dims = _model_dims()

    def invocation(i: int) -> tuple[int, int]:
        model, history = run.path(f"model-{i}.json"), run.path(f"history-{i}.csv")
        rc, elapsed, log = invoke(run, _train_args(
            inputs["data"], inputs["val"], s.train_epochs, s.snapshot_every,
            derive(run.seed, _INIT, i), derive(run.seed, _SHUFFLE, i), model, history))
        run.add_fact("stage_records", s.train_records + s.train_val)

        def check() -> list[str]:
            problems = _exit_problems(rc, log)
            if not problems:
                problems = model_problems(model, dims) + history_problems(history)
                _digest_first(run, "train_model_history", model, history)
            if i > 0:  # the first model answers the query stream
                for p in (model, history):
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(p)
            return problems

        run.defer("cli.train", check)
        return steps, elapsed

    stream = SurrogateStream(run, inputs["instances"], run.path("model-0.json"))
    return interleave(run, seconds, Stage(invocation), stream)


# --------------------------------------------------------------------- eval


# The share of eval records whose raw network output breaks the outage cap.
# Fixing it (instead of letting each seed's draw set it) keeps the repair
# work per record, which dominates eval, the same for every seed.
EVAL_VIOLATING_SHARE = 0.4


def _select_eval_samples(run: Run, model: str, count: int) -> np.ndarray:
    """Feasible instances drawn from the seed, in draw order, of which
    EVAL_VIOLATING_SHARE are ones the model's raw output leaves above the cap.

    Classifying needs only the model and the outage, not labels, so only
    the kept instances are labeled. If the draws run out of violating ones,
    the rest are feasible ones and the notes record the share reached.
    """
    params, norm = load_model(model)
    want_violating = round(EVAL_VIOLATING_SHARE * count)
    instances = Instances(derive(run.seed, _EVAL_DATA), True, 0)
    kept: list[tuple[int, np.ndarray]] = []  # (draw index, sample), in draw order
    spare: list[tuple[int, np.ndarray]] = []  # feasible ones beyond their quota
    violating = 0
    for i in range(50 * count):
        v = instances.get(i)
        alloc = decode_output(forward(params, encode_input(v, norm.range_hi)),
                              norm.pt_max, norm.pr_max)
        if block_outage(v, alloc.pt, alloc.pr) > CONFIG.psi_th:
            if violating < want_violating:
                violating += 1
                kept.append((i, v))
        elif len(kept) - violating < count - want_violating:
            kept.append((i, v))
        elif len(spare) < count:
            spare.append((i, v))
        if len(kept) == count:
            break
    if len(kept) < count:  # too few violating draws: top up with feasible ones
        kept = sorted(kept + spare[: count - len(kept)], key=lambda pair: pair[0])
    run.notes["eval_violating_share"] = violating / count
    return np.stack([v for _, v in kept])


def setup_eval(run: Run) -> dict:
    s = run.sizes
    data, val = run.path("eval.train.jsonl"), run.path("eval.train.val.jsonl")
    model, history = run.path("eval.model.json"), run.path("eval.history.csv")
    held_out = run.path("eval.jsonl")
    _setup_invoke(run, _gen_args(s.eval_train_records, max(1, s.eval_train_records // 4),
                                 derive(run.seed, _EVAL_TRAIN_DATA), data, val))
    _setup_invoke(run, _train_args(
        data, val, s.eval_model_epochs, max(1, s.eval_model_epochs // 4),
        derive(run.seed, _EVAL_INIT), derive(run.seed, _EVAL_SHUFFLE), model, history))
    samples = _select_eval_samples(run, model, s.eval_records)
    gen = GenerationSpec(sampler="uniform", range_lo=RANGE_LO, range_hi=RANGE_HI,
                         count=len(samples), seed=derive(run.seed, _EVAL_DATA), delta=DELTA)
    save_dataset(label_dataset(samples, CONFIG, DELTA, gen=gen), held_out)
    return {"data": data, "val": val, "model": model, "history": history, "held_out": held_out,
            "instances": Instances(derive(run.seed, _QUERIES), False, s.surrogate_pool)}


def check_setup_eval(run: Run, inputs: dict) -> list[str]:
    s = run.sizes
    return (dataset_problems(inputs["data"], s.eval_train_records)
            + dataset_problems(inputs["val"], max(1, s.eval_train_records // 4))
            + dataset_problems(inputs["held_out"], s.eval_records)
            + model_problems(inputs["model"], _model_dims())
            + history_problems(inputs["history"]))


def eval_reference(run: Run, inputs: dict) -> dict:
    """The comparison eval must reproduce, made through the library API.

    Every CLI eval must write exactly this CSV; its rows carry the repair
    flags that the checks need.
    """
    params, _ = load_model(inputs["model"])
    report = compare_against_labels(params, load_dataset(inputs["held_out"]), repair="scale-up")
    path = run.path("eval.reference.csv")
    write_comparison_csv(report, path)
    return {"report": report, "csv_sha256": sha256_file(path)}


def measure_eval(run: Run, inputs: dict, seconds: float) -> dict:
    s = run.sizes

    def invocation(i: int) -> tuple[int, int]:
        out = run.path(f"comparison-{i}.csv")
        rc, elapsed, log = invoke(run, ["eval", "--model", inputs["model"], "--data",
                                        inputs["held_out"], "--out", out, "--repair", "scale-up"])
        run.add_fact("stage_records", s.eval_records)

        def check() -> list[str]:
            problems = _exit_problems(rc, log)
            if not problems:
                problems = _comparison_problems(run, inputs, out)
            with contextlib.suppress(FileNotFoundError):
                os.remove(out)
            return problems

        run.defer("cli.eval", check)
        return s.eval_records, elapsed

    stream = SurrogateStream(run, inputs["instances"], inputs["model"])
    return interleave(run, seconds, Stage(invocation), stream)


def _comparison_problems(run: Run, inputs: dict, out: str) -> list[str]:
    ref = inputs.get("reference")
    if ref is None:
        ref = inputs["reference"] = eval_reference(run, inputs)
        run.digests["eval_comparison"] = ref["csv_sha256"]
        rows = ref["report"].rows
        run.notes["eval_repaired_records"] = sum(r.repaired for r in rows)
        run.notes["eval_violating_records"] = sum(r.repaired or r.violated for r in rows)
    problems = []
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != run.sizes.eval_records:
        problems.append(f"{len(rows)} comparison rows for {run.sizes.eval_records} records")
    if sha256_file(out) != ref["csv_sha256"]:
        problems.append("comparison CSV differs from the library's comparison")
    for row in ref["report"].rows:
        if row.repaired and (row.violated or not row.ann_outage <= CONFIG.psi_th):
            problems.append(f"row {row.sample_id} flagged repaired but infeasible")
    return problems


WORKLOADS = {
    "gen-data": (setup_gen_data, None, measure_gen_data),
    "train": (setup_train, check_setup_train, measure_train),
    "eval": (setup_eval, check_setup_eval, measure_eval),
}


def run_setup(run: Run) -> tuple[dict, list[float]]:
    """Build the workload's inputs ``setup_repeats`` times; keep the last.

    Returns the inputs and each repetition's wall time in seconds.
    """
    setup, check, _ = WORKLOADS[run.workload]
    base = run.workdir
    times = []
    inputs = None
    for k in range(run.sizes.setup_repeats):
        run.workdir = os.path.join(base, f"setup-{k}")
        if os.path.isdir(run.workdir):
            shutil.rmtree(run.workdir)
        os.makedirs(run.workdir)
        start = time.perf_counter_ns()
        inputs = setup(run)
        times.append((time.perf_counter_ns() - start) / 1e9)
        if k + 1 < run.sizes.setup_repeats:
            shutil.rmtree(run.workdir)
    run.workdir = base
    if check is not None:
        problems = check(run, inputs)
        run.tally.record(f"setup.{run.workload}", problems)
        if problems:
            raise SetupError(f"set-up outputs failed their checks: {problems[:3]}")
    return inputs, times


def measure(run: Run, inputs: dict, seconds: float) -> dict:
    """One measured pass; a later pass repeats the first one's queries."""
    if inputs.get("measured"):
        inputs["instances"].rewind()
    inputs["measured"] = True
    return WORKLOADS[run.workload][2](run, inputs, seconds)
