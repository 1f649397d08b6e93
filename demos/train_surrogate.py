"""Training a small neural surrogate for the allocation search.

The search is exact but slow; a small feed-forward network trained on its
labeled outputs answers in microseconds. This demo keeps everything tiny
so it finishes in well under a minute: a two-subcarrier system with one
active subcarrier, a few hundred labeled samples, and a single narrow
hidden layer. The same pipeline scales to the full configuration through
the command line interface.
"""

import time

import numpy as np

from relayalloc import (
    SystemConfig,
    TrainingConfig,
    build_dataset,
    init_mlp,
    relative_error,
    split,
    train,
)

config = SystemConfig(n=2, t=1, m=2)
t0 = time.perf_counter()
full = build_dataset(config, 240, 0.5, 5.0, seed=1001, delta=1e-2)
train_set, val_set = split(full, validation_count=40, seed=902)
print(
    f"labeled {len(full)} samples in {time.perf_counter() - t0:.1f} s "
    f"({full.gen.rejected} infeasible draws rejected)"
)

params = init_mlp([4 * config.cols, 16, 2 * config.cols], seed=7)
schedule = TrainingConfig(
    epochs=2000,
    batch_size=16,
    step_size=1e-3,
    shuffle_seed=99,
    snapshot_every=200,
)
t1 = time.perf_counter()
params, history = train(params, train_set, schedule, validation=val_set)
print(f"trained {schedule.epochs} epochs in {time.perf_counter() - t1:.1f} s")
print()

print(f"{'epoch':>7} {'training loss':>15} {'held-out rel err':>17}")
for point in history.points:
    print(f"{point.epoch:7d} {point.loss:15.3e} {point.rel_error:17.4f}")
print()
print(f"final held-out relative error: {relative_error(params, val_set):.4f}")
