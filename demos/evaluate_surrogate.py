"""How close does the trained surrogate get to the exact search?

The interesting question for a learned allocator is not its loss value but
the extra power it spends compared to the exact answer, and whether its
allocations still satisfy the outage constraint. This demo trains the same
tiny model as train_surrogate.py, then scores it record by record against
held-out search labels. Because the network outputs sit near the constraint
boundary, some allocations dip just below feasibility; the scale-up repair
bumps those up along a common factor until they clear the constraint.
"""

import numpy as np

from relayalloc import (
    SystemConfig,
    TrainingConfig,
    build_dataset,
    compare_against_labels,
    init_mlp,
    split,
    train,
)

config = SystemConfig(n=2, t=1, m=2)
full = build_dataset(config, 240, 0.5, 5.0, seed=1001, delta=1e-2)
train_set, val_set = split(full, validation_count=40, seed=902)

params = init_mlp([4 * config.cols, 16, 2 * config.cols], seed=7)
schedule = TrainingConfig(epochs=2000, batch_size=16, step_size=1e-3, shuffle_seed=99)
params, _ = train(params, train_set, schedule, validation=val_set)

report = compare_against_labels(params, val_set)
print(f"{'sample':>6} {'model total':>12} {'oracle total':>13} {'gap':>8} {'violates':>9}")
for row in report.rows[:10]:
    print(
        f"{row.sample_id:6d} {row.ann_total:12.3f} {row.oracle_total:13.3f} "
        f"{row.gap:+8.3f} {str(row.violated):>9}"
    )
print("  ...")
gaps = np.array([abs(row.gap) for row in report.rows])
print()
print(f"mean signed gap: {report.mean_gap:+.4f} (positive means extra power spent)")
print(f"within 25% of the oracle: {np.mean(gaps <= 0.25):.0%} of {len(report.rows)} records")
print(f"constraint violations before repair: {report.violation_rate:.0%}")

repaired = compare_against_labels(params, val_set, repair="scale-up")
print(f"constraint violations after scale-up repair: {repaired.violation_rate:.0%}")
print(f"mean signed gap after repair: {repaired.mean_gap:+.4f}")
