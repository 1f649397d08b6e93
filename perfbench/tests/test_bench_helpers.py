"""Tests of the benchmark's own helpers: tail rule, self time, accounting.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from stats import MIN_BEYOND, Tally, blocks_summary, percentile, slow_quartile, tail_tenths  # noqa: E402
from tracing import Patches, Span, SpanIndex, Tracer, self_time_ns, union_length  # noqa: E402


@pytest.mark.parametrize("n", [1, 5, 19, 20, 39, 40, 100, 199, 200, 999, 1000, 9999, 10000, 10**6])
def test_tail_percentile_leaves_at_least_ten_samples_beyond(n):
    tenths = tail_tenths(n)
    values = sorted(range(n))
    above = sum(v > percentile(values, tenths) for v in values)
    if tenths == 1000:
        assert n - (n + 1) // 2 < MIN_BEYOND  # even the median had too few above it
    else:
        assert above >= MIN_BEYOND


@pytest.mark.parametrize("n, expected", [
    (19, 1000), (20, 500), (40, 750), (100, 900), (199, 900), (200, 950),
    (999, 950), (1000, 990), (9999, 990), (10000, 999),
])
def test_tail_percentile_is_the_highest_candidate(n, expected):
    assert tail_tenths(n) == expected


def test_slow_quartile_is_on_the_slow_side():
    values = [1, 2, 3, 4, 5, 6, 7]  # quartiles 2 and 6 by statistics.quantiles
    assert slow_quartile(values) == 6
    assert slow_quartile(values, higher_is_better=True) == 2
    assert slow_quartile([7]) == 7
    with pytest.raises(ValueError):
        slow_quartile([])


def test_slow_quartile_ignores_a_minority_of_fast_values():
    slow = [100 + i % 5 for i in range(60)]
    some_fast = slow + [55] * 30  # a third of the run in the fast state
    assert slow_quartile(some_fast) == pytest.approx(slow_quartile(slow), rel=0.02)
    rates = [1000 / v for v in some_fast]
    assert slow_quartile(rates, higher_is_better=True) == pytest.approx(
        slow_quartile([1000 / v for v in slow], higher_is_better=True), rel=0.02)


def test_blocks_summary_reports_the_slow_quartile_of_the_blocks():
    ms = 1_000_000
    fast = [i * ms for i in range(1, 101)]  # p50 50.5, p90 90
    slow = [2 * i * ms for i in range(1, 101)]  # the slow machine state: p50 101, p90 180
    s = blocks_summary(fast + slow * 8 + fast + fast[:40], 100)
    assert s["p50_ms"] == pytest.approx(101.0)
    assert s["tail_ms"] == 180.0
    assert s["median_block_p50_ms"] == pytest.approx(101.0)
    assert s["fastest_block_p50_ms"] == pytest.approx(50.5)
    assert s["tail_percentile"] == 90.0
    assert (s["samples"], s["blocks"], s["block_size"]) == (1040, 10, 100)
    assert s["beyond_tail_per_block"] == 10


def test_blocks_summary_block_size_fixes_the_percentile():
    assert blocks_summary(list(range(1000)), 1000)["tail_percentile"] == 99.0
    assert blocks_summary(list(range(5000)), 1000)["tail_percentile"] == 99.0
    short = blocks_summary(list(range(150)), 1000)  # fewer than a block: one block
    assert (short["blocks"], short["block_size"], short["tail_percentile"]) == (1, 150, 90.0)


def test_union_merges_overlapping_and_nested_intervals():
    assert union_length([]) == 0
    assert union_length([(0, 10), (5, 15)]) == 15
    assert union_length([(0, 10), (2, 3), (20, 25)]) == 15
    assert union_length([(5, 5), (7, 6)]) == 0


def test_self_time_subtracts_the_union_of_children():
    parent = Span(0, "p", 0, 100, None)
    nested = [Span(1, "a", 10, 40, 0), Span(2, "b", 20, 30, 0)]  # b inside a
    overlapping = [Span(3, "c", 50, 70, 0), Span(4, "d", 60, 80, 0)]
    assert self_time_ns(parent, nested) == 70
    assert self_time_ns(parent, overlapping) == 70
    assert self_time_ns(parent, nested + overlapping) == 40


def test_self_time_clips_children_to_the_parent():
    parent = Span(0, "p", 100, 200, None)
    assert self_time_ns(parent, [Span(1, "c", 50, 150, 0), Span(2, "d", 190, 260, 0)]) == 40


def test_tracer_records_parents_and_self_time():
    tracer = Tracer("t")

    def inner():
        return 3

    def outer():
        return tracer.call("inner", inner) + tracer.call("inner", inner)

    assert tracer.call("outer", outer) == 6
    ix = SpanIndex(tracer.spans)
    (top,) = ix.named("outer")
    children = ix.named("inner")
    assert len(children) == 2 and all(c.parent == top.span_id for c in children)
    assert ix.self_ns(top) == top.duration_ns - sum(c.duration_ns for c in children)
    assert ix.has_ancestor(children[0], lambda name: name == "outer")


def test_wrap_survives_an_observer_that_fails():
    tracer = Tracer("t")
    wrapped = tracer.wrap("f", lambda x: x + 1, observe=lambda r: r.missing_attribute)
    assert wrapped(1) == 2
    assert len(tracer.spans) == 1 and tracer.observe_errors


def test_patches_list_missing_targets_and_restore_originals():
    import json

    original = json.dumps
    with Patches() as patches:
        assert patches.install("json", "dumps", lambda fn: (lambda *a, **k: "patched"))
        assert not patches.install("json", "no_such_function", lambda fn: fn)
        assert not patches.install("no_such_module_xyz", "f", lambda fn: fn)
        assert json.dumps({}) == "patched"
    assert json.dumps is original
    assert [u["target"] for u in patches.unwrapped] == ["json.no_such_function",
                                                         "no_such_module_xyz.f"]


def test_tally_counts_each_failed_operation_once():
    tally = Tally()
    assert tally.failed_frac == 0.0
    tally.record("a", [])
    tally.record("b", ["x", "y"])
    tally.record("c", [])
    tally.record("d", ["z"])
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_frac == 0.5
    other = Tally()
    other.record("e", [])
    tally.merge(other)
    assert (tally.attempted, tally.failed) == (5, 2)
    assert tally.failures == ["b: x; y", "d: z"]


def test_answers_are_checked_block_by_block_and_counted_once():
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    import numpy as np
    from workloads import Answers

    answers = Answers(4, lambda i, sample, powers: ["bad answer"] if i in (2, 9) else [])
    for i in range(10):  # two full blocks and a partial one
        answers.add(i, 1000 + i, np.ones((4, 2)), (1.0, 2.0), (3.0, 4.0))
    assert (answers.passed, len(answers.failures)) == (7, 1)  # the partial block waits
    answers.flush()
    assert (answers.passed, len(answers.failures), len(answers.latency_ns)) == (8, 2, 10)
