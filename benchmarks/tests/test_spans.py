"""Span arithmetic of the benchmark tracer.

    python3 -m pytest benchmarks/tests
"""
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402


def row(name, start, end, parent):
    return [name, start, end, parent, 0]


class TestSelfTimes:
    def test_leaf_self_time_is_its_duration(self):
        assert spans.self_times([row("a", 1.0, 3.5, -1)]) == [2.5]

    def test_nested_children_are_subtracted_once_per_level(self):
        rows = [
            row("root", 0.0, 10.0, -1),
            row("child", 1.0, 4.0, 0),
            row("grandchild", 2.0, 3.0, 1),
            row("child", 6.0, 7.0, 0),
        ]
        # the grandchild is inside its parent, so the root only loses its
        # direct children's intervals
        assert spans.self_times(rows) == pytest.approx([6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_count_once(self):
        rows = [
            row("root", 0.0, 10.0, -1),
            row("a", 1.0, 5.0, 0),
            row("b", 3.0, 6.0, 0),
            row("c", 5.5, 7.0, 0),
            row("d", 8.0, 9.0, 0),
        ]
        # union of children: [1, 7] and [8, 9] = 7 seconds
        assert spans.self_times(rows)[0] == pytest.approx(3.0)

    def test_child_outside_parent_only_covers_the_inside(self):
        rows = [row("root", 2.0, 6.0, -1), row("a", 0.0, 3.0, 0), row("b", 5.0, 9.0, 0)]
        assert spans.self_times(rows)[0] == pytest.approx(2.0)

    def test_siblings_of_other_parents_do_not_count(self):
        rows = [row("r1", 0.0, 4.0, -1), row("r2", 0.0, 4.0, -1), row("a", 1.0, 2.0, 1)]
        assert spans.self_times(rows)[:2] == pytest.approx([4.0, 3.0])


class TestTailPercentile:
    def test_picks_highest_grid_point_with_ten_beyond(self):
        samples = list(range(1, 101))  # 100 samples
        # p99 leaves 1 beyond, p90 leaves exactly 10
        assert spans.tail_percentile(samples) == (90.0, 90, 10)

    def test_nine_beyond_is_not_enough(self):
        samples = list(range(1, 100))  # 99 samples: p90 is rank 90, 9 beyond
        assert spans.tail_percentile(samples) == (50.0, 50, 49)

    def test_large_sample_reaches_p99_9(self):
        samples = list(range(20000))
        p, value, beyond = spans.tail_percentile(samples)
        assert (p, beyond) == (99.9, 20)
        assert value == samples[19980 - 1]

    def test_too_few_samples_returns_none(self):
        assert spans.tail_percentile(list(range(19))) is None
        assert spans.tail_percentile([]) is None

    def test_order_of_samples_does_not_matter(self):
        samples = [5, 1, 4, 2, 3] * 10
        assert spans.tail_percentile(samples) == spans.tail_percentile(sorted(samples))

    def test_percentile_is_nearest_rank(self):
        assert spans.percentile([4, 1, 3, 2], 50) == 2
        assert spans.percentile([7], 99.9) == 7


class TestTracer:
    def test_wrap_records_parents_and_counts(self):
        tracer = spans.Tracer(request=3)

        def inner(x):
            return x + 1

        traced_inner = tracer.wrap("inner", inner)
        outer = tracer.wrap("outer", lambda x: traced_inner(x) * 2,
                            after=lambda t, args, result: t.counts.__setitem__("out", result))
        assert outer(1) == 4
        names = [(r[0], r[3], r[4]) for r in tracer.spans]
        assert names == [("outer", -1, 3), ("inner", 0, 3)]
        assert tracer.counts["out"] == 4
        assert all(r[2] >= r[1] for r in tracer.spans)

    def test_summary_lists_every_span_even_when_never_called(self):
        summary = spans.summarize(spans.Tracer())
        assert set(summary["spans"]) == set(spans.SPAN_NAMES)
        assert all(s["calls"] == 0 for s in summary["spans"].values())
        assert summary["ratios"]["graph.normalize_adjacency.reuse_ratio"] == 0.0


def test_benchmark_json_matches_what_run_prints():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        n: u for n, u, _ in run.END_TO_END}
    assert {m["name"]: m["better"] for m in spec["end_to_end"]} == {
        n: b for n, _, b in run.END_TO_END}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
