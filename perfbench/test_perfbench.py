"""Tests of the benchmark itself (not of quivergrass).

Run from the repository root:  python3 -m pytest perfbench -q
"""

import copy
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def count_d4():
    w = WORKLOADS["count-d4"]()
    w.setup()
    return w, run.load_golden("count-d4")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_sample(name):
    w = WORKLOADS[name]()
    w.setup()
    golden = run.load_golden(name)

    def sample(seed):
        return w.order(seed, golden)[:run.SAMPLE_SIZE[name]]

    assert sample(7) == sample(7)
    assert len(set(sample(7))) == run.SAMPLE_SIZE[name]
    if name != "research-small":  # its sample is all three configurations
        assert sample(7) != sample(8)


def test_count_sample_is_without_replacement_and_stratified(count_d4):
    w, golden = count_d4
    order = w.order(3, golden)
    assert sorted(order) == sorted(w.keys())
    dims = [golden[k]["dim"] for k in order]
    # the seed picks the members, never which stratum fills a position
    assert [golden[k]["dim"] for k in w.order(4, golden)] == dims
    for d in set(dims):
        share = dims.count(d) / len(dims)
        for prefix in (24, 60):
            assert abs(dims[:prefix].count(d) - share * prefix) <= 1


@pytest.mark.parametrize("name, size", [
    ("count-d4", 424), ("hilbert-d4", 302), ("research-small", 3)])
def test_golden_covers_every_key(name, size):
    w = WORKLOADS[name]()
    w.setup()
    golden = run.load_golden(name)
    assert sorted(golden) == sorted(w.keys())
    assert len(golden) == size


def test_perturbed_golden_coefficient_is_a_failure(count_d4):
    w, golden = count_d4
    key = min(golden, key=lambda k: (golden[k]["dim"], k))
    out = w.run_op(key)
    assert run.verify(w, golden, key, out) is None
    bad = copy.deepcopy(golden)
    bad[key]["poly"][0] = str(int(bad[key]["poly"][0]) + 1)
    assert "golden" in run.verify(w, bad, key, out)
    log = run.OpLog()
    run.run_op(w, bad, key, log)
    run.run_op(w, golden, key, log)
    assert len(log.failures) == 1 and [k for k, _ in log.done] == [key]


def test_self_time_on_a_synthetic_span_tree():
    rec = SpanRecorder()
    # root [0, 10] with children [1, 3] and [2, 6] (overlapping: union 5),
    # and a grandchild [4, 5] that the root must not subtract twice
    spans = [("root", 0, 10, -1), ("a", 1, 3, 0), ("b", 2, 6, 0),
             ("c", 4, 5, 2), ("d", 12, 13, -1)]
    for name, start, end, parent in spans:
        rec.name.append(name)
        rec.start.append(float(start))
        rec.end.append(float(end))
        rec.parent.append(parent)
        rec.op.append(0)
        rec.attrs.append({})
    assert rec.self_times() == [5.0, 2.0, 3.0, 1.0, 1.0]


def test_recorder_nests_real_spans():
    rec = SpanRecorder()
    outer = rec.open("outer")
    inner = rec.open("inner")
    rec.close(inner)
    rec.close(outer)
    assert rec.parent == [-1, 0]
    selfs = rec.self_times()
    assert selfs[0] == pytest.approx(rec.duration(0) - rec.duration(1))


@pytest.mark.parametrize("n, rank", [
    (1, 1),
    (5, 3),     # too few ops for ten beyond: the median
    (19, 10),
    (20, 10),   # p50, with ten beyond
    (21, 11),
    (84, 74),   # p88.1
    (100, 90),  # p90
    (1000, 990),
])
def test_tail_rank_rule(n, rank):
    assert run.tail_rank(n) == rank
    if n >= 20:
        assert n - run.tail_rank(n) == 10


def test_latency_is_best_of_rounds_and_tail_is_eleventh_largest():
    log = run.OpLog()
    for slow in (2.0, 1.0):  # the second round is the faster one
        for i in range(84):
            log.keys.append(f"k{i}")
            log.seconds.append((i + 1) * slow)
    log.failures.append("one failed run")
    metrics, details = run.end_to_end(log, 1.0)
    assert metrics["wall_s"][0] == sum(range(1, 85))
    assert metrics["op_p50_s"][0] == 42.5
    assert metrics["op_tail_s"][0] == 74.0
    assert metrics["ok_frac"][0] == 167 / 168
    assert details["ops_beyond_tail"] == 10
    assert details["op_tail_percentile"] == pytest.approx(100 * 74 / 84)


def test_rounds_keep_one_order_and_stop_at_the_first_op_that_does_not_fit():
    ran, set_ups = [], []

    def run_one(key):
        ran.append(key)
        time.sleep(0.01)

    rounds = run.run_rounds(["a", "b", "c"], 0.1, run_one,
                            lambda: set_ups.append(len(ran)), 2, partial=True)
    assert rounds >= 2
    assert ran == (["a", "b", "c"] * 4)[:len(ran)]
    assert rounds * 3 <= len(ran) < rounds * 3 + 3
    assert set_ups[:rounds] == [3 * (r + 1) for r in range(rounds)]
    # without partial rounds only whole rounds run, here the one required
    ran.clear()
    assert run.run_rounds(["a", "b", "c"], 0.0, run_one, lambda: None, 1,
                          partial=False) == 1
    assert ran == ["a", "b", "c"]


def test_result_line_shape(tmp_path, capsys):
    rc = run.main(["--workload", "research-small", "--seed", "1",
                   "--seconds", "0.01", "--trace", "0"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * run.MIN_ROUNDS
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
