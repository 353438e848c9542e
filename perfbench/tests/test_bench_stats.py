import pytest

from perfbench import bench, stats, tracing


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]  # 1..100
    assert stats.percentile(values, 50) == 50.0
    assert stats.percentile(values, 90) == 90.0
    assert stats.percentile(values, 100) == 100.0
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    # With few samples the 90th percentile is the maximum.
    assert stats.percentile([1.0, 2.0, 3.0], 90) == 3.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_sample_count_rule():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(99, 90) == 9
    assert stats.samples_beyond(37, 90) == 3
    assert stats.samples_needed(90) == 100
    assert stats.samples_needed(50) == 20
    assert stats.samples_needed(99) == 1000


@pytest.mark.parametrize(
    "name", ["setup_s", "op_ms.p50", "graph.apply_t.self_ms", "scale.n5k.rss_mb", "9a-b", "x" * 64]
)
def test_valid_metric_names(name):
    assert stats.check_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "_lead", ".lead", "has space", "slash/name", "ünï", "x" * 65, "a:b", None]
)
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        stats.check_name(name)



class FakeWorkload:
    cycle = 4

    def __init__(self, fail_at=()):
        self.fail_at = set(fail_at)
        self.indices = []

    def op(self, index):
        self.indices.append(index)
        if index in self.fail_at:
            raise RuntimeError("op failed")
        return index

    def check(self, result):
        return 0.5, 0.75


def test_closed_loop_finishes_the_cycle_and_counts_failures():
    workload = FakeWorkload(fail_at={2})
    samples, traced = bench.run_ops(workload, seconds=0.0)
    assert workload.indices == [0, 1, 2, 3] and traced == []
    assert [s.ok for s in samples] == [True, True, False, True]
    assert samples[0].acc_base == 0.5 and samples[0].acc_adarc == 0.75


def test_traced_loop_pairs_each_index():
    workload = FakeWorkload()
    tracer = tracing.Tracer()
    plain, traced = bench.run_ops(workload, seconds=0.0, tracer=tracer)
    assert workload.indices == [0, 0, 1, 1, 2, 2, 3, 3]
    assert len(plain) == len(traced) == 4
    assert [s.name for s in tracer.spans] == [tracing.OP] * 4
