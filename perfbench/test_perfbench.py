"""Self-tests for the benchmark: span arithmetic, op lists, wrapping.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from bench_trace import TRACE_POINTS, Span, Tracer, resolve, self_times  # noqa: E402
from bench_workloads import SCENARIOS, WORKLOADS, make_workload, op_cycles  # noqa: E402

situnet = run.import_situnet()


def test_self_times_subtract_the_union_of_child_intervals():
    spans = [
        Span(0, None, 0, "root", 0.0, 10.0),
        Span(1, 0, 0, "a", 1.0, 4.0),
        Span(2, 0, 0, "a", 3.0, 5.0),     # overlaps its sibling: [1, 5] is covered once
        Span(3, 0, 0, "b", 5.0, 9.0),
        Span(4, 3, 0, "c", 6.0, 7.0),
        Span(5, None, 0, "root", 20.0, 21.0),
    ]
    totals = self_times(spans)
    assert totals["root"] == pytest.approx((10.0 - 8.0 + 1.0, 2))
    assert totals["a"] == pytest.approx((3.0 + 2.0, 2))
    assert totals["b"] == pytest.approx((3.0, 1))
    assert totals["c"] == pytest.approx((1.0, 1))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


WORDS = {name: [f"{name}{i}" for i in range(19)] for name in SCENARIOS}


def first_ops(workload, seed, n_cycles=3):
    return list(itertools.islice(op_cycles(workload, seed, WORDS), n_cycles))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_op_list_depends_only_on_the_seed(workload):
    assert first_ops(workload, 5) == first_ops(workload, 5)
    assert first_ops(workload, 5) != first_ops(workload, 6)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cycle_composition_is_fixed(workload):
    def shape(op):
        return (op.get("scenario"), op.get("family"), len(op.get("words", ())),
                op.get("environment") if "words" in op and len(op["words"]) > 11 else None)

    shapes = [sorted(map(shape, cycle), key=repr) for cycle in first_ops(workload, 9)]
    assert shapes[0] == shapes[1] == shapes[2]


def test_unwrapping_restores_every_patched_attribute():
    owners = [(resolve(target), attr) for target, attr, _, _ in TRACE_POINTS]
    originals = [owner.__dict__[attr] for owner, attr in owners]
    tracer = Tracer()
    tracer.install(TRACE_POINTS)
    try:
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(owners, originals))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(owners, originals))


def traced_counts(tmp_path):
    """Counts of the first four generate ops of seed 1, traced."""
    from situnet import cli

    workload = make_workload("generate", Path(situnet.data_path()), tmp_path)
    workload.prepare()
    ops = next(op_cycles("generate", 1, workload.words))[:4]
    tracer = Tracer()
    tracer.install(TRACE_POINTS)
    try:
        run.run_ops(cli, workload, [ops], tracer=tracer)
    finally:
        tracer.uninstall()
    return dict(tracer.counts), dict(tracer.calls), dict(tracer.maxima)


def test_traced_counts_repeat_exactly(tmp_path):
    first = traced_counts(tmp_path / "a")
    assert first[1]["cli.main"] == 4
    assert first == traced_counts(tmp_path / "b")
