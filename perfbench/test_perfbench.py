"""Tests of the benchmark's own arithmetic.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import types
from pathlib import Path

import pytest

import harness
import layers
import spans
from harness import CheckFailed, OpResult, Run


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _module(name, source):
    mod = types.ModuleType(name)
    exec(source, mod.__dict__)
    return mod


WORK = '''
clock = None

def leaf():
    clock.t += 3.0

def a():
    clock.t += 1.0
    leaf()
    clock.t += 1.0

def b():
    clock.t += 4.0

def outer():
    clock.t += 2.0
    a()
    b()
    clock.t += 1.0

def countdown(n):
    clock.t += 1.0
    if n:
        countdown(n - 1)

def _private():
    clock.t += 100.0
'''


@pytest.fixture
def traced():
    clock = FakeClock()
    mod = _module("work", WORK)
    mod.clock = clock
    tracer = spans.Tracer(clock=clock)
    names = tracer.instrument([mod], {"work": "w"})
    yield tracer, mod, names
    tracer.restore()


# -- tail percentile ------------------------------------------------------

@pytest.mark.parametrize("n, level, beyond", [
    (39, None, None),      # p75 would leave only 9 samples beyond
    (40, 750, 10),
    (99, 750, 24),         # p90 would leave 9
    (100, 900, 10),
    (199, 900, 19),        # p95 would leave 9
    (200, 950, 10),
    (1000, 990, 10),
    (10000, 999, 10),
])
def test_tail_is_highest_level_with_ten_samples_beyond(n, level, beyond):
    values = list(range(n, 0, -1))  # unsorted on purpose
    got = harness.tail(values)
    if level is None:
        assert got is None
        return
    lvl, value, nb = got
    assert (lvl, nb) == (level, beyond)
    assert sum(v > value for v in values) == beyond >= 10


# -- self time ------------------------------------------------------------

def test_self_time_of_nested_and_sibling_spans(traced):
    tracer, mod, _ = traced
    mod.outer()
    stats, _ = tracer.totals()
    assert stats["w.leaf"].self_s == 3.0
    assert stats["w.a"].self_s == 2.0       # 5 minus the nested leaf
    assert stats["w.b"].self_s == 4.0
    assert stats["w.outer"].self_s == 3.0   # 12 minus siblings a (5) and b (4)
    assert stats["w.outer"].incl_s == 12.0
    assert sum(s.self_s for s in stats.values()) == 12.0


def test_spans_record_parents_and_operations(traced):
    tracer, mod, _ = traced
    tracer.begin_op(7)
    mod.outer()
    by_name = {s[1]: s for s in tracer.spans}
    ids = {name: s[0] for name, s in by_name.items()}
    assert by_name["w.outer"][4] == -1
    assert by_name["w.a"][4] == ids["w.outer"]
    assert by_name["w.b"][4] == ids["w.outer"]
    assert by_name["w.leaf"][4] == ids["w.a"]
    assert {s[5] for s in tracer.spans} == {7}
    sid, name, start, end, parent, op, thread = by_name["w.a"]
    assert (start, end) == (2.0, 7.0)


def test_recursion_counts_inclusive_time_once(traced):
    tracer, mod, _ = traced
    mod.countdown(3)
    s = tracer.totals()[0]["w.countdown"]
    assert (s.calls, s.outer_calls) == (4, 1)
    assert s.incl_s == 4.0 and s.self_s == 4.0


def test_only_public_functions_are_wrapped_and_restore_undoes_it(traced):
    tracer, mod, names = traced
    assert names == ["w.a", "w.b", "w.countdown", "w.leaf", "w.outer"]
    mod._private()
    tracer.restore()
    mod.leaf()
    assert tracer.totals()[0] == {}


def test_span_cap_keeps_totals(traced):
    tracer, mod, _ = traced
    tracer.spans_per_op = 2
    tracer.begin_op(0)
    mod.outer()
    assert len(tracer.spans) == 2
    assert sum(s.calls for s in tracer.totals()[0].values()) == 4


# -- distinct ratio -------------------------------------------------------

def test_distinct_counts_per_operation(traced):
    tracer, _, _ = traced
    st = tracer._state()
    tracer.begin_op(0)
    for item in (1, 1, 2):
        tracer.distinct(st, "k", item)
    tracer.begin_op(1)
    tracer.distinct(st, "k", 1)
    _, counts = tracer.totals()
    assert counts["k.distinct"] == 3
    assert layers.distinct_ratio(counts["k.distinct"], 4) == 0.75


def test_distinct_ratio_bounds():
    assert layers.distinct_ratio(0, 0) == 0.0
    assert layers.distinct_ratio(5, 5) == 1.0
    with pytest.raises(ValueError):
        layers.distinct_ratio(6, 5)


@pytest.mark.parametrize("a, x, region", [
    (2.0, 1.0, "series"),
    (2.0, 5.0, "continued_fraction"),
    (-1.5, 2.0, "continued_fraction"),
    (0.3, 0.5, "small_shape"),
    (-0.2, 0.5, "small_shape"),
    (-1.0, 0.5, "recurrence"),
    (0.0, 0.5, "recurrence"),
])
def test_uig_region(a, x, region, monkeypatch):
    assert layers.uig_region(a, x) == region
    # The region names the first branch helper the real function enters.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "src"))
    from ntglab import specfun

    helpers = {"_lower_series": "series", "_upper_cf": "continued_fraction",
               "_small_shape_series": "small_shape", "_e1_series": "recurrence"}
    entered = []
    for attr, name in helpers.items():
        original = getattr(specfun, attr)

        def spy(*args, _name=name, _original=original):
            entered.append(_name)
            return _original(*args)

        monkeypatch.setattr(specfun, attr, spy)
    specfun.upper_incomplete_gamma(a, x)
    assert entered[0] == region


QUAD = '''
class QuadratureError(RuntimeError):
    pass

def integrate_1d(nested):
    if nested:
        integrate_1d(False)
    raise QuadratureError("error above tolerance")
'''


def test_nested_quadrature_failure_counts_once_and_metrics_are_per_pass():
    mod = _module("quad", QUAD)
    tracer = spans.Tracer(observers=layers.OBSERVERS)
    names = tracer.instrument([mod], {"quad": "numint"})
    try:
        for nested in (True, False):
            with pytest.raises(mod.QuadratureError):
                mod.integrate_1d(nested)
    finally:
        tracer.restore()
    stats, counts = tracer.totals()
    m = layers.layer_metrics(stats, counts, names, passes=2)
    assert m["numint.quad_failures"] == (1.0, "count")     # 2 failures in 2 passes
    assert m["numint.integrate_1d.calls"] == (1.5, "count")  # 3 calls in 2 passes


# -- failures -------------------------------------------------------------

def _results(*outcomes):
    return [OpResult(0, i, f"op{i}", 1.0, o) for i, o in enumerate(outcomes)]


def test_fail_ratio_counts_raised_and_missed_checks():
    assert harness.fail_ratio(_results("ok", "raised", "check", "error")) == 0.75
    assert harness.fail_ratio(_results("ok")) == 0.0
    with pytest.raises(ValueError):
        harness.fail_ratio([])


class _Op:
    def __init__(self, label, call, check=lambda out: None, raises=()):
        self.label, self.call, self.check, self.raises = label, call, check, raises


def _raise(exc):
    raise exc


def test_run_ops_records_failures_without_crashing():
    ops = [
        _Op("fine", lambda: 1),
        _Op("known defect", lambda: _raise(OverflowError("range")), raises=(OverflowError,)),
        _Op("raises", lambda: _raise(OverflowError("range"))),
        _Op("wrong", lambda: 2, lambda out: _raise(CheckFailed("wrong value"))),
        _Op("check crashes", lambda: 3, lambda out: _raise(KeyError("ref"))),
    ]
    run = harness.run_ops(ops, 0)
    assert [r.outcome for r in run.results] == ["ok", "raised", "error", "check", "check"]
    assert run.passes == 1                   # the first pass always runs
    assert harness.fail_ratio(run.results) == 0.8


@pytest.mark.parametrize("outcomes, ok", [
    (("ok", "ok"), True),
    (("ok", "raised"), True),     # a declared known defect
    (("ok", "error"), False),     # any other exception
    (("check", "ok"), False),
])
def test_correct_fails_on_missed_checks_and_undeclared_exceptions(outcomes, ok):
    assert harness.correct(_results(*outcomes)) is ok


@pytest.mark.parametrize("seconds, passes", [(0, 1), (5.9, 1), (6.0, 2), (9.5, 3)])
def test_run_ops_runs_whole_passes_within_the_time(seconds, passes):
    clock = FakeClock()

    def work():
        clock.t += 1.0

    run = harness.run_ops([_Op("a", work), _Op("b", work), _Op("c", work)], seconds,
                          clock=clock)
    # A pass takes 3 s; another starts only if it would end by ``seconds``.
    assert run.passes == passes
    assert [(r.pass_index, r.op_index) for r in run.results] == [
        (k, j) for k in range(passes) for j in range(3)]
    assert harness.best_wall(run.results) == 3.0
    assert run.elapsed == 3.0 * passes


def test_run_ops_min_passes_and_pass_hook():
    clock = FakeClock()
    seen = []

    def work():
        clock.t += 1.0

    run = harness.run_ops([_Op("a", work)], 0, clock=clock, before_pass=seen.append,
                          on_op=lambda i: seen.append(f"op{i}"), min_passes=2)
    assert run.passes == 2
    assert seen == [0, "op0", 1, "op1"]
    assert [r.pass_index for r in run.results] == [0, 1]


def test_end_to_end_takes_each_operation_at_its_fastest():
    results = [
        # pass 0
        OpResult(0, 0, "a", 0.2, "ok"), OpResult(0, 1, "b", 0.5, "ok"),
        OpResult(0, 2, "c", 0.001, "raised"), OpResult(0, 3, "d", 0.399, "check"),
        # pass 1: a is slower, b faster, c raised again, d verified this time
        OpResult(1, 0, "a", 0.3, "ok"), OpResult(1, 1, "b", 0.4, "ok"),
        OpResult(1, 2, "c", 0.002, "raised"), OpResult(1, 3, "d", 0.9, "ok"),
    ]
    m = harness.end_to_end(Run(results, 2, 3.0))
    assert m["wall_s"][0] == pytest.approx(0.2 + 0.4 + 0.001 + 0.399)
    # Percentiles cover verified calls only: a 0.2, b 0.4, d 0.9.
    assert m["op_p50_ms"][0] == pytest.approx(400.0)
    assert m["ops_verified"][0] == 3
    # 5 verified calls in 2 passes, over the best pass of all four operations.
    assert m["ops_per_s"][0] == pytest.approx(2.5 / 1.0)
    assert m["fail_ratio"][0] == pytest.approx(3 / 8)
    assert "op_tail_ms" not in m                         # too few samples for any tail
