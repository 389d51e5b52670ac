"""Tests of the benchmark's own span, self-time, kernel-unit, metric-name and verdict logic."""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import kernel_units  # noqa: E402
from compare import verdict  # noqa: E402
from layers import parse_importtime, per_layer_metrics  # noqa: E402
from spans import NullTracer, Span, Tracer, self_times, span_stats, tail  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _span(span_id, parent, start, end, name="x"):
    return Span(span_id, parent, name, start, end, "run")


def test_self_time_subtracts_children_once():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 3.0, 6.0),   # overlaps span 1: [1, 6) is covered once
        _span(3, 1, 1.5, 2.0),   # grandchild counts against its parent only
        _span(4, 0, 9.0, 12.0),  # runs past the parent's end: clipped to [9, 10)
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(0.5)


def test_tracer_records_parents_and_run_id():
    tracer = Tracer(run_id="r1")
    with tracer.span("root"):
        with tracer.span("op"):
            assert tracer.call("glauber.run_chain", lambda a, b=0: a + b, 1, b=2) == 3
        tracer.count("glauber.updates", 5)
        tracer.count("glauber.updates", 7)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["root"].parent is None
    assert by_name["op"].parent == by_name["root"].span_id
    assert by_name["glauber.run_chain"].parent == by_name["op"].span_id
    assert {s.run_id for s in tracer.spans} == {"r1"}
    assert tracer.counters["glauber.updates"] == 12


def test_tracer_keeps_peak_allocation():
    tracer = Tracer()
    tracer.call_peak_alloc("exact.exact_distribution", "exact.peak_alloc_mb",
                           lambda: bytearray(4 * 2**20))
    assert tracer.gauges["exact.peak_alloc_mb"] >= 4.0
    assert [s.name for s in tracer.spans] == ["exact.exact_distribution"]


def test_null_tracer_only_calls_through():
    tracer = NullTracer()
    with tracer.span("root"):
        assert tracer.call("f", max, 2, 5) == 5
    tracer.count("c", 1)
    assert not hasattr(tracer, "spans")


def test_tail_needs_ten_calls_beyond_it():
    assert tail(list(range(19))) is None
    assert tail(list(range(20)))[0] == 50.0
    assert tail(list(range(100)))[0] == 90.0
    assert tail(list(range(10_000)))[0] == 99.9


def test_span_stats_per_name():
    spans = [_span(0, None, 0.0, 1.0, "a"), _span(1, None, 1.0, 4.0, "a"),
             _span(2, None, 4.0, 6.0, "a")]
    st = span_stats(spans)["a"]
    assert (st.calls, st.busy_s, st.p50_s) == (3, pytest.approx(6.0), pytest.approx(2.0))


def test_parse_importtime_counts_outermost_modules():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |       scipy",
        "import time:       400 |        450 |     scipy.special",
        "import time:        70 |         70 |     blockpotts.model",
        "import time:        30 |        850 | blockpotts",
    ])
    out = parse_importtime(text)
    assert out["numpy"] == pytest.approx(300e-6)
    assert out["scipy"] == pytest.approx(450e-6)
    assert out["blockpotts"] == pytest.approx(850e-6)


def test_per_layer_metrics_match_benchmark_json():
    imports = {"blockpotts": 0.5, "scipy": 0.3, "numpy": 0.1}
    metrics = per_layer_metrics([], {}, {}, {}, 0, 0.0, imports)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    tracer = Tracer()
    with tracer.span("workload.chains"):
        tracer.call("glauber.run_chain", lambda: None)
    tracer.count("glauber.updates", 1000)
    metrics = per_layer_metrics(tracer.spans, tracer.counters, {}, {"glauber": 2}, 1, 0.1,
                                imports)
    assert metrics["glauber.run_chain.calls"] == 1
    assert metrics["glauber.updates"] == 1000
    assert metrics["glauber.updates_per_s"] > 0
    assert metrics["glauber.failed"] == 2
    assert metrics["bench.self_s"] >= 0


def test_benchmark_json_names_and_units():
    groups = [SPEC["workloads"], SPEC["end_to_end"], SPEC["per_layer"]]
    names = [m["name"] for group in groups for m in group]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_verdicts():
    parent = [10.0 + 0.1 * i for i in range(10)]
    faster = [v - 2.0 for v in parent]
    assert verdict(parent, faster, list(zip(parent, faster)), 0.1, "lower") == "better"
    # the same gain without ten pairs is not a claim
    assert verdict(parent, faster, list(zip(parent, faster))[:5], 0.1, "lower") == "unresolved"
    slower = [v * 1.2 for v in parent]
    assert verdict(parent, slower, list(zip(parent, slower)), 0.1, "lower") == "worse"
    same = [v + 0.01 for v in parent]
    assert verdict(parent, same, list(zip(parent, same)), 0.1, "lower") == "unchanged"
    noisy = [5.0, 15.0] * 5
    assert verdict(noisy, noisy, list(zip(noisy, noisy)), 0.1, "lower") == "unresolved"
    rate = [1.0] * 10
    assert verdict(rate, [0.99] * 10, list(zip(rate, [0.99] * 10)), 0.001, "higher") == "worse"


def test_kernel_units_divide_by_neighbouring_kernels():
    # two passes of two ops; the host runs twice as slow in the second pass
    op_s = [[1.0, 3.0], [2.0, 6.0]]
    kernel_s = [[(0.1, 0.1), (0.2, 0.2), (0.2, 0.2)], [(0.4, 0.4), (0.4, 0.4), (0.4, 0.4)]]
    # op 0 of pass 0 sits between kernels of 0.2 s and 0.4 s, so it takes 1 / 0.3 units
    assert kernel_units(op_s, kernel_s) == pytest.approx([0.5 * (1 / 0.3 + 2 / 0.8), 7.5])
