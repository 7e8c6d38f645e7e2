"""Benchmark E5 — regenerate Figure 6 (throughput comparison) and the
model-size / speedup claims from the abstract."""

from __future__ import annotations

from repro.core import create_model
from repro.experiments import format_figure6, run_figure6

from conftest import record_report


def test_figure6_runtime(benchmark, harness, bench_config):
    results = run_figure6(harness, repeats=2, config=bench_config)
    record_report("Figure 6 runtime", format_figure6(results))

    by_name = {row["engine"]: row for row in results}
    assert set(by_name) == {"UNet", "DAMO", "Ours", "Ref"}
    # Shape of the published figure: the golden (rigorous) engine is the
    # slowest, DAMO is much slower than DOINN, and DOINN is in the same class
    # as UNet.
    assert by_name["Ref"]["um2_per_s"] < by_name["Ours"]["um2_per_s"]
    assert by_name["DAMO"]["um2_per_s"] < by_name["Ours"]["um2_per_s"]
    assert by_name["Ours"]["speedup_over_ref"] > 1.0

    # Timed kernel: DOINN single-tile inference (the quantity Figure 6 plots).
    data = harness.benchmark("ispd2019", "L")
    model = create_model("doinn", image_size=data.test.image_size)
    mask = data.test.masks[:1]
    benchmark(lambda: model.predict(mask, batch_size=1))
