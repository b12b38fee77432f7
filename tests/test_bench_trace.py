"""A traced benchmark run reports every per-layer metric, as strict JSON.

``bench/run.py --trace 1`` derives its per-layer metrics from one traced
``cli.run`` at a time and prints them in its last line.  A metric that is
undefined in a run (a ratio over zero) is left out, and a non-finite one
would make that line invalid JSON; neither fails anything else.
"""

import json
from pathlib import Path

import cellhom
from cellhom import cli  # noqa: F401 - run_once reaches cli.run through the package

from test_bench_run import load_run

ROOT = Path(__file__).resolve().parent.parent
# fixed-input timings and the traced-over-untraced ratio, not per-run metrics
NOT_PER_RUN = {"models.kernel_us", "solver.vag_ms", "solver.energy_only_ms",
               "trace.overhead_frac"}


def test_traced_run_reports_every_per_layer_metric(monkeypatch, tmp_path):
    run = load_run(monkeypatch)
    import tracing          # bench/tracing.py, on the path that load_run set

    monkeypatch.setenv("CELLHOM_SEED", "0")     # run_once sets it; restored after
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    expected = {m["name"] for m in per_layer} - NOT_PER_RUN
    for name, workload in run.WORKLOADS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(workload["config"]))
        out = tmp_path / name
        out.mkdir()
        rep = run.run_once(cellhom, path, out, 0, tracing.Tracer())
        assert rep.error is None and rep.rc == 0, (name, rep.error, rep.rc)
        assert expected - set(rep.layers) == set(), name
        json.dumps(rep.layers, allow_nan=False)
