"""The benchmark's fixed-input timings still reach the calls they time.

``bench/run.py --trace 1`` times one model kernel call on a batch of
cells, one ``Problem.value_and_grad`` and one ``Problem.energy_only`` per
workload.  A changed signature there only drops the metric with a printed
note, so nothing else would fail.
"""

import importlib.util
import json
import sys
from pathlib import Path

import cellhom
from cellhom import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))     # run.py imports workloads by name
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_fixed_input_rows_cover_every_workload(monkeypatch, tmp_path):
    run = load_run(monkeypatch)
    assert len(run.WORKLOADS) == 4
    for name, workload in run.WORKLOADS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(workload["config"]))
        rows = run.fixed_input_rows(cellhom, cli.parse_config(path), 0)
        assert set(rows) == {"models.kernel_us", "solver.vag_ms",
                             "solver.energy_only_ms"}, name
        assert all(v > 0 for v in rows.values()), name
