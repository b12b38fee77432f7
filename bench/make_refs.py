"""Record the f_N references that ``run.py`` compares against.

    python3 bench/make_refs.py

Runs every workload's config once per program seed 0..31 and writes each
cell problem's f_N to ``bench/refs.json``.  Run it at the commit whose
energies are the reference, and only when a workload's config changes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import OUT, REF_SEEDS, REFS, ROOT, SRC, parse_results, row_M, write_config
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(SRC))
    import cellhom.cli as cli

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    table = {}
    for name, spec in WORKLOADS.items():
        config_path = write_config(name, full=False)
        out_dir = OUT / name / "refs"
        order = [tuple(M) for M in spec["config"]["M"]]
        table[name] = {}
        for seed in range(REF_SEEDS):
            os.environ["CELLHOM_SEED"] = str(seed)
            if cli.run(cli.parse_config(config_path), out_dir=str(out_dir)) != 0:
                raise RuntimeError(f"{name} seed {seed}: cli.run failed")
            rows = parse_results((out_dir / "results.csv").read_text())
            table[name][str(seed)] = [[order.index(row_M(r)), int(r["N"]), float(r["f_N"])]
                                      for r in rows]
            print(name, seed, flush=True)
    REFS.write_text(json.dumps({"commit": commit, "seeds": REF_SEEDS,
                                "workloads": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
