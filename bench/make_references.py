"""Regenerate ``references.json``, the stored outputs the correctness gate uses.

Run from the repository root::

    python3 bench/make_references.py

Only regenerate when a change of the trajectories is intended and explained;
the benchmark compares every run against this file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import antago.engine  # noqa: E402
import antago.scenario_io  # noqa: E402
import workloads as wl  # noqa: E402


def build() -> dict:
    study = {p: wl.trajectory_reference(antago.engine.simulate(antago.scenario_io.load_preset(p)),
                                        antago.engine.CHANNELS)
             for p in wl.PRESETS}
    sweep_rows = []
    for param, preset, values in wl.sweep_commands(wl.DEFAULT_SEED):
        base = antago.scenario_io.load_preset(preset)
        sweep_rows.append([wl.scalar_sweep_row(base, param, v) for v in values])
    oracle = {p: wl.trajectory_reference(antago.engine.simulate(wl.rk4_scenario(p)),
                                         ("x", "p", "P1", "P2", "F_hat"))
              for p in ("fig2-F1", "fig2-F3")}
    _, states, H = wl.open_loop_run()
    oracle["open_loop"] = {"H": [float(h) for h in H],
                           "final_state": [float(v) for v in states[-1]]}
    return {"study": study,
            "sweep": {"seed": wl.DEFAULT_SEED, "rows": sweep_rows},
            "oracle": oracle}


if __name__ == "__main__":
    (HERE / "references.json").write_text(json.dumps(build(), indent=1) + "\n")
    print(f"wrote {HERE / 'references.json'}")
