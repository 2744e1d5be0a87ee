"""One set-up measurement: a fresh interpreter made ready for a workload.

``python3 perfbench/setup_probe.py <workload>`` imports gradpower from the
checkout's ``src``, builds every catalog model, makes one warm-up call of the
kind the workload times, prints ``ready`` and exits.  The parent times the
interval from starting this process to reading that line.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

SRC = Path.cwd() / "src"


def main(workload: str) -> int:
    sys.path.insert(0, str(SRC))
    import gradpower
    from gradpower import cli, expfam, localpower, montecarlo
    from workloads import DEFAULT_FIXED

    if Path(gradpower.__file__).resolve().parent != (SRC / "gradpower").resolve():
        print(f"gradpower imported from {gradpower.__file__}, not {SRC}", file=sys.stderr)
        return 2
    models = {name: expfam.catalog_model(name, fixed) for name, fixed in DEFAULT_FIXED.items()}
    gamma = models["gamma"]
    if workload.startswith("mc-"):
        montecarlo.simulate(montecarlo.SimulationConfig(
            model=gamma, theta0=1.0, eps=0.5, n=50, reps=16, alpha=0.05, seed=1))
    elif workload == "analytic-grid":
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(["power", "--model", "gamma", "--fixed", "k=2", "--theta0", "1",
                     "--eps", "0.5", "--n", "50", "--alpha", "0.05"])
    else:
        query = localpower.PowerQuery(model=gamma, theta0=1.0, eps=0.5, n=50, alpha=0.05)
        localpower.local_power(query, gradpower.TestKind.LR)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
