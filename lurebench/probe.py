"""Set-up probe, run in a fresh interpreter by ``run.py``.

Imports luresim, builds the workload's systems and prints one JSON line with
the time since the parent spawned this process (``--t0``, CLOCK_MONOTONIC).
With ``--split-imports`` numpy and scipy.optimize are imported first, one at
a time, so the traced run can report what ``scipy.optimize`` costs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--split-imports", action="store_true")
    args = parser.parse_args()
    harness.pin_environment()
    out = {}
    t_import = time.monotonic()
    if args.split_imports:
        import numpy  # noqa: F401

        t_np = time.monotonic()
        import scipy.optimize  # noqa: F401

        out["import_scipy_optimize_s"] = time.monotonic() - t_np
    lu = harness.import_luresim()
    out["import_luresim_s"] = time.monotonic() - t_import
    module = importlib.import_module(harness.MODULES[args.workload])
    module.build(lu, args.seed)
    out["setup_s"] = time.monotonic() - args.t0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
