"""List the criterion-1 step instances on which ``solve_step`` diverges.

    python3 lurebench/diverging.py --seed 1 --count 20000

Draws the ``oracle_sweep`` instance stream without its margin filter (the
full criterion-1 family) and prints, for every draw that raises a luresim
error, its index, m, D rank, M's margin and the error. ``oracle_sweep``
keeps only draws with margin at least ``wl_oracle.MIN_MARGIN``; this script
shows what that filter leaves out. Exits 1 when any draw diverged.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import wl_oracle  # noqa: E402


def margin(op):
    kappa = harness.import_luresim().select_kappa(
        np.eye(op["b"].shape[0]), op["b"], op["c"], op["d"])
    h = op["h"]
    m_mat = h / (1.0 - h * kappa) * (op["c"] @ op["b"]) + op["d"]
    eigs = np.linalg.eigvalsh(0.5 * (m_mat + m_mat.T))
    return eigs[0] / max(1.0, abs(eigs[-1]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=20000)
    args = parser.parse_args()
    harness.pin_environment()
    lu = harness.import_luresim()
    ctx = {"lu": lu}
    gen = wl_oracle.draws(lu, args.seed, 0.0, [0])
    null = harness.NullTracer()
    diverged = 0
    for _ in range(args.count):
        op = next(gen)
        try:
            wl_oracle.run(ctx, op, null)
        except lu.LureError as exc:
            diverged += 1
            print(f"draw {op['i']}: m={op['m']} rank(D+D^T)="
                  f"{np.linalg.matrix_rank(op['d'] + op['d'].T)} "
                  f"margin={margin(op):.3e} {type(exc).__name__}: {exc}")
    print(f"{diverged} of {args.count} draws diverged (seed {args.seed})")
    return int(diverged > 0)


if __name__ == "__main__":
    sys.exit(main())
