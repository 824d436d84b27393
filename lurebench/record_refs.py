"""Record the cli_corpus reference outputs into refs.json.

Run from the repository root against a checkout whose outputs are the
reference (the file in the repository was recorded from commit 338a9bb):

    python3 lurebench/record_refs.py
"""

from __future__ import annotations

import json
import shutil

import harness

harness.pin_environment()
lu = harness.import_luresim()

import wl_cli  # noqa: E402  (needs the pinned environment first)


def main():
    ctx = wl_cli.build(lu, 0)
    tmp = wl_cli.open_tmp(ctx)
    refs = {"check": {}, "csv": {}}
    try:
        for unit in wl_cli.UNITS:
            for command, target in unit:
                _, proc = wl_cli.call(ctx, command, target, wl_cli.LIPDEP_X0B)
                if proc.returncode != 0:
                    raise SystemExit(f"{command} {target} exited {proc.returncode}")
                if command == "check":
                    refs["check"][target] = wl_cli.verdict_lines(proc.stdout)
                elif command == "simulate":
                    text = (tmp / f"{target}.csv").read_text(encoding="utf-8")
                    refs["csv"][target] = wl_cli.csv_summary(text)
                elif command == "simulate_plot":
                    svg = (tmp / "plot.svg").read_text(encoding="utf-8")
                    refs["svg_polylines"] = svg.count("<polyline")
                elif command == "converge":
                    refs["converge"] = proc.stdout
                elif command in ("attract", "lipdep"):
                    refs[command] = json.loads(proc.stdout)
                elif command == "perturb":
                    refs["perturb"] = json.loads(
                        (tmp / "rewritten.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(wl_cli.REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
