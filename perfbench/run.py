#!/usr/bin/env python3
"""The repo benchmark: one workload per invocation, checked and measured.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-fixed-weights --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then traced, replays the
recorded operations through each layer's public functions, prints the
per-layer span table and reports the per-layer metrics. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Human-readable lines (host readings, the
span table) come before it. Spans and the server run table are written
under ``.bench_work/`` in the checkout.

Exit codes: 0 measured, 1 the run failed (a program fault, a leaked
process or segment), 2 usage error or not a checkout of this repo.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

WORKLOADS = ("serve-fixed-weights", "offline-bitlevel")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the root of a checkout of the repo "
              "(src/repro and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    import hostenv

    hostenv.pin_this_process()
    hostenv.adopt_orphans()
    sys.path.insert(1, str(root / "src"))
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    try:
        if args.workload == "offline-bitlevel":
            import bitlevel

            result, lines = bitlevel.run(args.seed, args.seconds, bool(args.trace), root, work)
        else:
            import serving

            result, lines = serving.run(args.workload, args.seed, args.seconds,
                                        bool(args.trace), root, work)
    except Exception:  # the boundary: report the failure, print no result
        traceback.print_exc()
        return 1
    finally:
        # Nothing this run started may outlive it, on any path out.
        killed = hostenv.reap_children()
    if killed:
        print(f"perfbench: processes still running at the end were killed: {killed}",
              file=sys.stderr)
        return 1
    got = result["metrics"]
    names = {m["name"] for m in wanted}
    if set(got) - names or (not args.trace and names - set(got)):
        print(f"perfbench: measured {sorted(got)}, BENCHMARK.json names {sorted(names)}",
              file=sys.stderr)
        return 1
    # A layer that a workload never reaches reads 0 in its table (see README).
    result["metrics"] = {m["name"]: {"value": float(got.get(m["name"], 0.0)),
                                     "unit": m["unit"]} for m in wanted}
    for line in lines:
        print(line)
    if hostenv.FORCED_STOPS:
        print(f"perfbench: {len(hostenv.FORCED_STOPS)} program(s) did not exit within "
              f"{hostenv.STOP_S:.0f}s of their stop and were killed: "
              f"{', '.join(hostenv.FORCED_STOPS)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
