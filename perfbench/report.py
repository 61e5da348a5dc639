"""Print every metric of every workload for one seed.

Run from the repository root:

    python3 perfbench/report.py --seed 1

For each workload it makes one untraced and one traced run, then prints
the end-to-end metrics (the gated ones from BENCHMARK.json plus
``score_lift``, ``noise_kept_frac`` and ``failed_frac``) and every
per-layer metric of the traced run. It then checks the span tree: the
three stage spans must sum to the traced ``arda_s``, one clock reading
from before ``prepare_batches`` to after ``final_estimate``, within the
tracing overhead of that same pass (the time the tracing code itself
took). It also prints traced minus untraced ``arda_s`` for the same
seed, signed; the two come from separate processes, so that difference
includes run-to-run noise.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from steady import load_spec, run_once


def main(argv=None) -> int:
    root = Path.cwd()
    spec = load_spec(root)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*", default=names, choices=names)
    args = ap.parse_args(argv)

    ok = True
    for w in args.workloads:
        plain = run_once(spec, w, args.seed, trace=0)
        traced = run_once(spec, w, args.seed, trace=1)
        trace_file = root / ".perfbench" / f"trace-{w}-{args.seed}.json"
        layers = json.loads(trace_file.read_text())["metrics"]
        extra, ctx = plain["extra"], plain["context"]
        print(f"== {w}  seed={args.seed}  passes={plain['attempted']}  "
              f"sha={ctx['git_sha'][:12]}  master={ctx['master']}")
        for name, m in plain["metrics"].items():
            print(f"  {name:<34}{m['value']:>12.4f} {m['unit']}")
        print(f"  {'score_lift':<34}{extra['score_lift']:>12.4f} {extra['score_lift_unit']}")
        print(f"  {'noise_kept_frac':<34}{extra['noise_kept_frac']:>12.4f} fraction")
        print(f"  {'failed_frac':<34}{extra['failed_frac']:>12.4f} fraction")
        for name, value in layers.items():
            print(f"  {name:<34}{value:>12.4f}")
        traced_s, overhead = layers["arda.traced_s"], layers["trace.overhead_s"]
        stage_sum = (layers["arda.prepare_s"] + layers["arda.select_s"]
                     + layers["arda.final_s"])
        gap = traced_s - stage_sum  # time in the pass outside the stage spans
        sums_ok = 0 <= gap <= overhead
        ok &= sums_ok and plain["correct"] and traced["correct"]
        print(f"  {'traced - untraced arda_s':<34}"
              f"{traced_s - plain['metrics']['arda_s']['value']:>+12.4f} s")
        print(f"  stage spans sum {stage_sum:.4f} s vs traced arda_s "
              f"{traced_s:.4f} s: gap {gap:+.6f} s "
              f"{'within' if sums_ok else 'OUTSIDE'} the pass's tracing overhead "
              f"{overhead:.6f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
