"""Steadiness check: two sets of benchmark runs on the same code.

Run from the repository root:

    python3 perfbench/steady.py --runs 10            # every workload
    python3 perfbench/steady.py --runs 5 --sets 1 --workloads taxi_soft

Each set runs every chosen workload once per seed (seeds 1..runs, the
same in every set) with tracing off. Per workload and end-to-end metric
it prints each set's median, its spread (distance between the first and
third quartile as a share of the median) and whether the spread and the
second set's median stay within the metric's bound from BENCHMARK.json.
Exits 1 when any check fails. Raw results go to ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    """One benchmark process; returns its result line plus the
    ``context`` and ``extra`` lines it printed before it."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    out = json.loads(lines[-1])
    for line in lines[:-1]:
        head, _, body = line.partition(" ")
        if head in ("context", "extra"):
            out[head] = json.loads(body)
    out["wall_s"] = time.perf_counter() - t0
    return out


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which ``second`` is worse than ``first`` (negative: better)."""
    return ((second - first) if better == "lower" else (first - second)) / first


def main(argv=None) -> int:
    root = Path.cwd()
    spec = load_spec(root)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per set")
    ap.add_argument("--sets", type=int, choices=(1, 2), default=2)
    ap.add_argument("--workloads", nargs="*", default=names, choices=names)
    args = ap.parse_args(argv)

    sets: list[dict[str, list[dict]]] = []
    for k in range(args.sets):
        results: dict[str, list[dict]] = {}
        for w in args.workloads:
            for seed in range(1, args.runs + 1):
                r = run_once(spec, w, seed, trace=0)
                results.setdefault(w, []).append(r)
                vals = " ".join(f"{m}={v['value']:.4g}" for m, v in r["metrics"].items())
                print(f"set {k + 1} {w} seed {seed}: {vals} wall={r['wall_s']:.1f}s",
                      flush=True)
        sets.append(results)
    out = root / ".perfbench" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(sets, indent=1))

    ok = True
    print(f"\n{'workload':<14}{'metric':<13}{'bound':>6}  per set: median spread"
          f"{'':>4}second vs first")
    for w in args.workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, medians = [], []
            for results in sets:
                vals = [r["metrics"][name]["value"] for r in results[w]]
                s = spread(vals)
                medians.append(statistics.median(vals))
                flag = "" if s <= bound else "!"
                ok &= not flag
                cells.append(f"{medians[-1]:>9.4g} {s:>6.3f}{flag:<1}")
            line = f"{w:<14}{name:<13}{bound:>6}  " + "  ".join(cells)
            if len(medians) == 2:
                d = worse_by(medians[0], medians[1], m["better"])
                verdict = "ok" if d <= bound else "WORSE"
                ok &= verdict == "ok"
                line += f"  {d:+.3f} {verdict}"
            print(line)
        failed = sum(r["failed"] for results in sets for r in results[w])
        print(f"{w:<14}{'failed':<13}{failed:>6} of "
              f"{sum(r['attempted'] for results in sets for r in results[w])} passes")
        ok &= failed == 0
    print(f"raw results: {out.relative_to(root)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
