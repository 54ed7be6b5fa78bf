"""Steadiness self-check: two sets of runs of the same code must agree.

Usage (from the root of the checkout)::

    python3 perfbench/selfcheck.py --runs 10
    python3 perfbench/selfcheck.py --runs 10 --first-seed 101
    python3 perfbench/selfcheck.py --runs 3 --seconds 5 --smoke

Runs ``perfbench/run.py`` ``--runs`` times per workload (seeds
``--first-seed`` onwards) for set A and again for set B, alternating A
and B run by run.  For every end-to-end metric and workload it prints each set's
median and quartiles, the spread (quartile distance over median), and
two verdicts against the bound ``BENCHMARK.json`` fixes:

* ``spread`` — each set's spread is within the bound;
* ``agree`` — the second median differs from the first by at most the
  bound.

It also checks that every run passed its output checks, that each
workload built one tree per seed in both sets, and that twin workloads
built the same tree for every seed.  Raw per-run results, per-job
samples included, go to ``--out``.  Exit status 0 means every row is
within its bound and every check passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import FULL, SMOKE  # noqa: E402


def one_run(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ] + (["--smoke"] if smoke else [])
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    out = {"workload": workload, "seed": seed, "returncode": proc.returncode}
    out["wall_s"] = time.monotonic() - started
    try:
        out["result"] = json.loads(lines[-1])
        out["detail"] = json.loads(lines[-2])["detail"]
    except (IndexError, KeyError, json.JSONDecodeError):
        out["result"] = None
        out["stderr"] = proc.stderr[-2000:]
    return out


def collect(workloads, seeds, seconds: float, smoke: bool) -> list:
    """Sets A and B: every workload once per seed, A and B runs alternating.

    Alternating keeps both sets in the same stretch of host time, so a
    slow drift of the host's speed shifts both alike instead of showing
    up as disagreement between identical code.
    """
    sets = ([], [])
    for workload in workloads:
        for seed in seeds:
            for label, runs in zip("AB", sets):
                run = one_run(workload, seed, seconds, smoke)
                runs.append(run)
                res = run["result"] or {}
                print(
                    f"set {label} {workload} seed {seed}: rc={run['returncode']} "
                    f"correct={res.get('correct')} wall={run['wall_s']:.1f}s "
                    + " ".join(f"{k}={v['value']:.4g}" for k, v in res.get("metrics", {}).items()),
                    flush=True,
                )
    return list(sets)


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--first-seed", type=int, default=1, help="seed of each set's first run")
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=".bench_build/perfbench/selfcheck.json")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    table = SMOKE if args.smoke else FULL
    workloads = list(table)
    sets = collect(workloads, seeds, seconds, args.smoke)

    ok = True
    rows = []
    print()
    print(f"{'workload':<26} {'metric':<24} {'set':<3} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7}  bound  verdict")
    for workload in workloads:
        for name, bound in bounds.items():
            stats = []
            for runs in sets:
                values = [
                    r["result"]["metrics"][name]["value"]
                    for r in runs
                    if r["workload"] == workload and r["result"] and name in r["result"]["metrics"]
                ]
                stats.append(summarize(values) if len(values) >= 2 else None)
            if None in stats:
                print(f"{workload:<26} {name:<24} too few successful runs")
                ok = False
                continue
            a, b = stats
            shift = (b["median"] - a["median"]) / a["median"]
            spread_ok = max(a["spread"], b["spread"]) <= bound
            agree = abs(shift) <= bound
            ok &= spread_ok and agree
            verdict = f"spread={'ok' if spread_ok else 'WIDE'} shift={shift:+.2%} agree={'yes' if agree else 'NO'}"
            for label, s in zip("AB", stats):
                print(
                    f"{workload:<26} {name:<24} {label:<3} {s['median']:>10.4f} "
                    f"{s['q1']:>10.4f} {s['q3']:>10.4f} {s['spread']:>7.2%}  {bound:<5}  "
                    + (verdict if label == "B" else "")
                )
            rows.append({"workload": workload, "metric": name, "bound": bound, "A": a, "B": b, "shift": shift, "spread_ok": spread_ok, "agree": agree})

    incorrect = [
        (r["workload"], r["seed"]) for runs in sets for r in runs if not (r["result"] or {}).get("correct")
    ]
    print()
    print(f"runs: {sum(len(s) for s in sets)}, incorrect: {incorrect or 'none'}")
    ok &= not incorrect

    # Trees per workload and seed, over both sets: the same code and seed
    # must build one tree, and a twin workload must build the same one.
    trees = {}
    for runs in sets:
        for r in runs:
            if r.get("detail"):
                trees.setdefault((r["workload"], r["seed"]), set()).update(r["detail"]["twin"]["digests"])
    for seed in seeds:
        for workload in workloads:
            found = trees.get((workload, seed), set())
            twin = table[workload].twin
            same = len(found) == 1 and (twin is None or trees.get((twin, seed)) == found)
            ok &= same
            if not same or twin is not None:
                label = f"{workload} vs {twin}" if twin else workload
                print(f"tree digest {label}, seed {seed}: {'identical' if same else 'DIFFERENT'}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "seeds": seeds, "smoke": args.smoke, "rows": rows, "sets": sets}, indent=1))
    print(f"raw samples written to {out}")
    print("SELF-CHECK " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
