"""End-to-end benchmark of ``repro optimize``, run from a source checkout.

Usage (from the root of the checkout)::

    python3 perfbench/run.py --workload cls1_global_local --seed 1 \
        --seconds 40 --trace 0
    python3 perfbench/run.py --workload cls1_global_local_pool2 --seed 1 --seconds 5 \
        --trace 1 --smoke

One run is a closed loop of optimize jobs, each in a fresh process
(``perfbench/job.py``), started one after the other while the next one,
if it takes as long as the last, would end less than half a job past
``--seconds``, so runs last ``--seconds`` on average (at least one job;
two with ``--trace 1``, one traced and one untraced).  ``--seed`` seeds
the predictor's training set, the only input of a job that takes one;
the same seed gives the same trees.  The first job of an untraced run
also scores the workload's ``quality_samples - 1`` extra predictors,
trained on seeds derived from ``--seed``, after its timed flow.  Every
job's output is checked (see ``job.py``), and the pooled workload's
tree must equal its serial twin's for the same seed.
A traced run of the pooled workload also runs the serial twin and
compares the two trees directly; untraced runs compare against the
twin's digest when a run of the twin in the same checkout recorded one
in ``.bench_build/perfbench/digests.json``, and otherwise report the
comparison as ``unchecked`` in ``detail.twin.status``.

With ``--trace 0`` the result reports the end-to-end metrics as medians
over the jobs, except ``variation_reduction_pct``, the median over the
first job's predictors; with ``--trace 1`` it reports the per-layer
metrics of one traced job.  The last stdout line is the result object;
the line before it holds the raw per-job samples and the environment
record.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import BLAS_THREADS, FULL, SMOKE  # noqa: E402

#: Hard ceiling on one run, below the 180 s a run may take.
RUN_LIMIT_S = 170.0
STATE_DIR = Path(".bench_build") / "perfbench"


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources (the checkout has no git history)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(root: Path, workload) -> dict:
    nproc = len(os.sched_getaffinity(0))
    env = {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "workers": workload.workers,
        "thread_budget": workload.workers * BLAS_THREADS,
        "thread_budget_ok": workload.workers * BLAS_THREADS <= nproc,
        "pool_backend": None,  # the program's default, when a pool runs
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
    }
    if workload.workers > 1:
        from repro.core.framework import GlobalOptConfig

        env["pool_backend"] = GlobalOptConfig().pool_backend
    return env


def job_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_job(
    root: Path, workload, seed: int, trace: bool, timeout: float, samples: int = 1
) -> dict:
    """One optimize job in a fresh interpreter; its JSON result or an error."""
    cmd = [
        sys.executable,
        str(HERE / "job.py"),
        "--workload",
        json.dumps(workload.to_dict()),
        "--seed",
        str(seed),
        "--trace",
        str(int(trace)),
        "--quality-samples",
        str(samples),
        "--spawned",
        repr(time.monotonic()),
    ]
    # Its own session, so a job that overruns is killed with its workers.
    proc = subprocess.Popen(
        cmd,
        cwd=root,
        env=job_env(root),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        kill_group(proc)
        return {"error": f"job exceeded {timeout:.0f} s", "traced": trace}
    except BaseException:  # SIGTERM (see main) or Ctrl-C: take the job along
        kill_group(proc)
        raise
    lines = stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"error": f"job exited {proc.returncode}: {stderr[-2000:]}"}
    out["traced"] = trace
    return out


def kill_group(proc: subprocess.Popen, wait_s: float = 10.0) -> None:
    """Kill a job's whole process group and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.communicate()
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def record_tree(workload, partners, seed: int, mode: str, source: str, digest: str) -> dict:
    """Record this run's tree digest; return the digests twins recorded.

    ``.bench_build/perfbench/digests.json`` holds one digest per workload,
    keyed by mode, source digest and seed, so trees of other sources never
    meet.  The file is locked while it is read and rewritten, so runs in
    the same checkout may overlap.
    """
    STATE_DIR.mkdir(parents=True, exist_ok=True)
    with open(STATE_DIR / "digests.json", "a+") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        handle.seek(0)
        try:
            book = json.loads(handle.read() or "{}")
        except json.JSONDecodeError:
            book = {}
        entry = book.setdefault(f"{mode}/{source[:16]}/{seed}", {})
        entry[workload.name] = digest
        handle.seek(0)
        handle.truncate()
        handle.write(json.dumps(book, indent=1, sort_keys=True))
    return {name: entry[name] for name in partners if name in entry}


def job_failure(job: dict):
    """Why a job counts as a failed operation, or ``None`` if it passed."""
    if "error" in job:
        return f"job failed: {job['error']}"
    bad = [name for name, ok in job["checks"].items() if not ok]
    return f"job failed output checks: {bad}" if bad else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the workload's MINI-sized variant (for the benchmark's tests)",
    )
    args = parser.parse_args(argv)
    started = time.monotonic()
    # A terminated run unwinds through run_job, which kills the running job.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: {root} is not a source checkout (no src/repro); run from its root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    table = SMOKE if args.smoke else FULL
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]
    mode = "smoke" if args.smoke else "full"
    trace = bool(args.trace)
    # Metric names and units come from BENCHMARK.json, the one list of them.
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    env = environment(root, workload)
    if not env["thread_budget_ok"]:
        print(
            f"warning: {workload.workers} workers x {BLAS_THREADS} BLAS threads "
            f"oversubscribe {env['nproc']} CPUs",
            file=sys.stderr,
        )

    jobs = []
    while True:
        elapsed = time.monotonic() - started
        samples = workload.quality_samples if not (trace or jobs) else 1
        job = run_job(
            root, workload, args.seed, trace and not jobs, RUN_LIMIT_S - elapsed, samples
        )
        jobs.append(job)
        job_s = time.monotonic() - started - elapsed
        untraced = [j for j in jobs if not j["traced"]]
        if "error" in job or (
            untraced and time.monotonic() - started + job_s / 2 > args.seconds
        ):
            break

    # A traced run of a workload with a serial twin also runs the twin,
    # so every traced run carries a tree comparison that can fail.  It is
    # skipped (and the comparison left unchecked) only when it would not
    # end within the run's hard ceiling.
    twin_job = None
    elapsed = time.monotonic() - started
    if trace and workload.twin and "error" not in jobs[-1] and elapsed + 1.5 * job_s < RUN_LIMIT_S:
        twin_job = run_job(root, table[workload.twin], args.seed, False, RUN_LIMIT_S - elapsed)

    failures = [job_failure(job) for job in jobs + ([twin_job] if twin_job else [])]
    # One more operation: the run's tree-identity check.  All jobs of a
    # seed must build the same tree, and so must the twin workload.
    good = [j for j in jobs if "error" not in j]
    digests = {j["digest"] for j in good}
    twin = {"status": "unchecked", "digests": sorted(digests)}
    partners = [name for name, w in table.items() if w.twin == workload.name]
    partners += [workload.twin] if workload.twin else []
    if len(digests) > 1:
        failures.append(f"jobs with one seed produced {len(digests)} different trees")
    elif digests:
        (digest,) = digests
        recorded = record_tree(workload, partners, args.seed, mode, env["source_sha256"], digest)
        if twin_job is not None and "error" not in twin_job:
            recorded[workload.twin] = twin_job["digest"]
        for name, other in recorded.items():
            twin.update(twin=name, twin_digest=other, status="match" if other == digest else "differ")
            if other != digest:
                failures.append(f"final tree differs from twin workload {name} (seed {args.seed})")
    if twin_job is not None:
        twin["job"] = twin_job
    if twin["status"] == "unchecked" and partners:
        print("note: no twin tree for this seed and these sources yet; tree identity unchecked", file=sys.stderr)
    failures = [f for f in failures if f]
    for failure in failures:
        print(failure, file=sys.stderr)

    untraced = [j for j in good if not j["traced"]]
    metrics = {}
    if trace:
        traced = [j for j in good if j["traced"]]
        if traced and untraced:
            values = dict(traced[0]["layers"])
            base = statistics.median(j["flow_s"] for j in untraced)
            values["trace_overhead_pct"] = 100.0 * (traced[0]["flow_s"] / base - 1.0)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    elif untraced:
        values = {name: statistics.median(j[name] for j in untraced) for name in units}
        values["variation_reduction_pct"] = untraced[0]["variation_reduction_pct"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    detail = {
        "workload": workload.to_dict(),
        "seed": args.seed,
        "mode": mode,
        "environment": env,
        "twin": twin,
        "jobs": jobs,
        "run_s": time.monotonic() - started,
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not failures and bool(metrics),
        "attempted": len(jobs) + (twin_job is not None) + 1,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
