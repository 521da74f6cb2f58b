"""tffilter benchmark: one run of one workload, reported as one JSON line.

    python3 perfbench/run.py --workload ladder|cli|noise --seed N --seconds S --trace 0|1

Run from the repository root.  The work happens in ``perfbench/worker.py``
processes started with ``src`` on PYTHONPATH and the BLAS pools pinned to
``nproc`` threads before numpy loads.  With ``--trace 0`` the last line holds
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
metrics.  The lines before it print every end-to-end metric of the workload by
name and unit, the environment and the failed ops; the full result (with the
spans of a traced run) is written to ``.perfbench_work/``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORK = ".perfbench_work"
BUDGET_S = 170.0
# a run is shared by fresh worker processes, each set up on its own: setup_s is
# the median of their set-ups, and a process that starts slow (memory layout,
# CPU placement) sways only its share of the timings
WORKERS = 3

# every end-to-end metric a workload can report, with its unit
E2E_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
    "trials_per_s": "1/s",
    "cli.decompose_s": "s",
    "cli.tradeoff_s": "s",
    "cli.modes_s": "s",
    "cli.snr_s": "s",
    "cli.qkd_s": "s",
    "cli.qkd_grid_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    env["OPENBLAS_NUM_THREADS"] = nproc
    env["OMP_NUM_THREADS"] = nproc
    env.pop("TF_FILTER_THREADS", None)  # a no-op at this commit; keep it out of the runs
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_worker(args, env: dict, deadline: float, out: str, workers: int, index: int) -> dict:
    cmd = [
        sys.executable, os.path.join("perfbench", "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workers", str(workers), "--index", str(index), "--out", out,
    ]
    if os.path.exists(out):
        os.remove(out)
    cmd += ["--spawned-at", repr(time.monotonic())]
    # own process group, so that a timeout also stops the CLI processes it started
    with subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{stderr[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + BUDGET_S

    if not os.path.isfile(os.path.join("src", "tffilter", "__init__.py")):
        print("error: run from the repository root; src/tffilter is missing", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        # compile the package once, so set-up times do not depend on the bytecode cache
        subprocess.run([sys.executable, "-c", "import tffilter.cli"], env=env, check=True,
                       capture_output=True, timeout=max(1.0, deadline - time.monotonic()))
        workers = WORKERS if args.trace == 0 else 1
        results = [run_worker(args, env, deadline, os.path.join(WORK, f"{tag}.{i}.json"), workers, i)
                   for i in range(workers)]
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups = [r["setup_s"] for r in results]
    res = results[0]
    records = [rec for r in results for rec in r["records"]]
    # a command's data file must hash the same on every repeat of the run
    first: dict[str, str] = {}
    for r in records:
        digest = r["info"].get("sha256")
        if digest and first.setdefault(r["op"], digest) != digest and not r["wrong"]:
            r["wrong"] = "data file differs from an earlier repeat"
    failed = [r for r in records if r["error"] or r["wrong"]]
    wrong = [r for r in records if r["wrong"]]
    env_rec = dict(res["env"], nproc=len(os.sched_getaffinity(0)), commit=commit())
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env_rec,
              "attempted": len(records), "failed": len(failed), "wrong": len(wrong),
              "raised": sum(1 for r in records if r["error"]),
              "checked": sum(1 for r in records if r["checked"]),
              "failures": sorted({f"{r['op']}: {r['error'] or r['wrong']}" for r in failed})}
    print(f"perfbench {tag}, {len(results)} worker(s)")
    print("env: " + " ".join(f"{k}={v}" for k, v in env_rec.items()))
    if args.trace == 0:
        from stats import end_to_end  # numpy loads here, after the workers have run

        e2e, notes = end_to_end(args.workload, [r for r in records if r["group"] == "w"])
        e2e.update(setup_s=statistics.median(setups), fail_ratio=len(failed) / len(records),
                   peak_rss_mb=max(r["peak_rss_mb"] for r in results))
        report.update(metrics=e2e, notes=notes)
        print(f"  {'setup_s':16s} {e2e['setup_s']:.6g} s  (median of {len(setups)} set-ups)")
        for name, unit in E2E_UNITS.items():
            if name == "setup_s":
                continue
            if name not in e2e:
                print(f"  {name:16s} n/a ({args.workload} does not exercise it)")
                continue
            print(f"  {name:16s} {e2e[name]:.6g} {unit}{_note(name, notes)}")
        wanted = bench["end_to_end"]
    else:
        e2e = res["per_layer"]
        report.update(per_layer=e2e)
        for m in bench["per_layer"]:
            print(f"  {m['name']:28s} {e2e[m['name']]:.6g} {m['unit']}")
        wanted = bench["per_layer"]
    for line in report["failures"]:
        print(f"  failed: {line[:160]}")
    print(f"checks: {report['checked']} of {len(records)} ops checked, {len(wrong)} wrong outputs,"
          f" {len(failed)} failed")
    print("report: " + json.dumps(report))
    with open(os.path.join(WORK, f"{tag}.report.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(report, spans=res.get("spans")), fh)
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def _note(name: str, notes: dict) -> str:
    if name == "pass_s":
        return f"  (sum of per-op medians over {notes['passes']} passes)"
    if name == "op_p50_s":
        return f"  (median of {notes['op_samples']} op samples)"
    if name == "op_tail_s":
        return (f"  (p{notes['op_tail_percentile']:.1f} of {notes['op_samples']} samples,"
                f" {notes['op_tail_beyond']} beyond)")
    if name.startswith("cli."):
        return f"  (median of {notes['passes']} cold processes)"
    return ""


if __name__ == "__main__":
    sys.exit(main())
