"""Per-op wall time and peak memory of the benchmark's 3 noise ops, for two source trees side by side.

Each tree runs in one long-lived worker process of its own, since a process
can import only one ``tffilter``.  A pass runs the 3 ops of the ``noise``
workload once each, in an order shuffled by ``--seed`` and the pass number:
``run_ensemble`` of 2048 trials at N_y = 0.1 on the Gaussian BT 0.5 filter
(1024 samples, dt = 1/12) and on the brick wall at BT 2, gate first (1024
samples, dt = 1/121), and ``filtered_noise_correlation`` of the Gaussian at
lags 0, 0.5 and 2.  Each op of a pass draws from its own seed, the same on
both sides.  The two trees alternate pass by pass (which goes first swaps each
time), and both run a pass on the same CPU, so a slow spell of a shared
machine hits both sides alike.  Each worker makes its noise pool with one
untimed pass before any pinning, so the pool keeps every CPU while the calling
thread is pinned, as in the benchmark's worker.

The script prints every op's median time on each side, how many passes were
faster on the changed tree, each worker's peak resident set (``ru_maxrss``),
and a sha256 of every op's report at one fixed seed on each side.  It exits 1
if any of those digests differ.  Only the standard library is used here; the
workers need the trees' own NumPy.

Run from anywhere, with two checkouts (each holding ``src/tffilter``):

    python tools/noise_ops.py BASE_TREE CHANGED_TREE             # 20 passes
    python tools/noise_ops.py BASE_TREE CHANGED_TREE --passes 10 --seed 3
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

OPS = ("ensemble_gaussian", "ensemble_rectangular", "correlation_gaussian")
NOISE_PSD = 0.1
TRIALS = 2048
DIGEST_SEED = 12345


def worker() -> None:
    """Answer one JSON request per stdin line: ``{"cpu": c, "order": [...],
    "seeds": [...]}`` times those ops on CPU c, each at its seed;
    ``{"digests": true}`` returns a sha256 of every op's report at one seed;
    ``{"rss": true}`` returns this process's peak resident set in MB."""
    import hashlib
    import resource
    import time

    import numpy as np

    import tffilter as tf

    gauss = tf.gaussian_sif(0.5, 1.0)
    g_axis = tf.centered_axis(1.0 / 12.0, 1024, tf.Domain.TIME)
    g_mode = tf.hermite_gaussian_mode_set(gauss, g_axis, 1, "input")[0].normalized()
    rect = tf.rectangular_sif(2.0, 1.0, tf.StageOrder.TIME_FIRST)
    r_axis = tf.centered_axis(1.0 / 121.0, 1024, tf.Domain.TIME)
    r_mode = tf.rectangular_filter_modes(rect, r_axis, 1, "input")[0].normalized()

    def run(index: int, seed: int):
        if OPS[index] == "correlation_gaussian":
            return tf.filtered_noise_correlation(gauss, NOISE_PSD, TRIALS, np.array([0.0, 0.5, 2.0]), seed=seed)
        spec, mode = (gauss, g_mode) if OPS[index] == "ensemble_gaussian" else (rect, r_mode)
        return tf.run_ensemble(tf.NoiseEnsembleConfig(NOISE_PSD, 1.0, mode, TRIALS, seed), spec)

    def digest(report) -> str:
        h = hashlib.sha256()
        if isinstance(report, tf.EnergyReport):
            h.update(json.dumps(report.as_dict(), sort_keys=True).encode())
        else:
            for field in ("times", "lags", "empirical", "analytic", "stderr"):
                h.update(np.ascontiguousarray(getattr(report, field)).tobytes())
        return h.hexdigest()

    for index in range(len(OPS)):  # makes the pool while this thread may use every CPU
        run(index, 0)
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("digests"):
            reply = [digest(run(i, DIGEST_SEED)) for i in range(len(OPS))]
        elif request.get("rss"):
            reply = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            os.sched_setaffinity(0, {request["cpu"]})
            reply = []
            for index, seed in zip(request["order"], request["seeds"]):
                start = time.perf_counter()
                run(index, seed)
                reply.append(time.perf_counter() - start)
        print(json.dumps(reply), flush=True)


def start_worker(tree: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.Popen(
        [sys.executable, __file__, "--worker"], env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True,
    )


def ask(proc: subprocess.Popen, request: dict):
    proc.stdin.write(json.dumps(request) + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"worker exited {proc.wait()}")
    return json.loads(line)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="checkout to compare against")
    ap.add_argument("changed", type=Path, help="checkout with the change")
    ap.add_argument("--passes", type=int, default=20, help="timed passes per tree (default 20)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the op orders and noise seeds (default 1)")
    args = ap.parse_args(argv)
    trees = {"base": args.base.resolve(), "changed": args.changed.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "tffilter" / "__init__.py").is_file():
            ap.error(f"{tree} holds no src/tffilter")
    if args.passes < 1:
        ap.error("--passes must be >= 1")

    cpus = sorted(os.sched_getaffinity(0))
    times = {side: [[] for _ in OPS] for side in trees}
    workers = {side: start_worker(tree) for side, tree in trees.items()}
    try:
        for k in range(args.passes):
            shuffle = random.Random(args.seed * 1_000_003 + k)
            order = list(range(len(OPS)))
            shuffle.shuffle(order)
            seeds = [shuffle.randrange(2**32) for _ in OPS]
            sides = list(trees) if k % 2 == 0 else list(reversed(trees))
            for side in sides:
                request = {"cpu": cpus[k % len(cpus)], "order": order, "seeds": seeds}
                for index, s in zip(order, ask(workers[side], request)):
                    times[side][index].append(s)
        digests = {side: ask(proc, {"digests": True}) for side, proc in workers.items()}
        rss = {side: ask(proc, {"rss": True}) for side, proc in workers.items()}
    finally:
        for proc in workers.values():
            proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    print(f"median of {args.passes} passes per op, in ms (seed {args.seed})")
    print(f"{'op':<22} {'base':>8} {'changed':>8} {'change':>8} {'lower':>7}")
    for index, name in enumerate(OPS):
        med = {side: statistics.median(times[side][index]) for side in trees}
        lower = sum(c < b for b, c in zip(times["base"][index], times["changed"][index]))
        print(f"{name:<22} {1e3 * med['base']:8.3f} {1e3 * med['changed']:8.3f} "
              f"{med['changed'] / med['base'] - 1:+8.1%} {lower:>3}/{args.passes}")
    print(f"peak RSS of each worker: base {rss['base']:.2f} MB, changed {rss['changed']:.2f} MB")
    print(f"sha256 of each op's report at seed {DIGEST_SEED}:")
    for index, name in enumerate(OPS):
        same = "same" if digests["base"][index] == digests["changed"][index] else "DIFFERENT"
        print(f"  {name:<22} base {digests['base'][index][:16]}  changed {digests['changed'][index][:16]}  {same}")
    return 0 if digests["base"] == digests["changed"] else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        worker()
    else:
        sys.exit(main())
