"""Per-op wall time and outputs of one benchmark workload, for two source trees side by side.

Each tree runs in one long-lived worker process of its own, since a process
can import only one ``tffilter``.  ``--workload`` names the benchmark workload
whose ops the workers run:

- ``ladder``: the 12 ``decompose_filter`` calls (Gaussian BT 0.1, 0.5, 2, 5
  and 10 in both stage orders with ``keep=10``, the brick wall at BT 0.8 and 4
  with ``keep=None, max_resolution=1024``).
- ``noise``: ``run_ensemble`` of 2048 trials at N_y = 0.1 on the Gaussian BT
  0.5 filter (1024 samples, dt = 1/12) and on the brick wall at BT 2, gate
  first (1024 samples, dt = 1/121), and ``filtered_noise_correlation`` of the
  Gaussian at lags 0, 0.5 and 2.
- ``cli``: the README commands, and the qkd grid run without ``--optimize``.
  Each op is a fresh ``python -m tffilter.cli`` process, the way a user meets
  the command line: interpreter start, imports, the computation and the data
  file.

A pass runs every op once, in an order shuffled by ``--seed`` and the pass
number, each op at a seed of its own, the same on both sides.  The two trees
alternate pass by pass (which goes first swaps each time), and both run a pass
pinned to the same CPU, a pin that each ``cli`` process inherits, so a slow
spell of a shared machine hits both sides alike.  Each worker first runs one
untimed pass before any pinning, so a noise pool keeps every CPU while the
calling thread is pinned, as in the benchmark's worker.

The script prints every op's median time on each side, how many passes were
faster on the changed tree, and the sum of the medians (one pass of median
ops).  Then it prints what each side's worker reports, and exits 1 if any of
the compared entries differ:

- ``ladder``: every op's grid levels (``GridReport.resolutions``, of which
  the last two are compared), a sha256 of every op's whole ``SchmidtResult``
  (values, every mode's samples, ``total_power``, ``edge_ring_ratio``,
  ``parities`` and the last two levels), and the largest difference of a
  singular value.
- ``noise``: the worker's peak resident set (``ru_maxrss``, not compared) and a
  sha256 of every op's report at one fixed seed.
- ``cli``: the sha256 of every data file.

Only the standard library is used here; the workers need the trees' own NumPy.
Run from anywhere, with two checkouts (each holding ``src/tffilter``):

    python tools/compare.py BASE_TREE CHANGED_TREE --workload ladder   # 20 passes
    python tools/compare.py BASE_TREE CHANGED_TREE --workload cli --passes 10 --seed 3
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# A workload is a class with an op table ``OPS`` (each op's name first), a
# ``run(index, seed)`` of one op, and a ``report()`` of
# {title: [[label, shown, key], ...]}.  The printer compares the two sides'
# keys; a key of None is shown only, and a row that shows None holds lists of
# numbers in its key, printed as their largest difference.


def sha256(*chunks: bytes) -> str:
    return hashlib.sha256(b"".join(chunks)).hexdigest()


class Ladder:
    # (name, family, BT, order, keep, max_resolution)
    OPS = [(f"gaussian_bt{bt:g}_{order}", "gaussian", bt, order, 10, 4096)
           for bt in (0.1, 0.5, 2.0, 5.0, 10.0) for order in ("frequency_first", "time_first")]
    OPS += [(f"rectangular_bt{bt:g}", "rectangular", bt, "frequency_first", None, 1024) for bt in (0.8, 4.0)]

    def __init__(self):
        import tffilter

        self.tf = tffilter

    def run(self, index: int, seed: int):
        _, family, bt, order, keep, max_resolution = self.OPS[index]
        make = self.tf.gaussian_sif if family == "gaussian" else self.tf.rectangular_sif
        spec = make(bt, 1.0, self.tf.StageOrder[order.upper()])
        return self.tf.decompose_filter(spec, keep=keep, max_resolution=max_resolution)

    def report(self) -> dict:
        names = [name for name, *_ in self.OPS]
        results = [self.run(index, 0) for index in range(len(names))]
        levels = [r.grid_report.resolutions for r in results]
        digests = [
            sha256(json.dumps([r.total_power, r.grid_report.edge_ring_ratio, r.parities, grid[-2:]]).encode(),
                   r.singular_values.tobytes(), *(mode.values.tobytes() for mode in r.input_modes + r.output_modes))
            for r, grid in zip(results, levels)
        ]
        every = sha256(*(d.encode() for d in digests))
        return {
            "grid levels of each op (the last two compared)": [[n, str(g), g[-2:]] for n, g in zip(names, levels)],
            "sha256 of each op's SchmidtResult": [*([n, d[:16], d] for n, d in zip(names, digests)),
                                                  ["every op", every, every]],
            "singular values": [["largest |difference| of a singular value", None,
                                 [r.singular_values.tolist() for r in results]]],
        }


class Noise:
    OPS = [("ensemble_gaussian",), ("ensemble_rectangular",), ("correlation_gaussian",)]
    NOISE_PSD, TRIALS, DIGEST_SEED = 0.1, 2048, 12345

    def __init__(self):
        import numpy
        import tffilter as tf

        self.np, self.tf = numpy, tf
        self.gauss = tf.gaussian_sif(0.5, 1.0)
        g_axis = tf.centered_axis(1.0 / 12.0, 1024, tf.Domain.TIME)
        self.g_mode = tf.hermite_gaussian_mode_set(self.gauss, g_axis, 1, "input")[0].normalized()
        self.rect = tf.rectangular_sif(2.0, 1.0, tf.StageOrder.TIME_FIRST)
        r_axis = tf.centered_axis(1.0 / 121.0, 1024, tf.Domain.TIME)
        self.r_mode = tf.rectangular_filter_modes(self.rect, r_axis, 1, "input")[0].normalized()

    def run(self, index: int, seed: int):
        name, tf = self.OPS[index][0], self.tf
        if name == "correlation_gaussian":
            lags = self.np.array([0.0, 0.5, 2.0])
            return tf.filtered_noise_correlation(self.gauss, self.NOISE_PSD, self.TRIALS, lags, seed=seed)
        spec, mode = (self.gauss, self.g_mode) if name == "ensemble_gaussian" else (self.rect, self.r_mode)
        return tf.run_ensemble(tf.NoiseEnsembleConfig(self.NOISE_PSD, 1.0, mode, self.TRIALS, seed), spec)

    def report(self) -> dict:
        import resource

        digests = []
        for index in range(len(self.OPS)):
            result = self.run(index, self.DIGEST_SEED)
            if isinstance(result, self.tf.EnergyReport):
                digests.append(sha256(json.dumps(result.as_dict(), sort_keys=True).encode()))
            else:
                fields = ("times", "lags", "empirical", "analytic", "stderr")
                digests.append(sha256(*(self.np.ascontiguousarray(getattr(result, f)).tobytes() for f in fields)))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "peak resident set of the worker": [["ru_maxrss", f"{rss:.2f} MB", None]],
            f"sha256 of each op's report at seed {self.DIGEST_SEED}": [
                [name, d[:16], d] for (name,), d in zip(self.OPS, digests)
            ],
        }


class Cli:
    # the README commands, and the qkd grid run without --optimize (name, command, data file suffix)
    OPS = [
        ("decompose", "decompose --filter gaussian --bt 0.5 --n-modes 10", ".csv"),
        ("tradeoff", "tradeoff --filter slepian --bt-min 0.01 --bt-max 10 --points 80", ".csv"),
        ("modes", "modes --filter slepian --c 3.0 --mode 0", ".csv"),
        ("snr", "snr --filter gaussian --bt 0.5 --trials 10000 --seed 7", ".json"),
        ("qkd", "qkd --filter all --ny-min 1e-4 --ny-max 1 --points 50 --optimize", ".csv"),
        ("qkd_grid", "qkd --filter all --ny-min 1e-4 --ny-max 1 --points 50", ".csv"),
    ]

    def __init__(self):
        self.out = Path.cwd()  # the worker's own scratch directory

    def run(self, index: int, seed: int):
        name, command, suffix = self.OPS[index]
        argv = [sys.executable, "-m", "tffilter.cli", *command.split(), "--out", str(self.out / (name + suffix))]
        subprocess.run(argv, stdout=subprocess.DEVNULL, check=True, timeout=300)  # stderr is the worker's

    def report(self) -> dict:
        files = [name + suffix for name, _, suffix in self.OPS]
        digests = [sha256((self.out / file).read_bytes()) for file in files]
        return {"sha256 of the data files": [[file, d, d] for file, d in zip(files, digests)]}


WORKLOADS = {"ladder": Ladder, "noise": Noise, "cli": Cli}


def worker(name: str) -> None:
    """Answer one JSON request per stdin line: ``{"cpus": [...], "order": [...],
    "seeds": [...]}`` times those ops on those CPUs, each at its seed; ``{}``
    returns the workload's report.  Each op of the workload runs in this
    process's own scratch directory."""
    with tempfile.TemporaryDirectory(prefix="compare.") as scratch:
        os.chdir(scratch)
        workload = WORKLOADS[name]()
        for line in sys.stdin:
            request = json.loads(line)
            if not request:
                reply = workload.report()
            else:
                os.sched_setaffinity(0, request["cpus"])
                reply = []
                for index, seed in zip(request["order"], request["seeds"]):
                    start = time.perf_counter()
                    workload.run(index, seed)
                    reply.append(time.perf_counter() - start)
            print(json.dumps(reply), flush=True)


def start_worker(tree: Path, workload: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, __file__, "--worker", workload]
    return subprocess.Popen(argv, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def ask(proc: subprocess.Popen, request: dict):
    proc.stdin.write(json.dumps(request) + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"worker exited {proc.wait()}")
    return json.loads(line)


def max_difference(base: list[list[float]], changed: list[list[float]]) -> float:
    if any(len(a) != len(b) for a, b in zip(base, changed)):
        return float("inf")
    return max((abs(x - y) for a, b in zip(base, changed) for x, y in zip(a, b)), default=0.0)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="checkout to compare against")
    ap.add_argument("changed", type=Path, help="checkout with the change")
    ap.add_argument("--workload", required=True, choices=WORKLOADS, help="the benchmark workload to run")
    ap.add_argument("--passes", type=int, default=20, help="timed passes per tree (default 20)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the op orders and op seeds (default 1)")
    args = ap.parse_args(argv)
    trees = {"base": args.base.resolve(), "changed": args.changed.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "tffilter" / "__init__.py").is_file():
            ap.error(f"{tree} holds no src/tffilter")
    if args.passes < 1:
        ap.error("--passes must be >= 1")

    names = [name for name, *_ in WORKLOADS[args.workload].OPS]
    cpus = sorted(os.sched_getaffinity(0))
    times = {side: [[] for _ in names] for side in trees}
    workers = {side: start_worker(tree, args.workload) for side, tree in trees.items()}
    try:
        for proc in workers.values():  # the untimed pass, on every CPU
            ask(proc, {"cpus": cpus, "order": list(range(len(names))), "seeds": [0] * len(names)})
        for k in range(args.passes):
            shuffle = random.Random(args.seed * 1_000_003 + k)
            order = list(range(len(names)))
            shuffle.shuffle(order)
            seeds = [shuffle.randrange(2**32) for _ in names]
            request = {"cpus": [cpus[k % len(cpus)]], "order": order, "seeds": seeds}
            for side in list(trees) if k % 2 == 0 else list(reversed(trees)):
                for index, s in zip(order, ask(workers[side], request)):
                    times[side][index].append(s)
        reports = {side: ask(proc, {}) for side, proc in workers.items()}
    finally:
        for proc in workers.values():
            proc.stdin.close()
            proc.wait()

    width = max(map(len, names)) + 5
    print(f"{args.workload}: median of {args.passes} passes per op, in ms (seed {args.seed})")
    print(f"{'op':<{width}} {'base':>9} {'changed':>9} {'change':>8} {'lower':>7}")
    totals = {side: 0.0 for side in trees}
    for index, name in enumerate(names):
        med = {side: statistics.median(times[side][index]) for side in trees}
        for side in trees:
            totals[side] += med[side]
        lower = sum(c < b for b, c in zip(times["base"][index], times["changed"][index]))
        print(f"{name:<{width}} {1e3 * med['base']:9.3f} {1e3 * med['changed']:9.3f} "
              f"{med['changed'] / med['base'] - 1:+8.1%} {lower:>3}/{args.passes}")
    print(f"{'sum':<{width}} {1e3 * totals['base']:9.3f} {1e3 * totals['changed']:9.3f} "
          f"{totals['changed'] / totals['base'] - 1:+8.1%}")
    same = True
    for title, rows in reports["base"].items():
        print(f"{title}:")
        for (label, b, key), (_, c, changed_key) in zip(rows, reports["changed"][title]):
            same &= key == changed_key
            if b is None:
                print(f"  {label}: {max_difference(key, changed_key):.3g}")
            else:
                verdict = "" if key is None else "same" if key == changed_key else "DIFFERENT"
                print(f"  {label:<{width}} base {b}  changed {c}  {verdict}".rstrip())
    return 0 if same else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2])
    else:
        sys.exit(main())
