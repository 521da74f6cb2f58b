"""Per-op wall time, outputs and accuracy of one benchmark workload, for two source trees side by side.

Each tree runs in one long-lived worker process of its own, since a process
can import only one ``tffilter``.  ``--workload`` names the benchmark workload
whose ops the workers run: ``WORKLOADS[name](seed)`` of ``perfbench/worker.py``
in this checkout, which says what each op runs and how its result is checked.
So both sides run the same op table against their own ``src``.  Each worker
puts that ``perfbench/`` on its path after the tree's ``src``, runs in a
scratch directory of its own (the ``cli`` data files go there) and first sends
the names of its ops; the two sides must name the same ops.

A pass runs every op once, in an order shuffled by ``--seed`` and the pass
number, on a workload built at ``--seed``, the same on both sides.  The two
trees alternate pass by pass (which goes first swaps each time), and both run
a pass pinned to the same CPU, a pin that each ``cli`` process inherits, so a
slow spell of a shared machine hits both sides alike.  Each worker first runs
one untimed pass before any pinning, so a noise pool keeps every CPU while the
calling thread is pinned, as in the benchmark's worker.

The script prints every op's median time on each side, how many passes were
faster on the changed tree, and the sum of the medians (one pass of median
ops).  Then it prints what each side's worker reports from one fresh workload
built at ``DIGEST_SEED``, and exits 1 if any of the compared entries differ:

- the worker's peak resident set (``ru_maxrss``, shown only);
- each op's ``op.check(result)`` verdict, and each of the workload's
  ``replay_checks()`` if it has them ("ok" when the check passes);
- a sha256 of each op's result, and one over all ops.  A data file is hashed
  by its bytes, an ``EnergyReport`` by its fields, a ``CorrelationSurface`` by
  its arrays and a ``SchmidtResult`` whole: values, every mode's samples,
  ``total_power``, ``edge_ring_ratio``, ``parities`` and the last two levels;
- for ``SchmidtResult`` ops, their grid levels (``GridReport.resolutions``,
  of which the last two are compared), and the largest difference of a
  singular value.

Only the standard library is used here; the workers need the trees' own NumPy
and the benchmark's SciPy.  Run from anywhere, with two checkouts (each
holding ``src/tffilter``):

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

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("ladder", "noise", "cli")  # the keys of perfbench's WORKLOADS
DIGEST_SEED = 12345  # the seed of the workload whose results are digested and checked

# A report is {title: [[label, shown, key], ...]}.  The printer compares the
# two sides' keys; a key of None is shown only, and a row that shows None
# holds lists of numbers in its key, printed as their largest difference.


def sha256(*chunks: bytes) -> str:
    return hashlib.sha256(b"".join(chunks)).hexdigest()


def digest(result) -> str:
    """sha256 of one op's result: a data file's path, an ``EnergyReport``, a
    ``CorrelationSurface`` or a ``SchmidtResult``."""
    import numpy as np
    import tffilter as tf

    if isinstance(result, str):
        return sha256(Path(result).read_bytes())
    if isinstance(result, tf.EnergyReport):
        return sha256(json.dumps(result.as_dict(), sort_keys=True).encode())
    if isinstance(result, tf.CorrelationSurface):
        fields = ("times", "lags", "empirical", "analytic", "stderr")
        return sha256(*(np.ascontiguousarray(getattr(result, f)).tobytes() for f in fields))
    grid = result.grid_report.resolutions
    return sha256(json.dumps([result.total_power, result.grid_report.edge_ring_ratio, result.parities,
                              grid[-2:]]).encode(), result.singular_values.tobytes(),
                  *(mode.values.tobytes() for mode in result.input_modes + result.output_modes))


def report(fresh) -> dict:
    """The rows of a fresh workload's ops, each run once in table order."""
    import resource

    import tffilter as tf

    names = [op.name for op in fresh.ops]
    results = [op.run(op.name) for op in fresh.ops]
    replays = getattr(fresh, "replay_checks", list)()
    checks = [op.check(r) for op, r in zip(fresh.ops, results)] + replays
    digests = [digest(r) for r in results]
    every = sha256(*(d.encode() for d in digests))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = {
        "peak resident set of the worker": [["ru_maxrss", f"{rss:.2f} MB", None]],
        f"accuracy checks at seed {DIGEST_SEED}": [
            [label, verdict or "ok", verdict or "ok"]
            for label, verdict in zip(names + [f"replay {i}" for i in range(len(replays))], checks)
        ],
        f"sha256 of each op's result at seed {DIGEST_SEED}": [*([n, d[:16], d] for n, d in zip(names, digests)),
                                                              ["every op", every, every]],
    }
    ladders = [(n, r) for n, r in zip(names, results) if isinstance(r, tf.SchmidtResult)]
    if ladders:
        levels = [(n, r.grid_report.resolutions) for n, r in ladders]
        rows["grid levels of each op (the last two compared)"] = [[n, str(g), g[-2:]] for n, g in levels]
        rows["singular values"] = [["largest |difference| of a singular value", None,
                                    [r.singular_values.tolist() for _, r in ladders]]]
    return rows


def serve(name: str, seed: int) -> None:
    """Send the op names of ``WORKLOADS[name](seed)``, then answer one JSON
    request per stdin line: ``{"cpus": [...], "order": [...]}`` times those
    ops on those CPUs; ``{}`` returns the report of a workload built at
    ``DIGEST_SEED``."""
    sys.path.insert(2, str(PERFBENCH))  # after this script's directory and the tree's src
    with tempfile.TemporaryDirectory(prefix="compare.") as scratch:
        os.chdir(scratch)
        from worker import WORKLOADS as BENCHMARK

        workload = BENCHMARK[name](seed)
        print(json.dumps([op.name for op in workload.ops]), flush=True)
        for line in sys.stdin:
            request = json.loads(line)
            if not request:
                reply = report(BENCHMARK[name](DIGEST_SEED))
            else:
                os.sched_setaffinity(0, request["cpus"])
                reply = []
                for index in request["order"]:
                    op = workload.ops[index]
                    start = time.perf_counter()
                    op.run(op.name)
                    reply.append(time.perf_counter() - start)
            print(json.dumps(reply), flush=True)


def start_worker(tree: Path, workload: str, seed: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, __file__, "--worker", workload, str(seed)]
    return subprocess.Popen(argv, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def reply(proc: subprocess.Popen):
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"worker exited {proc.wait()}")
    return json.loads(line)


def ask(proc: subprocess.Popen, request: dict):
    proc.stdin.write(json.dumps(request) + "\n")
    proc.stdin.flush()
    return reply(proc)


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
    ap.add_argument("--seed", type=int, default=1, help="seed of the workload and of the op orders (default 1)")
    args = ap.parse_args(argv)
    trees = {"base": args.base.resolve(), "changed": args.changed.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "tffilter" / "__init__.py").is_file():
            ap.error(f"{tree} holds no src/tffilter")
    if args.passes < 1:
        ap.error("--passes must be >= 1")

    cpus = sorted(os.sched_getaffinity(0))
    workers = {side: start_worker(tree, args.workload, args.seed) for side, tree in trees.items()}
    try:
        names = reply(workers["base"])
        if reply(workers["changed"]) != names:
            ap.error("the two trees name other ops")
        times = {side: [[] for _ in names] for side in trees}
        for proc in workers.values():  # the untimed pass, on every CPU
            ask(proc, {"cpus": cpus, "order": list(range(len(names)))})
        for k in range(args.passes):
            order = list(range(len(names)))
            random.Random(args.seed * 1_000_003 + k).shuffle(order)
            request = {"cpus": [cpus[k % len(cpus)]], "order": order}
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
        serve(sys.argv[2], int(sys.argv[3]))
    else:
        sys.exit(main())
