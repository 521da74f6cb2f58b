"""Per-op wall time of the benchmark's 12 Schmidt ladders, for two source trees side by side.

Each tree runs in one long-lived worker process of its own, since a process
can import only one ``tffilter``.  A pass runs the 12 ``decompose_filter``
calls of the ``ladder`` workload (Gaussian BT 0.1, 0.5, 2, 5 and 10 in both
stage orders with ``keep=10``, the brick wall at BT 0.8 and 4 with
``keep=None, max_resolution=1024``) once each, in an order shuffled by
``--seed`` and the pass number.  The two trees alternate pass by pass (which
goes first swaps each time), and both run a pass on the same CPU, so a slow
spell of a shared machine hits both sides alike.  One untimed pass warms each
worker first.

The script prints every op's median time on each side, how many passes were
faster on the changed tree, the sum of the medians (one pass of median ops),
every op's grid levels (``GridReport.resolutions``) on each side, and then a
sha256 of every op's singular values on each side with the largest difference
between them.  It exits 1 if the digests, or any op's last two levels,
differ.  Only the standard library is used here; the workers need the trees'
own NumPy.

Run from anywhere, with two checkouts (each holding ``src/tffilter``):

    python tools/ladder_ops.py BASE_TREE CHANGED_TREE             # 20 passes
    python tools/ladder_ops.py BASE_TREE CHANGED_TREE --passes 10 --seed 3
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import struct
import subprocess
import sys
from pathlib import Path

# (name, family, BT, order, keep, max_resolution) of the ladder workload's ops
OPS = [
    *(
        (f"gaussian_bt{bt:g}_{order}", "gaussian", bt, order, 10, 4096)
        for bt in (0.1, 0.5, 2.0, 5.0, 10.0)
        for order in ("frequency_first", "time_first")
    ),
    *((f"rectangular_bt{bt:g}", "rectangular", bt, "frequency_first", None, 1024) for bt in (0.8, 4.0)),
]


def worker() -> None:
    """Answer one JSON request per stdin line: ``{"cpu": c, "order": [...]}``
    times those ops on CPU c; ``{"values": true}`` returns every op's ladder
    and grid levels."""
    import time

    import tffilter as tf

    def run(index: int):
        _, family, bt, order, keep, max_resolution = OPS[index]
        make = tf.gaussian_sif if family == "gaussian" else tf.rectangular_sif
        spec = make(bt, 1.0, tf.StageOrder[order.upper()])
        return tf.decompose_filter(spec, keep=keep, max_resolution=max_resolution)

    for line in sys.stdin:
        request = json.loads(line)
        if request.get("values"):
            results = [run(i) for i in range(len(OPS))]
            reply = [
                [[float(s) for s in r.singular_values] for r in results],
                [list(r.grid_report.resolutions) for r in results],
            ]
        else:
            os.sched_setaffinity(0, {request["cpu"]})
            reply = []
            for index in request["order"]:
                start = time.perf_counter()
                run(index)
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


def digest(ladders: list[list[float]]) -> str:
    h = hashlib.sha256()
    for values in ladders:
        h.update(struct.pack(f"<{len(values)}d", *values))
    return h.hexdigest()


def max_difference(base: list[list[float]], changed: list[list[float]]) -> float:
    if any(len(a) != len(b) for a, b in zip(base, changed)):
        return float("inf")
    return max(abs(x - y) for a, b in zip(base, changed) for x, y in zip(a, b))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="checkout to compare against")
    ap.add_argument("changed", type=Path, help="checkout with the change")
    ap.add_argument("--passes", type=int, default=20, help="timed passes per tree (default 20)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the shuffled op orders (default 1)")
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
        for side, proc in workers.items():  # the untimed warm-up pass
            ask(proc, {"cpu": cpus[0], "order": list(range(len(OPS)))})
        for k in range(args.passes):
            order = list(range(len(OPS)))
            random.Random(args.seed * 1_000_003 + k).shuffle(order)
            sides = list(trees) if k % 2 == 0 else list(reversed(trees))
            for side in sides:
                seconds = ask(workers[side], {"cpu": cpus[k % len(cpus)], "order": order})
                for index, s in zip(order, seconds):
                    times[side][index].append(s)
        ladders, levels = {}, {}
        for side, proc in workers.items():
            ladders[side], levels[side] = ask(proc, {"values": True})
    finally:
        for proc in workers.values():
            proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    print(f"median of {args.passes} passes per op, in ms (seed {args.seed})")
    print(f"{'op':<31} {'base':>8} {'changed':>8} {'change':>8} {'lower':>7}")
    totals = {side: 0.0 for side in trees}
    for index, (name, *_) in enumerate(OPS):
        med = {side: statistics.median(times[side][index]) for side in trees}
        for side in trees:
            totals[side] += med[side]
        lower = sum(c < b for b, c in zip(times["base"][index], times["changed"][index]))
        print(f"{name:<31} {1e3 * med['base']:8.3f} {1e3 * med['changed']:8.3f} "
              f"{med['changed'] / med['base'] - 1:+8.1%} {lower:>3}/{args.passes}")
    print(f"{'sum':<31} {1e3 * totals['base']:8.3f} {1e3 * totals['changed']:8.3f} "
          f"{totals['changed'] / totals['base'] - 1:+8.1%}")
    print("grid levels of each op:")
    same_levels = True
    for index, (name, *_) in enumerate(OPS):
        base, changed = levels["base"][index], levels["changed"][index]
        same = base[-2:] == changed[-2:]
        same_levels &= same
        print(f"  {name:<31} base {tuple(base)}  changed {tuple(changed)}  {'same last two' if same else 'DIFFERENT'}")
    print(f"sha256 of the singular values: base {digest(ladders['base'])}")
    print(f"                               changed {digest(ladders['changed'])}")
    print(f"largest |difference| of a singular value: {max_difference(ladders['base'], ladders['changed']):.3g}")
    return 0 if same_levels and digest(ladders["base"]) == digest(ladders["changed"]) else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        worker()
    else:
        sys.exit(main())
