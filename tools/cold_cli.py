"""Cold wall time of each README command, for two source trees side by side.

Each run is a fresh ``python -m tffilter.cli`` process on one CPU, the way a
user meets the command line: interpreter start, imports, the computation and
the data file.  The two trees alternate within every pair of runs (which goes
first swaps from round to round) and both runs of a pair share one CPU, so a
slow spell of a shared machine hits both sides alike.  The script prints the
median wall time of every command and their sum, then the sha256 of every
data file on both sides, and exits 1 when the two trees wrote different
bytes.  Only the standard library is used.

Run from anywhere, with two checkouts (each holding ``src/tffilter``):

    python tools/cold_cli.py BASE_TREE CHANGED_TREE            # 14 rounds
    python tools/cold_cli.py BASE_TREE CHANGED_TREE --rounds 5
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# the README commands, and the qkd grid run without --optimize (name, argv, data file suffix)
COMMANDS = [
    ("decompose", ["decompose", "--filter", "gaussian", "--bt", "0.5", "--n-modes", "10"], ".csv"),
    ("tradeoff", ["tradeoff", "--filter", "slepian", "--bt-min", "0.01", "--bt-max", "10",
                  "--points", "80"], ".csv"),
    ("modes", ["modes", "--filter", "slepian", "--c", "3.0", "--mode", "0"], ".csv"),
    ("snr", ["snr", "--filter", "gaussian", "--bt", "0.5", "--trials", "10000", "--seed", "7"], ".json"),
    ("qkd", ["qkd", "--filter", "all", "--ny-min", "1e-4", "--ny-max", "1", "--points", "50",
             "--optimize"], ".csv"),
    ("qkd_grid", ["qkd", "--filter", "all", "--ny-min", "1e-4", "--ny-max", "1", "--points", "50"], ".csv"),
]


def cold_run(tree: Path, argv: list[str], out: Path, cpu: int) -> float:
    """Wall seconds of one ``tffilter`` process from ``tree``, pinned to ``cpu``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})  # the child inherits the mask
    try:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "tffilter.cli", *argv, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        seconds = time.perf_counter() - start
    finally:
        os.sched_setaffinity(0, cpus)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: tffilter {' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
    return seconds


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="checkout to compare against")
    ap.add_argument("changed", type=Path, help="checkout with the change")
    ap.add_argument("--rounds", type=int, default=14, help="pairs of runs per command (default 14)")
    args = ap.parse_args(argv)
    trees = {"base": args.base.resolve(), "changed": args.changed.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "tffilter" / "__init__.py").is_file():
            ap.error(f"{tree} holds no src/tffilter")
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")

    cpus = sorted(os.sched_getaffinity(0))
    times = {side: {name: [] for name, _, _ in COMMANDS} for side in trees}
    with tempfile.TemporaryDirectory(prefix="cold_cli.") as scratch:
        outs = {side: Path(scratch, side) for side in trees}
        for out in outs.values():
            out.mkdir()
        for k in range(args.rounds):
            sides = list(trees) if k % 2 == 0 else list(reversed(trees))
            for i, (name, cmd, suffix) in enumerate(COMMANDS):
                cpu = cpus[(k * len(COMMANDS) + i) % len(cpus)]
                for side in sides:
                    seconds = cold_run(trees[side], cmd, outs[side] / (name + suffix), cpu)
                    times[side][name].append(seconds)
        digests = {side: {name: sha256(outs[side] / (name + suffix)) for name, _, suffix in COMMANDS}
                   for side in trees}

    print(f"median of {args.rounds} cold runs per command, in seconds")
    print(f"{'command':<10} {'base':>8} {'changed':>8} {'change':>8}")
    totals = {side: 0.0 for side in trees}
    for name, _, _ in COMMANDS:
        med = {side: statistics.median(times[side][name]) for side in trees}
        for side in trees:
            totals[side] += med[side]
        print(f"{name:<10} {med['base']:8.3f} {med['changed']:8.3f} {med['changed'] / med['base'] - 1:+8.1%}")
    print(f"{'sum':<10} {totals['base']:8.3f} {totals['changed']:8.3f} "
          f"{totals['changed'] / totals['base'] - 1:+8.1%}")
    print("sha256 of the data files")
    for name, _, suffix in COMMANDS:
        same = "same" if digests["base"][name] == digests["changed"][name] else "DIFFERENT"
        print(f"{name + suffix:<14} base {digests['base'][name]}  changed {digests['changed'][name]}  {same}")
    return 0 if digests["base"] == digests["changed"] else 1


if __name__ == "__main__":
    sys.exit(main())
