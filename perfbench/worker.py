"""One benchmark worker process: set up a workload, run it, write the raw result.

Started by ``run.py`` with the BLAS thread variables already in its
environment, so they hold before numpy loads.  Workloads are closed loops with
one caller: each op starts when the previous one has returned.

    python3 perfbench/worker.py --workload ladder --seed 1 --seconds 18 --trace 0 \
        --workers 3 --index 0 --spawned-at <time.monotonic() of the parent> --out result.json
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings

import numpy as np
import scipy

import tffilter as tf
from run import WORK
from stats import ENSEMBLE_TRIALS, NOISE_TRIALS, SNR_TRIALS
from tracer import LAYERS, Tracer, self_time, thread_count

HERE = os.path.dirname(os.path.abspath(__file__))

SV_TOL = 1e-10          # kept s_n against the closed-form / prolate ladder
POWER_TOL = 1e-6        # |sum s^2 - BT| / BT
IDENTITY_TOL = 1e-12    # eta = xi * BT in tradeoff rows; Mehler ladder in decompose
ORDER_SLACK = 1e-12     # slepian rate_star >= gaussian rate_star, as in tests/test_cli.py
STDERR_BAND = 5.0       # Monte Carlo checks: |empirical - expected| <= 5 stderr
REPLAY_TOL = 1e-12      # one-trial run_ensemble vs apply_filter on the replayed draw

NOISE_PSD = 0.1
NOISE_N = 1024
BLOCK = 256             # trials per noisesim block


class Op:
    """One closed-loop operation: ``run(op_id)`` returns a result,
    ``check(result)`` returns None when the result is right, else a message."""

    def __init__(self, name: str, run, check) -> None:
        self.name, self.run, self.check = name, run, check


# ---------------------------------------------------------------------------
# ladder: adaptive Schmidt ladders, in process


class Ladder:
    nominal_pass_s = 8.0

    def __init__(self, seed: int) -> None:
        self.ops: list[Op] = []
        for bt in (0.1, 0.5, 2.0, 5.0, 10.0):
            for order in tf.StageOrder:
                self.ops.append(self._gaussian_op(bt, order))
        for bt in (0.8, 4.0):
            self.ops.append(self._rect_op(bt))

    @staticmethod
    def _gaussian_op(bt: float, order) -> Op:
        spec = tf.gaussian_sif(bt, 1.0, order)
        oracle = tf.gaussian_singular_values(bt, 10)

        def run(op_id):
            return tf.decompose_filter(spec, keep=10)

        return Op(f"gaussian_bt{bt:g}_{order.name.lower()}", run, lambda r: _check_ladder(r, bt, oracle))

    @staticmethod
    def _rect_op(bt: float) -> Op:
        spec = tf.rectangular_sif(bt, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the unresolvable tail is cut below
            oracle = tf.slepian_singular_values(spec.c, 30)
        oracle = oracle[oracle**2 >= tf.slepian.BETA_FLOOR]

        def run(op_id):
            return tf.decompose_filter(spec, keep=None, max_resolution=1024)

        return Op(f"rectangular_bt{bt:g}", run, lambda r: _check_ladder(r, bt, oracle))

    def warm_up(self) -> None:
        tf.decompose_filter(tf.gaussian_sif(0.5, 1.0), keep=10)

    def probe_ops(self) -> list[Op]:
        return [op for op in self.ops if op.name == "gaussian_bt0.5_frequency_first"]

    @staticmethod
    def info(result) -> dict:
        rep = result.grid_report
        return {"grid_levels": len(rep.resolutions), "max_n": rep.final_rows.count}


def _check_ladder(res, bt: float, oracle: np.ndarray) -> str | None:
    k = min(res.kept, len(oracle))
    err = float(np.max(np.abs(res.singular_values[:k] - oracle[:k])))
    if err > SV_TOL:
        return f"singular values off by {err:.3g}"
    gap = abs(res.total_power - bt) / bt
    if gap > POWER_TOL:
        return f"sum rule gap {gap:.3g}"
    return None


# ---------------------------------------------------------------------------
# noise: Monte Carlo transport at N=1024, in process


def noise_setup():
    """(spec, axis, unit input mode) for the Gaussian and brick-wall ensembles.

    The brick-wall grid step 1/121 puts the gate edges mid-cell, which keeps the
    discrete noise energy within Monte Carlo error of N_y * BT.
    """
    gauss = tf.gaussian_sif(0.5, 1.0)
    g_axis = tf.centered_axis(1.0 / 12.0, NOISE_N, tf.Domain.TIME)
    g_mode = tf.hermite_gaussian_mode_set(gauss, g_axis, 1, "input")[0].normalized()
    rect = tf.rectangular_sif(2.0, 1.0, tf.StageOrder.TIME_FIRST)
    r_axis = tf.centered_axis(1.0 / 121.0, NOISE_N, tf.Domain.TIME)
    r_mode = tf.rectangular_filter_modes(rect, r_axis, 1, "input")[0].normalized()
    return (gauss, g_axis, g_mode), (rect, r_axis, r_mode)


class Noise:
    nominal_pass_s = 0.8

    def __init__(self, seed: int, stream: int = 0) -> None:
        self.seed = seed
        self.first = (seed * 1_000_003 + stream) * 100_000  # each op draws from its own seed
        self.count = 0
        self.cases = noise_setup()
        (gauss, _, g_mode), (rect, _, r_mode) = self.cases
        self.ops = [
            Op("ensemble_gaussian", lambda _: self._ensemble(gauss, g_mode), lambda r: _check_energy(r, gauss.bt)),
            Op("ensemble_rectangular", lambda _: self._ensemble(rect, r_mode), lambda r: _check_energy(r, rect.bt)),
            Op("correlation_gaussian", lambda _: self._correlation(gauss), _check_correlation),
        ]

    def _next_seed(self) -> int:
        self.count += 1
        return self.first + self.count

    def _ensemble(self, spec, mode):
        cfg = tf.NoiseEnsembleConfig(NOISE_PSD, 1.0, mode, NOISE_TRIALS, self._next_seed())
        return tf.run_ensemble(cfg, spec)

    def _correlation(self, spec):
        lags = np.array([0.0, 0.5, 2.0])
        return tf.filtered_noise_correlation(spec, NOISE_PSD, NOISE_TRIALS, lags, seed=self._next_seed())

    def replay_checks(self) -> list[str | None]:
        """One-trial run_ensemble against apply_filter on the replayed (seed, 0) draw."""
        out = []
        for spec, axis, mode in self.cases:
            rep = tf.run_ensemble(tf.NoiseEnsembleConfig(NOISE_PSD, 0.0, mode, 1, self.seed), spec)
            noise = tf.sample_white_noise(axis, NOISE_PSD, tf.trial_generator(self.seed, 0))
            ref = tf.apply_filter(spec, noise).energy()
            rel = abs(rep.w_noise_mean - ref) / ref
            out.append(None if rel <= REPLAY_TOL else f"replay differs by {rel:.3g}")
        return out

    def warm_up(self) -> None:
        (gauss, _, g_mode), _ = self.cases
        tf.run_ensemble(tf.NoiseEnsembleConfig(NOISE_PSD, 1.0, g_mode, BLOCK, self.seed), gauss)

    def probe_ops(self) -> list[Op]:
        return self.ops

    @staticmethod
    def info(result) -> dict:
        return {}


def _check_energy(rep, bt: float) -> str | None:
    expected = NOISE_PSD * bt
    dev = abs(rep.w_noise_mean - expected)
    if not dev <= STDERR_BAND * rep.w_noise_stderr:
        return f"noise energy {rep.w_noise_mean:.6g} vs {expected:.6g} (stderr {rep.w_noise_stderr:.3g})"
    return None


def _check_correlation(surf) -> str | None:
    dev = float(np.max(np.abs(surf.empirical - surf.analytic) / surf.stderr))
    return None if dev <= STDERR_BAND else f"correlation {dev:.3g} stderr off"


def draw_seconds(seed: int) -> float:
    """trial_generator + sample_white_noise for a 256-trial block at N=1024,
    median over five blocks."""
    (_, axis, _), _ = noise_setup()
    times = []
    for b in range(5):
        t0 = time.perf_counter()
        for t in range(b * BLOCK, (b + 1) * BLOCK):
            tf.sample_white_noise(axis, NOISE_PSD, tf.trial_generator(seed, t))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# cli: the README commands, each a cold process


def _bt_slepian_identity(rows) -> str | None:
    for r in rows:
        if r[0] == "slepian":
            bt, eta, xi = float(r[1]), float(r[2]), float(r[3])
            if abs(xi * bt - eta) > IDENTITY_TOL:
                return f"eta != xi*BT at BT={bt}"
    return None


class Cli:
    nominal_pass_s = 11.0

    def __init__(self, seed: int) -> None:
        self.out_dir = os.path.join(WORK, "cli")
        os.makedirs(self.out_dir, exist_ok=True)
        mehler = tf.gaussian_singular_values(0.5, 10)
        qkd = ["qkd", "--filter", "all", "--ny-min", "1e-4", "--ny-max", "1", "--points", "50"]
        commands = {
            "decompose": (["decompose", "--filter", "gaussian", "--bt", "0.5", "--n-modes", "10"], ".csv",
                          lambda p: _check_decompose(p, mehler)),
            "tradeoff": (["tradeoff", "--filter", "slepian", "--bt-min", "0.01", "--bt-max", "10",
                          "--points", "80"], ".csv", lambda p: _bt_slepian_identity(_csv_rows(p))),
            "modes": (["modes", "--filter", "slepian", "--c", "3.0", "--mode", "0"], ".csv", lambda p: None),
            "snr": (["snr", "--filter", "gaussian", "--bt", "0.5", "--trials", str(SNR_TRIALS), "--seed", str(seed)],
                    ".json", _check_snr),
            "qkd": (qkd + ["--optimize"], ".csv", _check_qkd_optimized),
            "qkd_grid": (qkd, ".csv", _check_qkd_grid),
        }
        self.ops = [self._op(name, *spec) for name, spec in commands.items()]
        self.traced = False
        self.trace_spans: list[list] = []  # traced children's spans are appended here
        self.child_threads = 0

    def _op(self, name, argv, suffix, content_check) -> Op:
        path = os.path.join(self.out_dir, name + suffix)

        def run(op_id):
            cmd = [sys.executable, "-m", "tffilter.cli", *argv, "--out", path]
            if self.traced:
                spans_path = os.path.join(self.out_dir, name + ".spans.json")
                cmd = [sys.executable, os.path.join(HERE, "tracer.py"), spans_path, op_id, "--", *argv, "--out", path]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
            if self.traced:
                self._merge_child(spans_path)
            return path

        return Op(name, run, content_check)

    def _merge_child(self, spans_path: str) -> None:
        with open(spans_path, encoding="utf-8") as fh:
            child = json.load(fh)
        if child["rc"] != 0:
            raise RuntimeError(f"traced main returned {child['rc']}")
        base = len(self.trace_spans)
        for name, start, end, parent, op in child["spans"]:
            self.trace_spans.append([name, start, end, parent + base if parent >= 0 else -1, op])
        self.child_threads = max(self.child_threads, child["threads"])

    def warm_up(self) -> None:
        """Nothing to warm: run.py has already imported tffilter.cli in a cold process."""

    def probe_ops(self) -> list[Op]:
        return self.ops

    @staticmethod
    def info(path: str) -> dict:
        """Digest and size of the data file; run.py requires one digest per command."""
        with open(path, "rb") as fh:
            data = fh.read()
        return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data), "csv": path.endswith(".csv")}


def _csv_rows(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _check_decompose(path: str, mehler: np.ndarray) -> str | None:
    lam = np.array([float(r[1]) for r in _csv_rows(path)])
    err = float(np.max(np.abs(lam - mehler)))
    return None if len(lam) == len(mehler) and err <= IDENTITY_TOL else f"Mehler ladder off by {err:.3g}"


def _check_snr(path: str) -> str | None:
    with open(path, encoding="utf-8") as fh:
        emp = json.load(fh)["empirical"]
    expected = NOISE_PSD * 0.5
    if abs(emp["w_noise_mean"] - expected) > STDERR_BAND * emp["w_noise_stderr"]:
        return f"w_noise_mean {emp['w_noise_mean']:.6g} vs {expected:.6g}"
    return None


def _check_qkd_optimized(path: str) -> str | None:
    best: dict[str, dict[str, float]] = {}
    for r in _csv_rows(path):
        rate = float(r[3])
        if not rate >= 0.0:
            return f"negative rate {rate} for {r[0]}"
        best.setdefault(r[0], {})[r[1]] = rate
    for ny, rg in best["gaussian"].items():
        if best["slepian"][ny] < rg - ORDER_SLACK:
            return f"slepian rate_star below gaussian at n_y={ny}"
    return None


def _check_qkd_grid(path: str) -> str | None:
    bad = [r for r in _csv_rows(path) if not float(r[4]) >= 0.0]
    return f"{len(bad)} negative rates" if bad else None


WORKLOADS = {"ladder": Ladder, "cli": Cli, "noise": Noise}


# ---------------------------------------------------------------------------
# running and summarizing


class Runner:
    def __init__(self, workload, seed: int) -> None:
        self.w = workload
        self.rng = random.Random(seed)
        self.tracer: Tracer | None = None
        self.records: list[dict] = []
        self.threads = thread_count()

    def run_pass(self, ops: list[Op], group: str) -> float:
        """Run ops once, in a seeded order; returns the summed op latency."""
        order = list(ops)
        self.rng.shuffle(order)
        total = 0.0
        for op in order:
            op_id = f"{group}:{op.name}"
            if self.tracer is not None:
                self.tracer.op = op_id
            result, error, wrong = None, None, None
            t0 = time.perf_counter()
            try:
                result = op.run(op_id)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if error is None:
                wrong = op.check(result)
            total += dt
            self.threads = max(self.threads, thread_count())
            info = self.w.info(result) if result is not None and error is None else {}
            self.records.append({"op": op.name, "group": group, "seconds": dt, "error": error,
                                 "wrong": wrong, "checked": error is None, "info": info})
        if self.tracer is not None:
            self.tracer.op = ""  # calls between passes belong to no op
        return total


def per_layer(spans: list[list], records: list[dict], untraced: float, traced: float,
              threads: int, draw_s: float, imports: dict) -> dict:
    """Per-layer metrics.  Each traced function's spans come from the
    workload's own pass ("w") when it calls that function, else from the
    probe pass ("p")."""

    def group(name: str) -> str:
        return "w" if any(s[0] == name and s[4].startswith("w:") for s in spans) else "p"

    def pick(name: str, op: str | None = None) -> list[list]:
        g = group(name)
        return [s for s in spans if s[0] == name and s[4].startswith(g + ":")
                and (op is None or s[4] == f"{g}:{op}")]

    def total(name: str, op: str | None = None) -> float:
        return sum(s[2] - s[1] for s in pick(name, op))

    def mean(name: str) -> float:
        return total(name) / len(pick(name))

    m: dict[str, float] = {
        "import.python_s": imports["python_s"],
        "import.tffilter_s": imports["tffilter_s"],
        "core.build_operator_s": total("core.build_operator"),
        "core.build_operator_calls": len(pick("core.build_operator")),
        "core.apply_filter_s": mean("core.apply_filter"),
        "schmidt.decompose_filter_s": total("schmidt.decompose_filter"),
        "schmidt.schmidt_decompose_s": total("schmidt.schmidt_decompose"),
    }
    m["schmidt.useful_ratio"] = m["schmidt.schmidt_decompose_s"] / m["schmidt.decompose_filter_s"]
    ladder = [r["info"] for r in records
              if r["group"] == group("schmidt.decompose_filter") and "grid_levels" in r["info"]]
    m["schmidt.grid_levels"] = sum(i["grid_levels"] for i in ladder)
    m["schmidt.max_n"] = max(i["max_n"] for i in ladder)
    m["slepian.pswf_solve_s"] = mean("slepian.pswf_solve_legendre")
    m["slepian.pswf_calls"] = len(pick("slepian.pswf_solve_legendre"))
    m["slepian.tradeoff_s"] = total("slepian.slepian_tradeoff", op="tradeoff")
    # each fresh qkd process builds the curve in its first slepian domain() call
    domain = "qkd.FilterCharacteristic.domain"
    m["qkd.curve_s"] = statistics.median(
        max(s[2] - s[1] for s in pick(domain, op)) for op in ("qkd", "qkd_grid"))
    m["qkd.optimize_s"] = statistics.median(s[2] - s[1] for s in pick("qkd.optimize_over_efficiency"))
    ens = pick("noisesim.run_ensemble")
    blocks = sum(ENSEMBLE_TRIALS[s[4].split(":", 1)[1]] for s in ens) / BLOCK
    m["noisesim.run_ensemble_s"] = total("noisesim.run_ensemble") / blocks
    m["noisesim.draw_s"] = draw_s
    m["noisesim.transport_s"] = m["noisesim.run_ensemble_s"] - draw_s
    m["noisesim.correlation_s"] = mean("noisesim.filtered_noise_correlation")
    mains = {spans.index(s) for s in pick("cli.main")}
    m["cli.main_s"] = total("cli.main")
    m["cli.emit_s"] = m["cli.main_s"] - sum(s[2] - s[1] for s in spans if s[3] in mains)
    # the snr JSON is left out: its float digits vary with the seed
    m["cli.out_bytes"] = sum(r["info"]["bytes"] for r in records
                             if r["group"] == group("cli.main") and r["info"].get("csv"))
    for layer in LAYERS:
        g = "w" if any(s[0].startswith(layer + ".") and s[4].startswith("w:") for s in spans) else "p"
        m[f"{layer}.self_s"] = self_time(spans, layer, g)
    m["proc.threads"] = threads
    m["trace.overhead_s"] = traced - untraced
    return m


def import_probes() -> dict:
    """Median of three fresh interpreters: bare start (wall) and `import tffilter`."""
    bare, imp = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        bare.append(time.perf_counter() - t0)
        out = subprocess.run(
            [sys.executable, "-c",
             "import time; t = time.perf_counter(); import tffilter; print(time.perf_counter() - t)"],
            check=True, capture_output=True, text=True, timeout=60)
        imp.append(float(out.stdout))
    return {"python_s": statistics.median(bare), "tffilter_s": statistics.median(imp)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workers", type=int, default=1, help="workers that share the run")
    ap.add_argument("--index", type=int, default=0, help="this worker's index among them")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, args.index) if cls is Noise else cls(args.seed)
    checks = workload.replay_checks() if isinstance(workload, Noise) else []
    workload.warm_up()
    result: dict = {"setup_s": time.monotonic() - args.spawned_at}

    runner = Runner(workload, args.seed * 1009 + args.index)
    if args.trace == 0:
        # fixed work per run, sized so that one run takes about --seconds on
        # the reference machine; parent and change then time the same ops
        passes = max(1, math.ceil(args.seconds / workload.nominal_pass_s / args.workers))
        cpus = sorted(os.sched_getaffinity(0))
        for k in range(passes):
            # the CPUs of a shared machine can differ in speed (a busy SMT
            # sibling), and a thread tends to stay where it started.  Pinning
            # the calling thread (and so each CLI child) to each CPU in turn
            # gives every CPU its share of the passes; the BLAS threads made
            # at import keep every CPU.
            os.sched_setaffinity(0, {cpus[(args.index + k) % len(cpus)]})
            runner.run_pass(workload.ops, "w")
        os.sched_setaffinity(0, cpus)
        who = resource.RUSAGE_CHILDREN if isinstance(workload, Cli) else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    else:
        imports = import_probes()
        draw_s = draw_seconds(args.seed)
        probes = [kind(args.seed) for kind in (Ladder, Noise, Cli) if not isinstance(workload, kind)]
        cli = next(w for w in [workload, *probes] if isinstance(w, Cli))
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, cpus[:1])  # both passes of the overhead on one CPU
        untraced = runner.run_pass(workload.ops, "u")
        tracer = Tracer()
        tracer.install()
        runner.tracer = tracer
        cli.traced, cli.trace_spans = True, tracer.spans
        traced = runner.run_pass(workload.ops, "w")
        os.sched_setaffinity(0, cpus)
        for probe in probes:
            runner.w = probe
            runner.run_pass(probe.probe_ops(), "p")
        spans = tracer.spans
        threads = max(runner.threads, cli.child_threads)
        result["per_layer"] = per_layer(spans, runner.records, untraced, traced, threads, draw_s, imports)
        result["spans"] = spans
    result["records"] = runner.records + [
        {"op": "replay", "group": "setup", "seconds": 0.0, "error": None, "wrong": w, "checked": True, "info": {}}
        for w in checks
    ]
    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
    }
    return _write(args.out, result)


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def _write(path: str, payload: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
