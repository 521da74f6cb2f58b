"""End-to-end metrics from the op records of a run's workers."""

from __future__ import annotations

import numpy as np
import scipy.special

# trials behind each run_ensemble call, by op
NOISE_TRIALS = 2048
SNR_TRIALS = 10000  # the README snr command
ENSEMBLE_TRIALS = {"ensemble_gaussian": NOISE_TRIALS, "ensemble_rectangular": NOISE_TRIALS, "snr": SNR_TRIALS}


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all
    order statistics.  Op latencies form one cluster per op kind, and a single
    order statistic jumps between clusters from run to run; this does not."""
    x = np.sort(values)
    n = len(x)
    edges = scipy.special.betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ten samples beyond it."""
    n = len(values)
    if n < 11:
        return max(values), 100.0
    p = (n - 10) / n
    return quantile(values, p), 100.0 * p


def per_op_medians(records: list[dict]) -> dict[str, float]:
    by_op: dict[str, list[float]] = {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r["seconds"])
    return {op: quantile(v, 0.5) for op, v in by_op.items()}


def end_to_end(workload: str, records: list[dict]) -> tuple[dict, dict]:
    """(metrics, notes) from the timed ops of every worker of a run."""
    lat = [r["seconds"] for r in records]
    medians = per_op_medians(records)
    tail_v, tail_p = tail(lat)
    metrics = {
        # one pass of median ops: robust to an op stalled by another process
        "pass_s": sum(medians.values()),
        "op_p50_s": quantile(lat, 0.5),
        "op_tail_s": tail_v,
    }
    if workload == "noise":
        ens = [r for r in records if r["op"] in ENSEMBLE_TRIALS]
        metrics["trials_per_s"] = sum(ENSEMBLE_TRIALS[r["op"]] for r in ens) / sum(r["seconds"] for r in ens)
    if workload == "cli":
        metrics.update({f"cli.{op}_s": v for op, v in medians.items()})
    notes = {
        "passes": len(lat) // len(medians),
        "op_samples": len(lat),
        "op_tail_percentile": tail_p,
        "op_tail_beyond": 10 if len(lat) >= 11 else 0,
    }
    return metrics, notes
