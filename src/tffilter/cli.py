"""Command-line front end: reproducible CSV/JSON runs of every analysis.

Subcommands: decompose, tradeoff, modes, snr, qkd.  Each ``cmd_*`` only
computes: it returns its data, a CSV ``(header, rows)`` pair or a JSON
payload, and a grid-report dict, and writes nothing.  ``main`` then writes
the data file (stdout without --out) and, with --out, a
``<out>.manifest.json`` sidecar whose ``parameters`` are the parsed flags
(``seed`` apart, at the top level) and whose ``warnings`` list the category
and message of every warning the command raised; each is still shown on
stderr as it would be without the record.  Data files are pure functions of the
command line (stochastic runs take a mandatory --seed), so a rerun is
byte-identical; the run metadata (including the only timestamp) lives in the
manifest, never in the data file.  JSON spells a non-finite float as the CSV
cells do: "inf", "-inf" or "nan".

Exit codes: 0 success, 2 usage error (a NaN or infinite number, a
nonpositive BT, a negative seed, a count flag outside 1..MAX_COUNT), 3
numeric or convergence failure, or a run past the library's resolution
limits.  A failed run writes no file.
Set TF_FILTER_THREADS to cap the linear-algebra thread pools and to size the
worker pool of the snr ensembles (1 runs them serially).
Each command imports the library functions it calls inside its own branch, so
a cold process loads only the modules that command runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import warnings
from datetime import datetime, timezone

import numpy as np

from . import __version__, cap_threads
from .core import ConvergenceError, ResolutionError, TruncationError

# Upper bound of --n-modes and --points.  The largest table it allows,
# ``qkd --filter all`` without --optimize, has 4e6 rows.
MAX_COUNT = 10_000

# flags that are not run parameters: the manifest records them elsewhere or not at all
_NOT_PARAMETERS = ("command", "func", "out", "seed")


class UsageError(Exception):
    pass


def parse_bt(text: str) -> float:
    """Accept a finite positive plain real or the literal form 'X/2pi'."""
    s = text.strip().lower().replace(" ", "")
    try:
        bt = float(s[:-4]) / (2.0 * math.pi) if s.endswith("/2pi") else float(s)
    except ValueError:
        bt = math.nan
    if not math.isfinite(bt):
        raise UsageError(f"cannot parse time-bandwidth product {text!r} as a finite number")
    if bt <= 0:
        raise UsageError(f"time-bandwidth product {text!r} must be positive")
    return bt


def _check_count(value: int, flag: str) -> None:
    if value < 1:
        raise UsageError(f"{flag} must be >= 1")
    if value > MAX_COUNT:
        raise UsageError(f"{flag} must be <= {MAX_COUNT}")


def _finite(text: str) -> float:
    """argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type: a nonnegative integer seed."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _fmt(x: float) -> str:
    # shortest representation that parses back to the same float, so CSV
    # consumers can re-check analytic identities at full precision
    return repr(float(x))


def _fmt_all(values) -> list[str]:
    """``_fmt`` of every entry of a 1-D float array, through one ``tolist``."""
    return [repr(x) for x in values.tolist()]


def _spell_nonfinite(value):
    """``value`` with every non-finite float, in nested dicts too, spelled as ``_fmt`` spells it."""
    if isinstance(value, dict):
        return {key: _spell_nonfinite(item) for key, item in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    return value


def _open_out(path: str | None):
    """The file at ``path``, or stdout (left open) when there is none."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="", encoding="utf-8")


def _write_rows(path: str | None, header: list[str], rows) -> None:
    """Write the table as ``csv.writer(lineterminator="\\n")`` would, in one join.

    Every cell is written unquoted, so a table that csv would quote raises
    ``ValueError`` before any file is opened: a cell holding a comma, a quote
    or a line break, an empty row, or a row of one empty cell.
    """
    table = [header, *rows]
    text = "\n".join(map(",".join, table)) + "\n"
    # a row of n cells joins with n - 1 commas, so a comma in a cell shows in
    # the count, as a line break does in the line count; an empty row and a
    # row of one empty cell both write an empty line
    if (
        text.count(",") != sum(map(len, table)) - len(table)
        or text.count("\n") != len(table)
        or '"' in text
        or "\r" in text
        or text[0] == "\n"
        or "\n\n" in text
    ):
        raise ValueError("a CSV cell holds a comma, quote or line break, or a row is empty")
    with _open_out(path) as handle:
        handle.write(text)


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(_spell_nonfinite(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    with _open_out(path) as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# subcommands: each returns (data, grid_report), data a (header, rows) pair or a JSON payload


def cmd_decompose(args: argparse.Namespace):
    bt = parse_bt(args.bt)
    _check_count(args.n_modes, "--n-modes")
    if args.filter == "gaussian":
        from .gaussian import gaussian_singular_values

        lam = gaussian_singular_values(bt, args.n_modes)
        backend = {"backend": "analytic-mehler"}
    else:
        from .slepian import rectangular_sif, slepian_singular_values

        lam = slepian_singular_values(rectangular_sif(bt, 1.0), args.n_modes)
        backend = {"backend": "legendre-prolate"}
    sq = lam**2
    cum = np.cumsum(sq)
    header = [
        "n (index)",
        "lambda_n (dimensionless)",
        "lambda_n_sq (dimensionless)",
        "cumulative_sq (dimensionless)",
    ]
    rows = zip(map(str, range(args.n_modes)), _fmt_all(lam), _fmt_all(sq), _fmt_all(cum))
    return (header, rows), backend


def cmd_tradeoff(args: argparse.Namespace):
    bt_min = parse_bt(args.bt_min)
    bt_max = parse_bt(args.bt_max)
    if bt_max < bt_min:
        raise UsageError("need --bt-min <= --bt-max")
    _check_count(args.points, "--points")
    bts = np.geomspace(bt_min, bt_max, args.points)
    if args.filter == "gaussian":
        from .gaussian import gaussian_tradeoff

        eta, xi = gaussian_tradeoff(bts)
    else:
        from .slepian import slepian_tradeoff

        eta, xi = slepian_tradeoff(bts)
    header = [
        "family",
        "bt (dimensionless)",
        "eta (dimensionless)",
        "xi (dimensionless)",
        "selectivity (dimensionless)",
    ]
    rows = [
        [args.filter, *cells]
        for cells in zip(_fmt_all(bts), _fmt_all(eta), _fmt_all(xi), _fmt_all(eta * xi))
    ]
    from .metrics import QPG_REFERENCE_POINTS

    qpg_eta, qpg_xi = QPG_REFERENCE_POINTS[0]
    rows.append(["qpg_reference", "", _fmt(qpg_eta), _fmt(qpg_xi), _fmt(qpg_eta * qpg_xi)])
    return (header, rows), {"spacing": "log", "includes": "qpg_reference row"}


def cmd_modes(args: argparse.Namespace):
    n = args.mode
    if n < 0:
        raise UsageError("--mode must be >= 0")
    if args.filter == "gaussian":
        if args.c is not None:
            raise UsageError("--c applies to the slepian family; use --bt for gaussian")
        if args.bt is None:
            raise UsageError("gaussian modes need --bt")
        from .gaussian import gaussian_sif, hermite_gaussian_mode_set

        spec = gaussian_sif(parse_bt(args.bt), 1.0)
        mode = hermite_gaussian_mode_set(spec, None, n + 1, args.which)[n]
        t_unit = "s"
        amp_unit = "1/sqrt(s)"
        notes = {}
    else:
        if (args.c is None) == (args.bt is None):
            raise UsageError("slepian modes need exactly one of --c or --bt")
        from .slepian import pswf_solve_legendre, rectangular_sif, slepian_filter_modes

        c = args.c if args.c is not None else rectangular_sif(parse_bt(args.bt), 1.0).c
        if c <= 0:
            raise UsageError("prolate parameter must be positive")
        phi_in, psi_out, _ = slepian_filter_modes(pswf_solve_legendre(c, n), n)
        mode = phi_in if args.which == "input" else psi_out
        t_unit = "gate half-widths"
        amp_unit = "dimensionless"
        notes = {"normalization": "gate interval mapped to [-1, 1]"}
    axis = mode.axis
    grid = {"axis": {"start": axis.start, "step": axis.step, "count": axis.count}, **notes}
    header = [f"t ({t_unit})", f"re ({amp_unit})", f"im ({amp_unit})"]
    rows = zip(_fmt_all(axis.points), _fmt_all(mode.values.real), _fmt_all(mode.values.imag))
    return (header, rows), grid


def cmd_snr(args: argparse.Namespace):
    bt = parse_bt(args.bt)
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if args.signal_energy < 0 or args.noise_psd < 0:
        raise UsageError("energies must be nonnegative")
    from .metrics import analytic_snr
    from .noisesim import NoiseEnsembleConfig, run_ensemble, snr_setup

    spec, axis, mode, xi = snr_setup(args.filter, bt)
    cfg = NoiseEnsembleConfig(
        noise_psd=args.noise_psd,
        signal_energy=args.signal_energy,
        signal_mode=mode,
        trials=args.trials,
        seed=args.seed,
    )
    report = run_ensemble(cfg, spec)
    payload = {
        "filter": args.filter,
        "bt": bt,
        "signal_energy": args.signal_energy,
        "noise_psd": args.noise_psd,
        "empirical": report.as_dict(),
        "snr_analytic": analytic_snr(args.signal_energy, args.noise_psd, xi),
        "xi_analytic": xi,
    }
    return payload, {"time_axis": {"start": axis.start, "step": axis.step, "count": axis.count}}


def _qkd_point(eta: float, xi: float):
    from .qkd import FilterCharacteristic

    try:
        fc = FilterCharacteristic.fixed_point(eta, xi)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return (f"point_{_fmt(eta)}_{_fmt(xi)}", fc)


def _qkd_families(token: str):
    from .metrics import QPG_REFERENCE_POINTS
    from .qkd import FilterCharacteristic

    if token == "gaussian":
        return [("gaussian", FilterCharacteristic.gaussian())]
    if token == "slepian":
        return [("slepian", FilterCharacteristic.slepian())]
    if token.startswith("point:"):
        try:
            eta_s, xi_s = token[len("point:") :].split(",")
            eta, xi = float(eta_s), float(xi_s)
        except ValueError:
            raise UsageError("point filter must look like point:ETA,XI") from None
        return [_qkd_point(eta, xi)]
    if token == "all":
        return (
            _qkd_families("gaussian")
            + _qkd_families("slepian")
            + [_qkd_point(eta, xi) for eta, xi in QPG_REFERENCE_POINTS]
        )
    raise UsageError(f"unknown filter family {token!r}")


def cmd_qkd(args: argparse.Namespace):
    if args.ny_min < 0 or args.ny_max < args.ny_min:
        raise UsageError("need 0 <= --ny-min <= --ny-max")
    _check_count(args.points, "--points")
    from .qkd import ETA_GRID, normalized_key_rate, optimize_over_efficiency

    families = _qkd_families(args.filter)
    if args.ny_min > 0:
        ny_values = np.geomspace(args.ny_min, args.ny_max, args.points)
        spacing = "log"
    else:
        ny_values = np.linspace(args.ny_min, args.ny_max, args.points)
        spacing = "linear"

    rate_unit = "rate (normalized to R_S*tau_ch^2)"
    rows: list[list[str]] = []
    if args.optimize:
        header = [
            "family",
            "n_y (dimensionless)",
            "eta_star (dimensionless)",
            f"{rate_unit.replace('rate', 'rate_star')}",
            "log10_rate_star (dimensionless)",
            "no_key (0 or 1)",
        ]
        for label, fc in families:
            for ny, res in zip(ny_values, optimize_over_efficiency(fc, ny_values)):
                rows.append(
                    [
                        label,
                        _fmt(float(ny)),
                        _fmt(res.eta),
                        _fmt(res.rate),
                        _fmt(float(np.log10(res.rate)) if res.rate > 0 else float("-inf")),
                        "1" if res.no_key else "0",
                    ]
                )
    else:
        header = [
            "family",
            "n_y (dimensionless)",
            "eta (dimensionless)",
            "xi (dimensionless)",
            rate_unit,
            "log10_rate (dimensionless)",
        ]
        for label, fc in families:
            etas, xis = fc.grid_points()
            eta_cells, xi_cells = _fmt_all(etas), _fmt_all(xis)
            for ny in ny_values:
                rates = np.atleast_1d(normalized_key_rate(etas, xis, float(ny)))
                logs = np.where(rates > 0, np.log10(np.where(rates > 0, rates, 1.0)), -np.inf)
                ny_cell = _fmt(float(ny))
                rows.extend(
                    [label, ny_cell, *cells]
                    for cells in zip(eta_cells, xi_cells, _fmt_all(rates), _fmt_all(logs))
                )
    return (header, rows), {"ny_spacing": spacing, "eta_grid_points": len(ETA_GRID)}


# ---------------------------------------------------------------------------
# parser / dispatch


@contextlib.contextmanager
def _recorded_warnings():
    """Record the warnings raised inside; on the way out show each where it would have gone."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            yield caught
    finally:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tffilter",
        description="Schmidt-mode analysis of time-frequency filters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="singular values of a filter family")
    p.add_argument("--filter", choices=("gaussian", "slepian"), required=True)
    p.add_argument("--bt", required=True, help="time-bandwidth product (real or 'X/2pi')")
    p.add_argument("--n-modes", type=int, default=20)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("tradeoff", help="efficiency vs discriminativity sweep")
    p.add_argument("--filter", choices=("gaussian", "slepian"), required=True)
    p.add_argument("--bt-min", required=True)
    p.add_argument("--bt-max", required=True)
    p.add_argument("--points", type=int, default=60)
    p.add_argument("--out")
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("modes", help="sampled Schmidt mode profiles")
    p.add_argument("--filter", choices=("gaussian", "slepian"), required=True)
    p.add_argument("--bt")
    p.add_argument("--c", type=_finite, help="prolate parameter (slepian only)")
    p.add_argument("--mode", type=int, default=0)
    p.add_argument("--which", choices=("input", "output"), default="input")
    p.add_argument("--out")
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("snr", help="Monte Carlo signal-to-noise check")
    p.add_argument("--filter", choices=("gaussian", "slepian"), required=True)
    p.add_argument("--bt", required=True)
    p.add_argument("--signal-energy", type=_finite, default=1.0)
    p.add_argument("--noise-psd", type=_finite, default=0.1)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_snr)

    p = sub.add_parser("qkd", help="BBM92 key rates over a noise sweep")
    p.add_argument(
        "--filter",
        required=True,
        help="gaussian | slepian | point:ETA,XI | all",
    )
    p.add_argument("--ny-min", type=_finite, required=True)
    p.add_argument("--ny-max", type=_finite, required=True)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_qkd)

    return parser


def main(argv: list[str] | None = None) -> int:
    if not cap_threads():
        print("error: TF_FILTER_THREADS must be a positive integer", file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    try:
        with _recorded_warnings() as caught:
            data, grid_report = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ResolutionError, TruncationError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    if isinstance(data, dict):
        _write_json(args.out, data)
    else:
        _write_rows(args.out, *data)
    if args.out is not None:
        manifest = {
            "command": args.command,
            "parameters": {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS},
            "seed": getattr(args, "seed", None),
            "grid_report": grid_report,
            "warnings": [{"category": w.category.__name__, "message": str(w.message)} for w in caught],
            "artifact_version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        _write_json(args.out + ".manifest.json", manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
