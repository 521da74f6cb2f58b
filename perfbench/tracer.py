"""Span tracing of calls into tffilter's public functions, from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper in every
``tffilter`` namespace that binds it (``from .core import build_operator`` in
another module included), so calls between modules are recorded too.  Spans
are kept in memory as ``[name, start, end, parent, op]`` lists and written out
once, when the benchmark ends.  The package itself is not modified.

Run as a script it is the child of the traced ``cli`` pass: a fresh
interpreter that installs the tracer, calls ``tffilter.cli.main(argv)`` in
process and writes its spans as JSON::

    python3 perfbench/tracer.py OUT.json OP_NAME -- decompose --filter ...
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# layer -> public functions whose calls are recorded; gaussian and metrics are
# closed forms, traced only so that CLI emission time excludes them
TRACED = {
    "core": ("build_operator", "apply_filter", "recommended_axes", "fourier_forward", "fourier_inverse"),
    "schmidt": ("decompose_filter", "schmidt_decompose"),
    "slepian": (
        "pswf_solve_legendre",
        "slepian_singular_values",
        "slepian_filter_modes",
        "rectangular_filter_modes",
        "slepian_tradeoff",
    ),
    "qkd": ("optimize_over_efficiency", "normalized_key_rate", "FilterCharacteristic.domain"),
    "noisesim": ("run_ensemble", "filtered_noise_correlation", "sample_white_noise"),
    "gaussian": ("gaussian_singular_values", "gaussian_tradeoff", "hermite_gaussian_mode_set"),
    "metrics": ("analytic_snr", "figures_from_singulars"),
    "cli": ("main",),
}

# layers with a self-time metric; the CLI's own time is reported as emission time
LAYERS = ("core", "schmidt", "slepian", "qkd", "noisesim")


def thread_count() -> int:
    """OS threads of this process."""
    return len(os.listdir("/proc/self/task"))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = ""

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        return traced

    def install(self) -> None:
        for layer, names in TRACED.items():
            module = importlib.import_module(f"tffilter.{layer}")
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                if owner_name:  # a method: wrap it on its class
                    owner = getattr(module, owner_name)
                    setattr(owner, attr, self._wrap(getattr(owner, attr), f"{layer}.{qual}"))
                    continue
                original = getattr(module, attr)
                traced = self._wrap(original, f"{layer}.{attr}")
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "tffilter" or mod_name.startswith("tffilter."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, traced)


def self_time(spans: list[list], layer: str, group: str) -> float:
    """Summed self time of a layer's spans in one group of ops: each span's
    duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return sum(
        end - start - child[i]
        for i, (name, start, end, _, op) in enumerate(spans)
        if name.startswith(layer + ".") and op.startswith(group + ":")
    )


def _child(out_path: str, op: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.op = op
    import tffilter.cli

    tracer.install()
    rc = tffilter.cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "spans": tracer.spans, "threads": thread_count()}, fh)
    return 0


if __name__ == "__main__":
    sep = sys.argv.index("--")
    sys.exit(_child(sys.argv[1], sys.argv[2], sys.argv[sep + 1 :]))
