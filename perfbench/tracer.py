"""Run one `qchain` command in this process with spans around the layer calls.

Usage: python perfbench/tracer.py <qchain arguments...>

The qchain sources must be importable (PYTHONPATH=src).  Every function in
LAYERS is replaced, in each qchain module that holds a reference to it, by
a wrapper that records a span: layer, function, start, end, the enclosing
span and the (L, N) of its argument.  The command then runs through
`qchain.cli.main`, its standard output is captured, and one JSON object
with the exit code, the captured output, the spans and the counters is
written to standard output.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import sys
import time

# layer -> {function name in the layer's module: short name in metrics}.
# linalg's solver is reached through qoperator, which imports it by name.
LAYERS = {
    "qoperator": {
        "q_closed_form": "closed_form",
        "q_linear_system": "linear_system",
        "build_q": "build",
        "verify_structure": "structure",
        "verify_tq_identity": "tq",
    },
    "linalg": {"solve_linear_system": "solve"},
    "wtransform": {
        "w_sum": "w_sum",
        "w_elementary": "w_elementary",
        "verify_inverse_sum": "inverse_sum",
    },
    "roots": {
        "find_roots": "find_roots",
        "bae_residuals_by_form": "bae",
        "inversion_closure_gap": "inversion",
        "root_product_gap": "product",
        "numeric_cross_check": "cross_check",
    },
    "energy": {
        "groundstate_summary": "summary",
        "extract_A": "extract_A",
        "verify_linearity": "linearity",
        "verify_no_finite_size_correction": "finite_size",
        "crosscheck_closed_forms": "closed_forms",
    },
    "cyclotomic": {"CyclotomicNumber.to_dict": "to_dict"},
}


def _where(signature: inspect.Signature, args: tuple, kwargs: dict) -> tuple:
    """(L, N) of a call: named L/N arguments, else the first argument's params."""
    bound = signature.bind_partial(*args, **kwargs).arguments
    if "L" in bound:
        return bound["L"], bound.get("N")
    first = args[0] if args else None
    params = getattr(first, "params", first)  # a QPolynomial or RootSet, or ChainParams
    return getattr(params, "L", None), getattr(params, "N", None)


class Tracer:
    def __init__(self) -> None:
        # span: [layer, short name, start, end, parent index, L, N]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = {"roots.sweeps": 0, "energy.summary.cache_hits": 0}

    def wrap(self, layer: str, short: str, fn):
        cache_info = getattr(fn, "cache_info", None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            L, N = _where(signature, args, kwargs)
            self.spans.append([layer, short, 0.0, 0.0, self.stack[-1] if self.stack else None, L, N])
            self.stack.append(index)
            hits = cache_info().hits if cache_info else 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index][2:4] = [start, end]
            if cache_info:
                self.counters["energy.summary.cache_hits"] += cache_info().hits - hits
            if short == "find_roots":
                self.counters["roots.sweeps"] += result.sweeps
            return result

        return traced

    def install(self) -> None:
        """Wrap every LAYERS function; a missing name raises instead of reading 0 s."""
        qchain_modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qchain"]
        for layer, functions in LAYERS.items():
            # `import qchain.energy` would give the re-exported function, not
            # the module, so modules are looked up by their full name.
            module = sys.modules.get(f"qchain.{layer}")
            if module is None:
                raise RuntimeError(f"module qchain.{layer} is not loaded")
            for qualified, short in functions.items():
                owner_name, _, attr = qualified.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                if attr not in vars(owner):
                    raise RuntimeError(f"qchain.{layer} has no {qualified}")
                original = vars(owner)[attr]
                wrapper = self.wrap(layer, short, original)
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                # Callers import functions by name, so every reference is replaced.
                for holder in qchain_modules:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, name, wrapper)


def main(argv: list[str]) -> int:
    import qchain.cli

    tracer = Tracer()
    tracer.install()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        exit_code = qchain.cli.main(argv)
    json.dump(
        {
            "exit": exit_code,
            "stdout": captured.getvalue(),
            "spans": tracer.spans,
            "counters": tracer.counters,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
