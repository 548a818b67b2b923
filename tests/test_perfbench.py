"""The benchmark's layer tracer must find every function it wraps."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_layer_names_exist():
    # Load LAYERS only; Tracer.install would patch the qchain modules globally.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, functions in tracer.LAYERS.items():
        module = importlib.import_module(f"qchain.{layer}")
        for qualified in functions:
            owner_name, _, attr = qualified.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            if attr not in vars(owner):
                missing.append(f"qchain.{layer}.{qualified}")
    assert not missing, missing
