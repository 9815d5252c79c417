"""Importing the package does no memoised work.

Every lru_cache of traceform starts empty, so a table built at import time
would show up here as a warm cache; its cost would move into the start-up
of every command-line run. The import runs in a fresh interpreter started
with -S, the way a cold command-line process starts, so nothing the other
tests imported can fill a cache first.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import importlib, json, pkgutil, sys
import traceform
found = {}
for info in pkgutil.iter_modules(traceform.__path__, "traceform."):
    module = importlib.import_module(info.name)
    owners = [module] + [obj for obj in vars(module).values()
                         if isinstance(obj, type) and obj.__module__ == info.name]
    for owner in owners:
        prefix = info.name if owner is module else f"{info.name}.{owner.__name__}"
        for attr, obj in vars(owner).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == info.name:
                found[f"{prefix}.{attr}"] = obj.cache_info().currsize
print(json.dumps({"modules": sorted(m for m in sys.modules if m.startswith("traceform.")),
                  "caches": found}))
"""


def test_every_lru_cache_is_empty_after_a_cold_import():
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE], capture_output=True, text=True,
                          env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    modules = {path.stem for path in SRC.joinpath("traceform").glob("*.py")} - {"__init__"}
    assert {name.split(".")[1] for name in result["modules"]} == modules
    assert len(result["caches"]) >= 10, result["caches"]
    warm = {name: size for name, size in result["caches"].items() if size}
    assert not warm, warm
