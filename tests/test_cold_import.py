"""Importing the package does no memoised work, the trace commands load
neither zhu, dataclasses nor shutil, and a process builds one parser.

Every lru_cache of traceform starts empty, so a table built at import time
would show up here as a warm cache; its cost would move into the start-up
of every command-line run. Each module a command imports is compiled again
in every run that writes no bytecode, so the trace commands must not load
zhu or dataclasses, nor shutil with the bz2 and lzma it pulls in (argparse
imports it only to ask for the terminal width). Each probe runs in a fresh interpreter started with -S
and PYTHONDONTWRITEBYTECODE=1, the way a cold command-line process starts,
so nothing the other tests imported can fill a cache or a module table
first.
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

TRACE_COMMANDS_PROBE = """
import contextlib, io, json, sys
from traceform import cli
codes = []
for argv in (["--json", "verify", "traces"], ["--json", "modular-check"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.run(argv))
print(json.dumps({"codes": codes, "modules": sorted(sys.modules),
                  "parser": cli._build_parser.cache_info()._asdict()}))
"""

# what verify traces and modular-check never run
NOT_ON_THE_TRACE_PATH = ("dataclasses", "traceform.zhu", "shutil", "bz2", "lzma")


def _probe(code: str):
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_lru_cache_is_empty_after_a_cold_import():
    result = _probe(PROBE)
    modules = {path.stem for path in SRC.joinpath("traceform").glob("*.py")} - {"__init__"}
    assert {name.split(".")[1] for name in result["modules"]} == modules
    assert len(result["caches"]) >= 10, result["caches"]
    warm = {name: size for name, size in result["caches"].items() if size}
    assert not warm, warm


def test_the_trace_commands_load_no_zhu_and_no_dataclasses():
    result = _probe(TRACE_COMMANDS_PROBE)
    assert result["codes"] == [0, 0]
    assert "traceform.mde" in result["modules"]
    loaded = set(NOT_ON_THE_TRACE_PATH) & set(result["modules"])
    assert not loaded, sorted(loaded)


def test_the_trace_commands_build_one_parser():
    parser = _probe(TRACE_COMMANDS_PROBE)["parser"]
    assert (parser["misses"], parser["hits"], parser["currsize"]) == (1, 1, 1)


def test_mde_loads_no_zhu():
    # root finding over Q lives in linalg, which both layers import
    modules = _probe("import json, sys, traceform.mde; print(json.dumps(sorted(sys.modules)))")
    assert "traceform.linalg" in modules and "traceform.zhu" not in modules
