"""One repetition of a benchmark workload, in a fresh interpreter.

run.py starts this script once per repetition, because the package keeps
unbounded module-level lru caches that every command-line user pays cold.
The protocol on stdin and stdout is one JSON object per line:

    worker -> {"ready": true}        modules imported, caches checked cold
    worker <- {"inputs": {...}}      the generated inputs; a blank line quits
    worker -> {"wall_s": ..., ...}   the verified result of the repetition

Usage: python3 bench/worker.py WORKLOAD TRACE   (TRACE is 0 or 1)
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent

# Modules each workload needs before it is ready; traced runs load every layer.
WORKLOAD_MODULES = {
    "traces": ("traceform.cli",),
    "deep-series": ("traceform.mde", "traceform.qseries", "traceform.elliptic"),
    "zhu-spectrum": ("traceform.zhu", "traceform.virasoro"),
}

DEEP_TERMS = 300


class Tally:
    """Exact checks attempted and failed in one repetition."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def compare_series(tally: Tally, label: str, got, want) -> None:
    """One check: the leading exponent and every coefficient equal exactly."""
    tally.check((got.lam, got.coeffs) == (want.lam, want.coeffs), label)


def tally_cli(tally: Tally, argv: list[str]) -> None:
    """Run the command line in-process; each JSON report is one check.

    Any status other than "pass" fails the check. The reports' runtime_ms is
    never read: it is not a timing the benchmark trusts.
    """
    from traceform import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    record_cli(tally, code, json.loads(out.getvalue()), " ".join(argv))


def record_cli(tally: Tally, code: int, payload: dict, command: str) -> None:
    reports = payload["reports"]
    if not reports:
        raise RuntimeError(f"{command}: no reports")
    failed = 0
    for rep in reports:
        ok = rep["status"] == "pass"
        failed += not ok
        tally.check(ok, f"{command}: {rep['check_name']} {rep['status']}")
    if code != (1 if failed else 0):
        raise RuntimeError(f"{command}: exit code {code} with {failed} failed reports")


def lru_caches() -> dict[str, list]:
    """Every module-level lru cache of traceform.*, by the module defining it."""
    out: dict[str, list] = {}
    for name, module in list(sys.modules.items()):
        if name == "traceform" or name.startswith("traceform."):
            found = [obj for obj in vars(module).values()
                     if hasattr(obj, "cache_info") and obj.__module__ == name]
            if found:
                out[name] = found
    return out


def require_cold(caches: dict[str, list]) -> None:
    """Raise unless every lru cache is empty: a repetition must start cold."""
    warm = [f"{mod}.{fn.__name__}={fn.cache_info().currsize}"
            for mod, fns in caches.items() for fn in fns if fn.cache_info().currsize]
    if warm:
        raise RuntimeError("lru caches are warm at the start of a repetition: " + ", ".join(warm))


# -- workloads -----------------------------------------------------------------

def traces(inputs: dict, tally: Tally) -> None:
    tally_cli(tally, ["--json", "verify", "traces"])
    taus = [f"--tau={re!r},{im!r}" for re, im in inputs["taus"]]
    tally_cli(tally, ["--json", "modular-check", *taus])


def deep_series(inputs: dict, tally: Tally) -> None:
    import tempfile

    from traceform import elliptic, mde, qseries

    cases = {case.m: case for case in mde.TRACE_CASES}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        for m in inputs["case_order"]:
            case = cases[m]
            ode = mde.trace_case_ode(case)
            series = mde.frobenius_solve(ode, mde.leading_exponent(case), DEEP_TERMS).to_puiseux()
            compare_series(tally, f"m={m} eta power", series, qseries.eta_power(2 * case.h_u, DEEP_TERMS))
            path = Path(tmp) / f"m{m}.series"
            qseries.write_series(path, series)
            compare_series(tally, f"m={m} cache round trip", qseries.read_series(path), series)
    reports = elliptic.verify_p_wp_relations(k_max=5, terms=9, z_max=8)
    reports += elliptic.verify_wp_structure(k_max=5, terms=9, z_max=8)
    for w in range(1, 7):
        reports += elliptic.verify_residue_identities(w, terms=6)
    for w in range(1, 6):
        reports.append(elliptic.verify_expansion_identity(w, terms=6, i_max=8, n_max=6))
    for rep in reports:
        tally.check(rep.passed, f"elliptic {rep.identity} {rep.params}")


def zhu_spectrum(inputs: dict, tally: Tally) -> None:
    from traceform import virasoro, zhu

    for m in inputs["ms"]:
        zp = zhu.zhu_poly(m)
        kac = list(virasoro.minimal_model(m).distinct_weights())
        tally.check(sorted(zp.root_set()) == kac, f"m={m} roots equal the Kac weights")
        tally.check(zp.complete, f"m={m} polynomial splits over Q")
        tally.check(zp.stabilized, f"m={m} ideal polynomial stable between truncations")


WORKLOADS = {"traces": traces, "deep-series": deep_series, "zhu-spectrum": zhu_spectrum}


# -- one repetition --------------------------------------------------------------

def _send(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _layer_metrics(tracer: spans.Tracer, caches: dict[str, list], wall_s: float) -> dict:
    out: dict[str, float] = {}
    for layer, (calls, self_s) in tracer.layer_totals().items():
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.calls"] = calls
    if sum(out[f"{layer}.self_s"] for layer in spans.LAYERS) > wall_s:
        raise RuntimeError("layer self time exceeds the traced wall time")
    for layer in spans.LAYERS:
        infos = [fn.cache_info() for fn in caches.get(f"traceform.{layer}", [])]
        hits = sum(i.hits for i in infos)
        lookups = hits + sum(i.misses for i in infos)
        out[f"{layer}.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        out[f"{layer}.cache_entries"] = sum(i.currsize for i in infos)
    counts = tracer.counters
    out.update((name, counts.get(name, 0)) for name in spans.COUNTERS)
    adds = counts.get("linalg.rowspan_adds", 0)
    out["linalg.rowspan_useful_ratio"] = counts.get("linalg.rowspan_useful", 0) / adds if adds else 0.0
    return out


def main(argv: list[str]) -> int:
    workload, traced = argv[0], argv[1] == "1"
    names = [f"traceform.{layer}" for layer in spans.LAYERS] if traced else WORKLOAD_MODULES[workload]
    modules = {name.split(".")[1]: importlib.import_module(name) for name in names}
    package = Path(sys.modules["traceform"].__file__).resolve().parent
    if not package.is_relative_to(ROOT / "src"):
        raise RuntimeError(f"traceform was imported from {package}, not from {ROOT / 'src'}")
    caches = lru_caches()
    require_cold(caches)
    tracer = spans.Tracer()
    hooks = spans.counter_hooks(sys.modules["traceform.qseries"].PuiseuxSeries) if traced else {}
    scope = spans.tracing(tracer, modules, hooks) if traced else contextlib.nullcontext()
    with scope:
        _send({"ready": True})
        line = sys.stdin.readline()
        if not line.strip():
            return 0
        inputs = json.loads(line)["inputs"]
        tally = Tally()
        start = time.perf_counter()
        WORKLOADS[workload](inputs, tally)
        wall_s = time.perf_counter() - start
    result = {
        "wall_s": wall_s,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        result["layers"] = _layer_metrics(tracer, caches, wall_s)
    _send(result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
