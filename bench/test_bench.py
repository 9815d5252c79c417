"""Self-tests of the benchmark: cold start, check counting, span accounting, seeds.

Run from the root of the repository:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from traceform import cli, linalg, mde, qseries, virasoro, zhu  # noqa: E402

LAYER_MODULES = {layer: sys.modules[f"traceform.{layer}"] for layer in spans.LAYERS}


def _clear_caches() -> dict[str, list]:
    caches = worker.lru_caches()
    for fns in caches.values():
        for fn in fns:
            fn.cache_clear()
    return caches


def test_cold_guard_trips_on_a_warm_in_process_rerun():
    caches = _clear_caches()
    worker.require_cold(caches)
    worker.zhu_spectrum({"ms": [1]}, worker.Tally())
    with pytest.raises(RuntimeError, match="warm"):
        worker.require_cold(caches)


def test_one_changed_coefficient_fails_exactly_one_check():
    want = qseries.eta_power(Fraction(1, 5), 20)
    coeffs = list(want.coeffs)
    coeffs[7] += 1
    bad = qseries.PuiseuxSeries(want.lam, coeffs, want.weight)
    tally = worker.Tally()
    worker.compare_series(tally, "unchanged", want, want)
    assert (tally.attempted, tally.failures) == (1, [])
    worker.compare_series(tally, "changed", bad, want)
    assert (tally.attempted, tally.failures) == (2, ["changed"])


def test_a_failed_cli_report_fails_exactly_one_check(monkeypatch):
    payload = {"reports": [{"check_name": "a", "status": "pass"},
                           {"check_name": "b", "status": "fail"},
                           {"check_name": "c", "status": "pass"}]}

    def stub(argv):
        print(json.dumps(payload))
        return 1

    monkeypatch.setattr(cli, "run", stub)
    tally = worker.Tally()
    worker.tally_cli(tally, ["--json", "verify", "traces"])
    assert tally.attempted == 3
    assert len(tally.failures) == 1 and "b fail" in tally.failures[0]
    with pytest.raises(RuntimeError, match="exit code"):
        worker.record_cli(worker.Tally(), 0, payload, "stub")


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 5.0, 6.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    tracer.open("mde.a")        # 0 .. 10
    tracer.open("qseries.b")    # 1 .. 3
    tracer.close()
    tracer.open("mde.c")        # 4 .. 6
    tracer.open("linalg.d")     # 4.5 .. 5
    tracer.close()
    tracer.close()
    tracer.close()
    assert tracer.totals == {"mde.a": [1, 6.0], "qseries.b": [1, 2.0],
                             "mde.c": [1, 1.5], "linalg.d": [1, 0.5]}
    totals = tracer.layer_totals()
    assert totals["mde"] == (2, 7.5) and totals["qseries"] == (1, 2.0)
    assert totals["linalg"] == (1, 0.5) and totals["cli"] == (0, 0.0)


def test_layer_self_time_fits_in_the_traced_wall_time():
    caches = _clear_caches()
    original = mde.derive_recursion
    tracer = spans.Tracer()
    with spans.tracing(tracer, LAYER_MODULES, spans.counter_hooks(qseries.PuiseuxSeries)):
        assert mde.derive_recursion is not original
        start = time.perf_counter()
        worker.tally_cli(worker.Tally(), ["--json", "verify", "traces", "--terms", "5"])
        wall_s = time.perf_counter() - start
    metrics = worker._layer_metrics(tracer, caches, wall_s)
    assert sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS) <= wall_s
    for layer in ("cli", "mde", "virasoro", "bracket", "qseries", "linalg"):
        assert metrics[f"{layer}.calls"] > 0, layer
    assert metrics["zhu.calls"] == 0
    # solve_dense is imported into mde by name; the call is still traced
    assert "linalg.solve_dense" in tracer.totals
    assert metrics["mde.derivations"] == 4 and metrics["mde.frobenius_terms"] == 20
    assert mde.derive_recursion is original
    assert mde.solve_dense is linalg.solve_dense and zhu.l_action is virasoro.l_action
    assert not hasattr(linalg.RowSpan.add, "__wrapped__")


def test_same_seed_same_inputs():
    for workload in run.WORKLOADS:
        assert run.make_inputs(workload, 11) == run.make_inputs(workload, 11)
    assert run.make_inputs("traces", 11) != run.make_inputs("traces", 12)
    for seed in range(20):
        for re, im in run.make_inputs("traces", seed)["taus"]:
            assert -0.5 <= re <= 0.5 and 0.8 <= im <= 1.2
        assert sorted(run.make_inputs("deep-series", seed)["case_order"]) == [1, 2, 3, 4]
        assert sorted(run.make_inputs("zhu-spectrum", seed)["ms"]) == [1, 2, 3]


def test_a_run_records_its_seed_and_inputs_and_passes(capsys):
    assert run.main(["--workload", "zhu-spectrum", "--seed", "3", "--seconds", "1"]) == 0
    record, result = (json.loads(line) for line in capsys.readouterr().out.splitlines()[-2:])
    assert record["seed"] == 3 and record["inputs"] == run.make_inputs("zhu-spectrum", 3)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 9
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}


def test_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "traces", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
