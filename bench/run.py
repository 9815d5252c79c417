"""Cold-process benchmark of the traceform pipeline.

Usage, from the root of a checkout:

    python3 bench/run.py --workload traces --seed 1 --seconds 30 --trace 0

Workloads (bench/README.md says why each was chosen and what should move):

    traces        `verify traces`, then `modular-check` at three seeded tau
    deep-series   the four trace cases solved to 300 coefficients, compared
                  with eta powers and round-tripped through the cache format,
                  then the elliptic suites
    zhu-spectrum  zhu_poly(m) for m = 1, 2, 3 against the Kac weights

Every repetition runs in a fresh interpreter (bench/worker.py), so the
package's lru caches start empty, as they do for a command-line user. The
load is a closed loop: one repetition at a time, single-threaded.

With --trace 0 the run repeats the workload until --seconds have passed and
reports the medians over the repetitions of wall_s (ready to verified
result), setup_s (spawn to ready) and peak_rss_mb. With --trace 1 it runs one
plain and one traced repetition and reports the per-layer metrics of the
traced one. Metric names and units come from BENCHMARK.json, and the run
fails if it measured a different set.

The line before the last records the seed, the inputs and every repetition. The
last line is the result: {"correct", "attempted", "failed", "metrics"}, where
attempted and failed count exact checks summed over the repetitions.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("traces", "deep-series", "zhu-spectrum")
RUN_LIMIT_S = 170       # every worker is killed once a run has lasted this long


def make_inputs(workload: str, seed: int) -> dict:
    """The inputs of one run; the same seed always gives the same inputs."""
    rng = random.Random(seed)
    if workload == "traces":
        # Im(-1/tau) >= 0.8 / 1.69 > 0.47, so tau and -1/tau both sit where
        # the 80-term series converge to well below the 1e-6 tolerance.
        return {"taus": [[round(rng.uniform(-0.5, 0.5), 4), round(rng.uniform(0.8, 1.2), 4)]
                         for _ in range(3)]}
    if workload == "deep-series":
        return {"case_order": rng.sample([1, 2, 3, 4], 4)}
    if workload == "zhu-spectrum":
        return {"ms": rng.sample([1, 2, 3], 3)}
    raise ValueError(f"unknown workload {workload!r}")


class Worker:
    """One fresh interpreter running bench/worker.py, killed at the deadline.

    The interpreter runs with -S, so that set-up time is the interpreter's own
    start and the package's imports, not the site-packages of the host.
    """

    def __init__(self, workload: str, traced: bool, deadline: float) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "worker.py"), workload, "1" if traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
        self._timer = threading.Timer(max(0.0, deadline - start), self.proc.kill)
        self._timer.daemon = True
        self._timer.start()
        try:
            self._receive("ready")
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def _receive(self, key: str) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker ended before sending {key!r}")
        msg = json.loads(line)
        if key not in msg:
            raise RuntimeError(f"worker sent {line.strip()!r}, expected {key!r}")
        return msg

    def run(self, inputs: dict) -> dict:
        """Send the inputs; return the repetition's result with its setup_s."""
        try:
            self.proc.stdin.write(json.dumps({"inputs": inputs}) + "\n")
            self.proc.stdin.flush()
            return dict(self._receive("wall_s"), setup_s=self.setup_s)
        finally:
            self.close()

    def close(self) -> None:
        """Let a waiting worker quit, wait for it, and check that it exited cleanly."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self.proc.wait()
        self._timer.cancel()
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")


def measure(workload: str, seconds: int, traced: bool, inputs: dict) -> tuple[list, dict]:
    """(repetition results, metrics) of one run."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    if traced:
        plain = Worker(workload, False, deadline).run(inputs)
        rep = Worker(workload, True, deadline).run(inputs)
        metrics = dict(rep.pop("layers"), **{"trace.overhead_s": rep["wall_s"] - plain["wall_s"]})
        return [plain, rep], metrics
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        reps.append(Worker(workload, False, deadline).run(inputs))
    metrics = {name: statistics.median(r[name] for r in reps)
               for name in ("wall_s", "setup_s", "peak_rss_mb")}
    return reps, metrics


def declared_units(traced: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "traceform" / "__init__.py").is_file():
        print(f"error: no traceform sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    units = declared_units(args.trace == 1)
    inputs = make_inputs(args.workload, args.seed)
    reps, metrics = measure(args.workload, args.seconds, args.trace == 1, inputs)
    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    failures = [f for r in reps for f in r["failures"]]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "inputs": inputs, "repetitions": reps}))
    result = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
