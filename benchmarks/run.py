"""End-to-end and per-layer benchmark for phasecorr.

usage, from the root of a checkout:

  python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
  python3 benchmarks/run.py --steadiness RUNS [--workload NAME] [--seed FIRST] [--seconds S] [--smoke]

A run sets up the workload's inputs from the seed, then times operations
one at a time (closed loop, one client) for up to ``--seconds`` seconds, and
at least twice so the outputs of two repetitions can be compared byte for
byte. Every command of an operation is one ``python -m phasecorr.cli``
call in a fresh interpreter, run from the checkout's ``src/``, because
users pay interpreter start-up and imports on every call. BLAS and OpenMP
thread pools are capped at the number of usable CPUs.

Calibrations (``calibrate``) are taken before the first operation and, after
each one, for at least ``CAL_SHARE`` of its wall time; the end-to-end times
are the run's wall times scaled by ``CAL_REF_S`` over the median
calibration, so that the host's drifting speed largely cancels. An
operation starts only while the longest one so far would still end within
``--seconds``, after the first two.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs the same untraced loop, then one more operation through ``traced.py``,
and prints the per-layer metrics of that operation, including the tracing
overhead against the untraced median. Layers a workload does not reach
read 0. ``--smoke`` runs the same code path on tiny inputs.
``--steadiness`` runs each workload once per seed and reports each
end-to-end metric's median, quartiles and spread against its bound.

Human-readable lines come first; the last line of standard output is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``. Workload
sizes and expected results are in ``spec.json`` next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = json.loads((BENCH_DIR / "spec.json").read_text())
MIN_OPS = 2  # two repetitions, so their outputs can be compared
SETUPS = 3  # setup_s is the median of this many set-ups
CAL_REF_S = 1.0  # times are scaled to a host where one calibration takes this long
# after an operation, calibrate for at least this share of its wall time: more
# would lower the calibration's noise but leave room for fewer operations
CAL_SHARE = 0.3
RUN_LIMIT_S = 170.0  # a command still running then is killed and counted as failed
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MB = 1e6

_now = time.perf_counter


def calibrate() -> float:
    """Seconds this host takes for a fixed mix of work that uses no phasecorr code.

    The mix has the three kinds of work the workloads spend their time on:
    formatting and parsing floats in the interpreter, as the CSV writers and
    readers do; many small numpy calls, as the solver's time steps make; and
    passes over large arrays, as the bispectrum makes. A shared host's speed
    drifts by tens of percent over seconds to minutes, and this work slows
    with it, so a run's wall times divided by the calibrations taken between
    its operations are steadier than the wall times alone. Each kind of
    work is split into short slices taken in turn, so that all three see the
    same spells of slow and fast.
    """
    import numpy as np

    start = _now()
    total = 0.0
    x = np.linspace(0.0, 1.0, 1024)
    a = np.arange(1 << 20, dtype=np.float64)
    for _ in range(15):
        values = [i * 0.001 + 0.5 for i in range(45_000)]
        text = ",".join(f"{v:.10g}" for v in values)
        total += sum(float(cell) for cell in text.split(","))
        for _ in range(950):
            x = np.fft.irfft(np.fft.rfft(x) * 0.999, 1024) + 1e-3
        for _ in range(4):
            a = np.sqrt(a * a + 1.0)[::-1].copy()
    elapsed = _now() - start
    if not (math.isfinite(total) and np.isfinite(x).all() and np.isfinite(a).all()):
        raise RuntimeError("calibration produced a non-finite value")
    return elapsed


class Bench:
    """One benchmark run: workload, size, work directory and child environment."""

    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.size = SPEC["workloads"][workload]["smoke" if smoke else "full"]
        self.smoke_size = SPEC["workloads"][workload]["smoke"]
        self.work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.deadline = _now() + RUN_LIMIT_S
        self.cpus = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.update({var: str(self.cpus) for var in THREAD_VARS})
        self.errors: list[str] = []
        self.planted = None
        self.cals: list[float] = []  # every calibration of the run

    # -- running the CLI ------------------------------------------------------

    def cli(self, args: list[str], log: str, spans: Path | None = None) -> dict:
        """Run one CLI command in a fresh interpreter; wall time, peak RSS, stdout."""
        if spans is None:
            cmd = [sys.executable, "-m", "phasecorr.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced.py"), str(spans), *args]
        logs = self.work / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        with open(logs / f"{log}.out", "w") as out, open(logs / f"{log}.err", "w") as err:
            start = _now()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.work, env=self.env)
            killer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no command running
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = _now() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        lines = (logs / f"{log}.out").read_text().strip().splitlines()
        return {
            "args": args,
            "code": proc.returncode,
            "wall": wall,
            "rss_mb": usage.ru_maxrss * 1024 / MB,
            "last_line": lines[-1].strip() if lines else "",
        }

    # -- workload definitions -------------------------------------------------

    def make_inputs(self, size: dict, dest: str, spans: Path | None = None):
        """Write the workload's input for ``size`` into work/dest.

        Returns what the market generator planted, and None for other workloads.
        """
        (self.work / dest).mkdir(parents=True, exist_ok=True)
        if self.workload == "triad_analyze":
            run = self.cli(["generate", "triad", "--coupled",
                            "--omega-a", repr(size["omega_a"]), "--omega-b", repr(size["omega_b"]),
                            "--n", str(size["n"]), "--phase-block", str(size["phase_block"]),
                            "--seed", str(self.seed), "--out", dest], f"generate-{dest}", spans)
            if run["code"] != 0:
                raise RuntimeError(f"generate triad exited {run['code']}")
        elif self.workload == "market_analyze":
            from ohlcv import write_ohlcv

            return write_ohlcv(self.work / dest / "bars.csv", size["bars"], self.seed)
        return None

    def commands(self, size: dict, src: str, tag: str) -> list[tuple[str, list[str]]]:
        """(output directory, CLI arguments) of each command of one operation."""
        if self.workload == "triad_analyze":
            return [(f"analysis{tag}", ["analyze", f"{src}/series.csv",
                                        "--segments", str(size["segments"]),
                                        "--out", f"analysis{tag}"]),
                    (f"report{tag}", ["report", f"analysis{tag}", "--out", f"report{tag}"])]
        if self.workload == "market_analyze":
            return [(f"analysis{tag}", ["analyze", f"{src}/bars.csv", "--ohlc",
                                        "--transform", "log_return",
                                        "--segment-length", str(size["segment_length"]),
                                        "--out", f"analysis{tag}"])]
        return [(f"sim{tag}", ["simulate", "burgers", "--n", str(size["n"]),
                               "--dt", repr(size["dt"]), "--nu", repr(size["nu"]),
                               "--forcing", repr(size["forcing"]),
                               "--steps", str(size["steps"]), "--seed", str(self.seed),
                               "--out", f"sim{tag}"])]

    def check(self, size: dict, runs: list[dict], outs: list[Path]) -> list[str]:
        """Errors in one operation's results; empty when it is correct."""
        errors = [f"{' '.join(r['args'][:2])} exited {r['code']}" for r in runs if r["code"]]
        if errors:
            return errors
        if "expected_verdict" in size and runs[0]["last_line"] != size["expected_verdict"]:
            errors.append(f"verdict {runs[0]['last_line']!r}, expected {size['expected_verdict']!r}")
        if "expected_peak" in size and not self.true_peaks(outs[0], size):
            errors.append(f"no hotspot within 1 bin of {size['expected_peak']}")
        if "expected_segments" in size:
            found = read_hotspot_field(outs[0], "segments_averaged")
            if found != str(size["expected_segments"]):
                errors.append(f"segments_averaged {found}, expected {size['expected_segments']}")
        if "steps" in size:
            probe = outs[0] / "probe.csv"
            rows = probe.read_text().splitlines()[1:] if probe.exists() else []
            if len(rows) != size["steps"]:
                errors.append(f"probe has {len(rows)} rows, expected {size['steps']}")
            elif not all(math.isfinite(float(r.split(",")[1])) for r in rows):
                errors.append("probe has a non-finite value")
        return errors

    def true_peaks(self, analysis: Path, size: dict) -> int:
        """Reported hotspots within one bin of the planted triad."""
        if "expected_peak" not in size:
            return 0
        k1, k2 = size["expected_peak"]
        return sum(abs(a - k1) <= 1 and abs(b - k2) <= 1 for a, b in read_hotspots(analysis))

    # -- set-up and operations ------------------------------------------------

    def setup(self) -> list[float]:
        """Make the inputs and warm up on a tiny input; repeated, timed each time."""
        walls, digests = [], set()
        for _ in range(SETUPS):
            shutil.rmtree(self.work, ignore_errors=True)
            self.work.mkdir(parents=True)
            start = _now()
            self.planted = self.make_inputs(self.size, "input")
            self.make_inputs(self.smoke_size, "warm_input")
            for _, args in self.commands(self.smoke_size, "warm_input", "_warm"):
                self.cli(args, "warm")
            walls.append(_now() - start)
            digests.add(tree_digest([self.work / "input"]))
        if len(digests) != 1:
            self.errors.append("the same seed gave different inputs")
        return walls

    def operation(self, label: str, traced: bool = False) -> dict:
        plan = self.commands(self.size, "input", "")
        outs = [self.work / out for out, _ in plan]
        for out in outs:
            shutil.rmtree(out, ignore_errors=True)
        runs, dumps = [], []
        for i, (_, args) in enumerate(plan):
            spans = self.work / "spans" / f"{label}-{i}.json" if traced else None
            if spans is not None:
                spans.parent.mkdir(exist_ok=True)
            runs.append(self.cli(args, f"{label}-{i}", spans))
            if spans is not None and spans.exists():
                dumps.append(json.loads(spans.read_text()))
        errors = self.check(self.size, runs, outs)
        return {
            "command_wall_s": runs[0]["wall"],
            "pipeline_wall_s": sum(r["wall"] for r in runs),
            "peak_rss_mb": max(r["rss_mb"] for r in runs),
            "output_mb": sum(f.stat().st_size for f in files(outs)) / MB,
            "digest": tree_digest(outs),
            "errors": errors,
            "dumps": dumps,
            "outs": outs,
        }

    def loop(self, seconds: float) -> list[dict]:
        """Untraced operations, one after another, between calibrations.

        At least MIN_OPS; after that, the next one starts only while the longest
        so far would still end within ``seconds`` of the start.
        """
        ops: list[dict] = []
        start = _now()
        self.calibrate_for(0.0)
        longest = _now() - start
        while len(ops) < MIN_OPS or _now() - start + longest <= seconds:
            began = _now()
            op = self.operation(f"op{len(ops)}")
            self.calibrate_for(CAL_SHARE * op["pipeline_wall_s"])
            if ops and not op["errors"] and op["digest"] != ops[0]["digest"]:
                op["errors"].append("outputs differ from the first repetition")
            ops.append(op)
            self.show(op, f"op {len(ops)}")
            longest = max(longest, _now() - began)
        return ops

    def calibrate_for(self, seconds: float) -> None:
        """Calibrate at least once and for at least ``seconds``."""
        start = _now()
        self.cals.append(calibrate())
        while _now() - start < seconds:
            self.cals.append(calibrate())

    def show(self, op: dict, label: str) -> None:
        print(f"{self.workload} {label}: wall command {op['command_wall_s']:.3f} s, "
              f"pipeline {op['pipeline_wall_s']:.3f} s, rss {op['peak_rss_mb']:.1f} MB, "
              f"output {op['output_mb']:.2f} MB, {'; '.join(op['errors']) or 'ok'}")

    # -- per-layer metrics from spans ----------------------------------------

    def layers(self, op: dict, names: list[str]) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics of one traced operation, and one line per command
        showing how the command's time splits between the CLI and the layers."""
        m = {name: 0.0 for name in names}
        steps: list[float] = []
        coverage = []
        for dump, (_, args) in zip(op["dumps"], self.commands(self.size, "input", "")):
            spans = dump["spans"]
            child = [0.0] * len(spans)
            by_layer: dict[str, float] = {}
            for name, start, end, parent, _ in spans:
                if parent is not None:
                    child[parent] += end - start
                    if spans[parent][0] == "cli.main":
                        layer = name.split(".")[0]
                        by_layer[layer] = by_layer.get(layer, 0.0) + end - start
            main = next(s for s in spans if s[0] == "cli.main")
            main_s = main[2] - main[1]
            parts = [f"cli.self {main_s - sum(by_layer.values()):.4f} s"]
            parts += [f"{k} {v:.4f} s" for k, v in sorted(by_layer.items())]
            coverage.append(f"{self.workload} traced {args[0]}: cli.main {main_s:.4f} s = "
                            + " + ".join(parts))
            for i, (name, start, end, parent, attrs) in enumerate(spans):
                dur = end - start
                if f"{name}_s" in m:
                    m[f"{name}_s"] += dur
                if name == "cli.main":
                    m["cli.self_s"] += dur - child[i]
                elif name == "simulator.run":
                    m["simulator.run_self_s"] += dur - child[i]
                elif name == "simulator.step":
                    steps.append(dur * 1e6)
                elif name == "spectral.bicoherence":
                    m["spectral.bicoherence_calls"] += 1
                prefix = name.split(".")[0]
                for key, value in (attrs or {}).items():
                    m[f"{prefix}.{key}"] += value
        for out in op["outs"]:
            for f in files([out]):
                if out.name.startswith("report"):
                    m["io.bytes.report"] += f.stat().st_size
                elif f.name.startswith("snap_"):
                    m["io.bytes.snapshots"] += f.stat().st_size
                elif f"io.bytes.{f.name}" in m:
                    m[f"io.bytes.{f.name}"] += f.stat().st_size
        if m["spectral.segmented_bispectrum_s"] > 0:
            m["spectral.triple_products_per_s"] = (
                m["spectral.segments"] * m["spectral.grid_bins"] / m["spectral.segmented_bispectrum_s"])
        if m["spectral.hotspots"] > 0:
            m["spectral.true_hotspot_ratio"] = (
                self.true_peaks(op["outs"][0], self.size) / m["spectral.hotspots"])
        if m["market.load_ohlc_csv_s"] > 0:
            m["market.rows_per_s"] = m["market.rows_in"] / m["market.load_ohlc_csv_s"]
        if steps:
            steps.sort()
            m["simulator.steps"] = len(steps)
            m["simulator.step_us_p50"] = statistics.median(steps)
            # the highest percentile that still has ten samples beyond it
            m["simulator.step_us_tail"] = steps[max(0, len(steps) - 11)]
        m["trace.wall_s"] = op["pipeline_wall_s"]
        return m, coverage

    def check_planted(self, m: dict[str, float]) -> None:
        if self.planted is None:
            return
        for key, want in vars(self.planted).items():
            if m[f"market.{key}"] != want:
                self.errors.append(f"market.{key} = {m[f'market.{key}']:g}, planted {want}")

    def traced_generate(self) -> float:
        """Trace one generate of the input; it must match the set-up's bytes."""
        if self.workload != "triad_analyze":
            return 0.0
        spans = self.work / "spans" / "generate.json"
        spans.parent.mkdir(exist_ok=True)
        self.make_inputs(self.size, "traced_input", spans)
        if tree_digest([self.work / "traced_input"]) != tree_digest([self.work / "input"]):
            self.errors.append("traced generate differs from the set-up input")
        dump = json.loads(spans.read_text())
        return sum(e - b for name, b, e, _, _ in dump["spans"] if name == "synthetic.gen_triad")


def files(dirs: list[Path]) -> list[Path]:
    return [f for d in dirs if d.exists() for f in sorted(d.rglob("*")) if f.is_file()]


def tree_digest(dirs: list[Path]) -> str:
    """Hash of the files under ``dirs``, by path relative to their directory."""
    h = hashlib.sha256()
    for d in dirs:
        for f in files([d]):
            h.update(f"{f.relative_to(d)}\0".encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def read_hotspot_field(analysis: Path, field: str) -> str | None:
    path = analysis / "hotspots.txt"
    for line in path.read_text().splitlines() if path.exists() else ():
        key, sep, value = line.partition(":")
        if sep and key.strip() == field:
            return value.strip()
    return None


def read_hotspots(analysis: Path) -> list[tuple[int, int]]:
    """(k1, k2) of every hotspot row in hotspots.txt."""
    path = analysis / "hotspots.txt"
    found = []
    for line in path.read_text().splitlines() if path.exists() else ():
        cells = line.split(",")
        if len(cells) >= 2 and cells[0].isdigit() and cells[1].isdigit():
            found.append((int(cells[0]), int(cells[1])))
    return found


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def describe_host(cpus: int) -> str:
    import numpy

    return (f"host: python {platform.python_version()}, numpy {numpy.__version__}, "
            f"{platform.machine()} {platform.platform()}, {cpus} usable CPUs, "
            f"{'/'.join(THREAD_VARS)}={cpus}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    bench = Bench(workload, seed, smoke)
    spec = benchmark_json()
    print(describe_host(bench.cpus))
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        setup_walls = bench.setup()
        print(f"{workload} set-up: " + ", ".join(f"{t:.3f} s" for t in setup_walls))
        ops = bench.loop(seconds)
        metrics: dict[str, float] = {}
        if not trace:
            # one factor for the whole run, from the median of its calibrations,
            # so that one caught in a short spell of slow or fast does not move it
            factor = CAL_REF_S / statistics.median(bench.cals)
            for key in ("command", "pipeline"):
                metrics[f"{key}_s"] = factor * statistics.median(op[f"{key}_wall_s"] for op in ops)
            metrics["setup_s"] = factor * statistics.median(setup_walls)
            for key in ("peak_rss_mb", "output_mb"):
                metrics[key] = statistics.median(op[key] for op in ops)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        else:
            names = [m["name"] for m in spec["per_layer"]]
            gen_triad_s = bench.traced_generate()
            traced = bench.operation("traced", traced=True)
            if not traced["errors"] and traced["digest"] != ops[0]["digest"]:
                traced["errors"].append("traced outputs differ from untraced ones")
            bench.show(traced, "traced")
            metrics, coverage = bench.layers(traced, names)
            print("\n".join(coverage))
            metrics["synthetic.gen_triad_s"] = gen_triad_s
            metrics["trace.overhead_s"] = (
                metrics["trace.wall_s"] - statistics.median(op["pipeline_wall_s"] for op in ops))
            bench.check_planted(metrics)
            ops.append(traced)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        failed = sum(bool(op["errors"]) for op in ops)
        summarise(workload, ops, metrics, bench.cals, trace)
        for error in bench.errors:
            print(f"{workload} error: {error}")
        return {
            "correct": failed == 0 and not bench.errors,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
        }
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:  # another run is still using it
            pass


def summarise(workload: str, ops: list[dict], metrics: dict[str, float], cals: list[float],
              trace: bool) -> None:
    """Print the end-to-end metrics per command: analyze_s, report_s, simulate_s, error_rate."""
    failed = sum(bool(op["errors"]) for op in ops)
    print(f"{workload}: error_rate {failed}/{len(ops)} = {failed / len(ops):.3f}")
    if trace:
        return
    factor = CAL_REF_S / statistics.median(cals)
    print(f"{workload}: calibrations " + ", ".join(f"{c:.3f}" for c in cals)
          + f" s; times below are wall times x {factor:.4f}")
    main = "simulate_s" if workload == "burgers_simulate" else "analyze_s"
    wall = statistics.median(op["command_wall_s"] for op in ops)
    print(f"{workload}: {main} {metrics['command_s']:.4f} s ({wall:.4f} s wall, "
          f"median of {len(ops)})")
    if workload == "triad_analyze":
        report = statistics.median(op["pipeline_wall_s"] - op["command_wall_s"] for op in ops)
        print(f"{workload}: report_s {factor * report:.4f} s ({report:.4f} s wall, "
              f"median of {len(ops)})")
    print(f"{workload}: setup_s {metrics['setup_s']:.4f} s (median of {SETUPS}), "
          f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB, output_mb {metrics['output_mb']:.3f} MB")


def steadiness(runs: int, workloads: list[str], first_seed: int, seconds: float | None,
               smoke: bool) -> int:
    """Run each workload once per seed; report median, quartiles and spread per metric."""
    spec = benchmark_json()
    seconds = seconds or spec["run_seconds"]
    all_ok = True
    for workload in workloads:
        results = []
        for seed in range(first_seed, first_seed + runs):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            start = _now()
            proc = subprocess.Popen(cmd + (["--smoke"] if smoke else []), cwd=ROOT,
                                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            try:
                out, _ = proc.communicate()
            except BaseException:  # let the run stop its own command and clean up
                proc.terminate()
                proc.wait()
                raise
            if proc.returncode != 0:
                print(out)
                return 1
            result = json.loads(out.strip().splitlines()[-1])
            results.append(result)
            print(f"{workload} seed {seed}: {_now() - start:.1f} s, correct {result['correct']}, "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()))
            print("\n".join(f"  {line}" for line in out.splitlines()
                             if "calibrations" in line or "s wall" in line))
            all_ok &= result["correct"]
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            gated = metric["name"] != "setup_s"
            verdict = ("steady" if spread < metric["bound"] / 3 else
                       "within bound" if spread <= metric["bound"] else "TOO WIDE")
            all_ok &= spread <= metric["bound"] or not gated
            print(f"{workload} {metric['name']}: median {median:.6g} {metric['unit']}, "
                  f"q1 {q1:.6g}, q3 {q3:.6g}, spread {spread:.4f} of median, "
                  f"bound {metric['bound']}: {verdict if gated else 'not gated'}")
    return 0 if all_ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, same code path")
    parser.add_argument("--steadiness", type=int, metavar="RUNS",
                        help="run each workload RUNS times with successive seeds")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so running commands are stopped and work files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "phasecorr" / "cli.py").is_file():
        print(f"phasecorr sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.steadiness:
        workloads = [args.workload] if args.workload else list(SPEC["workloads"])
        return steadiness(args.steadiness, workloads, args.seed, args.seconds, args.smoke)
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
