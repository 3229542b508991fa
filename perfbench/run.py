"""Benchmark for the llrgraph command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-fig1 --seed 0 --seconds 15 --trace 0

Without tracing, each workload runs its llrgraph commands as fresh processes,
one at a time, in timed passes until ``--seconds`` have passed and the
workload's minimum number of passes have run, and reports end-to-end metrics
as medians over passes. With ``--trace 1`` it drives the same command lines
in-process through ``llrgraph.cli.main`` and reports per-layer metrics
instead. Either way the outputs are checked against reference computations,
and the last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: Set-up is repeated and its median reported, so that set-up time is steady.
SETUP_REPEATS = 3
#: Import-only processes timed for cli.startup_s.
STARTUP_REPEATS = 3
#: No single llrgraph process may run longer than this.
PROCESS_TIMEOUT_S = 170

OUTPUT_FLAGS = ("--report", "--output", "--pred-out")


@dataclass
class ProcessStats:
    returncode: int
    wall_s: float
    cpu_s: float
    max_rss_mb: float


class Ledger:
    """Operations attempted and failed; each is one llrgraph command."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: operation failed: {what}", file=sys.stderr)


def _env() -> dict[str, str]:
    # BLAS thread variables are passed through untouched on purpose.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(cmd: list[str], cwd: Path, log: Path) -> ProcessStats:
    """Run one process to its end and take its own wall, CPU and max-RSS."""
    with log.open("ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above; Popen must not wait again
    return ProcessStats(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def run_cli(argv: list[str], cwd: Path) -> ProcessStats:
    return run_process([sys.executable, "-m", "llrgraph.cli", *argv], cwd, cwd / "stderr.log")


def outputs_of(argv: list[str]) -> list[str]:
    return [argv[i + 1] for i, flag in enumerate(argv[:-1]) if flag in OUTPUT_FLAGS]


def fresh_dir(path: Path, inputs: Path | None = None) -> Path:
    if inputs is None:
        path.mkdir(parents=True)
    else:
        shutil.copytree(inputs, path)
    return path


def same_outputs(argv: list[str], here: Path, reference: Path) -> bool:
    """Byte-identity of one command's report and artifacts with a reference run."""
    for name in outputs_of(argv):
        mine, theirs = here / name, reference / name
        if not (mine.is_file() and theirs.is_file() and mine.read_bytes() == theirs.read_bytes()):
            return False
    return True


def setup(workload, seed: int, dest: Path, reference: Path | None, ledger: Ledger) -> None:
    """Make the inputs, run the set-up commands and warm the imports.

    A set-up command fails if it exits non-zero or, on a repeat, writes other
    bytes than in the ``reference`` directory.
    """
    fresh_dir(dest)
    workload.make_inputs(seed, dest)
    for argv in workload.setup_ops(seed):
        ok = run_cli(argv, dest).returncode == 0
        ledger.record(ok and (reference is None or same_outputs(argv, dest, reference)), " ".join(argv))
    run_process([sys.executable, "-c", "import llrgraph.cli"], dest, dest / "stderr.log")


def timed_run(workload, seed: int, seconds: float, work: Path) -> tuple[Ledger, dict, Path]:
    ledger = Ledger()
    setup_times = []
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        setup(workload, seed, work / f"setup{rep}", work / "setup0" if rep else None, ledger)
        setup_times.append(time.perf_counter() - start)

    inputs = work / "setup0"
    passes: list[list[ProcessStats]] = []
    start = time.perf_counter()
    while len(passes) < workload.min_passes or time.perf_counter() - start < seconds:
        here = fresh_dir(work / f"pass{len(passes)}", inputs)
        stats = []
        for argv in workload.ops(seed):
            stats.append(run_cli(argv, here))
            ok = stats[-1].returncode == 0 and (not passes or same_outputs(argv, here, work / "pass0"))
            ledger.record(ok, " ".join(argv))
        passes.append(stats)

    metrics = {
        "wall_s": (statistics.median(sum(s.wall_s for s in p) for p in passes), "s"),
        "cpu_s": (statistics.median(sum(s.cpu_s for s in p) for p in passes), "s"),
        "peak_rss_mb": (statistics.median(max(s.max_rss_mb for s in p) for p in passes), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    walls = ", ".join(f"{sum(s.wall_s for s in p):.3f}" for p in passes)
    print(f"perfbench: {workload.name} seed={seed}: pass wall_s {walls}", file=sys.stderr)
    return ledger, metrics, work / "pass0"


def _import_cli():
    sys.path.insert(0, str(SRC))
    from llrgraph import cli

    if Path(cli.__file__).resolve().parent != SRC / "llrgraph":
        raise RuntimeError(f"imported llrgraph from {cli.__file__}, not from {SRC}")
    return cli


def in_process_pass(
    cli, ops: list[list[str]], here: Path, reference: Path | None, ledger: Ledger, tracer: spans.Tracer | None
) -> float:
    """Run command lines through cli.main in ``here``; returns their wall time.

    A command fails if it returns non-zero or writes other bytes than in the
    ``reference`` directory.
    """
    previous = os.getcwd()
    os.chdir(here)
    wall = 0.0
    try:
        with open("stderr.log", "a") as err, contextlib.redirect_stderr(err):
            for argv in ops:
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = tracer.call("cli.self_s", cli.main, argv) if tracer else cli.main(argv)
                wall += time.perf_counter() - start
                ok = rc == 0 and (reference is None or same_outputs(argv, here, reference))
                ledger.record(ok, " ".join(argv))
    finally:
        os.chdir(previous)
    return wall


def traced_run(workload, seed: int, work: Path) -> tuple[Ledger, dict, Path, dict]:
    ledger = Ledger()
    inputs = fresh_dir(work / "inputs")
    workload.make_inputs(seed, inputs)
    startup = [run_process([sys.executable, "-c", "import llrgraph.cli"], inputs, work / "stderr.log").wall_s
               for _ in range(STARTUP_REPEATS)]
    cli = _import_cli()
    ops = workload.setup_ops(seed) + workload.ops(seed)

    # The allocation pass goes first: it also warms what the first in-process
    # call pays once, which would otherwise skew the overhead figure.
    memory_ops = workload.setup_ops(seed) + workload.memory_ops(seed)
    with spans.Tracer(memory=True) as memory:
        in_process_pass(cli, memory_ops, fresh_dir(work / "memory", inputs), None, ledger, memory)
    untraced_dir = fresh_dir(work / "untraced", inputs)
    untraced = in_process_pass(cli, ops, untraced_dir, None, ledger, None)
    with spans.Tracer(capture=workload.capture) as tracer:
        traced = in_process_pass(cli, ops, fresh_dir(work / "traced", inputs), untraced_dir, ledger, tracer)

    (work / "spans.json").write_text(json.dumps(tracer.spans))
    metrics = {"cli.startup_s": (statistics.median(startup), "s")}
    metrics.update({name: (value, "s") for name, value in tracer.self_times().items()})
    metrics.update({name: (tracer.counts[name], spans.COUNT_UNITS.get(name, "count")) for name in spans.COUNT_METRICS})
    metrics.update({name: (memory.peaks[name], "MB") for name in spans.PEAK_METRICS})
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.traced_wall_s"] = (traced, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    return ledger, metrics, untraced_dir, tracer.captured


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "llrgraph" / "cli.py").is_file():
        print(f"perfbench: no llrgraph sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.seed}-{'trace' if args.trace else 'timed'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    if args.trace:
        ledger, metrics, out, captured = traced_run(workload, args.seed, work)
    else:
        ledger, metrics, out = timed_run(workload, args.seed, args.seconds, work)
        captured = {}
    try:
        problems = workload.check(args.seed, out, captured)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"outputs could not be read: {exc!r}"]
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
