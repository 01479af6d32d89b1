"""Benchmark of the dQMA reproduction: the report, noise sweeps and soundness search.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload report-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/RATIONALE.md`` for why each exists):

* ``report-cold`` - cold serial ``repro-report`` runs, one fresh interpreter each;
* ``report-parallel`` - the same report with ``--parallel``.

Every workload is a closed loop: one client, and the next pass starts when
the previous one ends.  A run interleaves three phases - cold reports,
noise-sweep operations (seeded 256-point depolarizing grids and
generic-channel grids) and soundness-search operations (the Lemma 17
entangled optimum and structured-cheat searches) - giving the reports 40%
of ``--seconds`` and each library phase 30%, so every end-to-end metric is
measured on every workload.  Every time is divided by calibration work timed
in the same run (``calibrate.py``).  ``--trace 1`` replaces the timed run by
a traced run of the workload's reports and prints the per-layer metrics
instead.

The last line of standard output is the result object; the line before it
(``sysspec {...}``) records the system the numbers come from.  The benchmark
writes only below ``.perfbench/`` in the checkout: a bytecode cache and
scratch working directories, removed after each child.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import oracle  # noqa: E402

#: Share of ``--seconds`` for each phase of a timed run.
SHARES = {"report": 0.3, "noise": 0.35, "soundness": 0.35}

#: Fewest passes of each phase in a timed run.
MIN_PASSES = {"report": 8, "noise": 3, "soundness": 3}

#: Fresh-interpreter set-up samples per timed run.
SETUP_SAMPLES = 5

#: Untraced and traced passes of a ``--trace 1`` run; import-profile samples.
TRACE_PASSES = 3
IMPORT_SAMPLES = 3

#: Seconds before a hung child is killed.
CHILD_TIMEOUT = 120

LIBRARY_PHASES = ("noise", "soundness")


#: Workload name -> whether its reports run ``--parallel``.
WORKLOADS = {"report-cold": False, "report-parallel": True}


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def add(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    def merge(self, result: dict) -> None:
        self.attempted += result.get("attempted", 0)
        self.failed += result.get("failed", 0)
        self.problems.extend(result.get("problems", [])[:3])
        if "error" in result:
            self.add([result["error"]])


def child_env() -> Dict[str, str]:
    """Environment of every child: this checkout's ``src``, a warm bytecode cache.

    ``REPRO_*`` variables are dropped so the library runs on its defaults;
    ``PYTHONDONTWRITEBYTECODE`` is dropped and ``PYTHONPYCACHEPREFIX`` points
    into ``.perfbench/`` so cold interpreters load compiled bytecode, as an
    installed package does, instead of recompiling every module.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(STATE / "pycache")
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Scratch:
    """Fresh, empty working directories under ``.perfbench/work``, removed on exit."""

    def __init__(self) -> None:
        self.base = STATE / "work" / f"run-{os.getpid()}"
        self.count = 0

    def __enter__(self) -> "Scratch":
        shutil.rmtree(self.base, ignore_errors=True)
        self.base.mkdir(parents=True)
        return self

    def fresh(self) -> Path:
        self.count += 1
        path = self.base / str(self.count)
        path.mkdir()
        return path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.base, ignore_errors=True)


def run_process(command: List[str], env: Dict[str, str], cwd: Path) -> Tuple[int, float, float, str, str]:
    """Run a child to completion: (exit code, wall s, peak RSS MB, stdout, stderr)."""
    with open(cwd / "stdout.txt", "w+", encoding="utf-8") as stdout, open(
        cwd / "stderr.txt", "w+", encoding="utf-8"
    ) as stderr:
        start = time.perf_counter()
        process = subprocess.Popen(command, cwd=cwd, env=env, stdout=stdout, stderr=stderr)
        timer = threading.Timer(CHILD_TIMEOUT, process.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        process.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        return process.returncode, wall, usage.ru_maxrss / 1024.0, stdout.read(), stderr.read()


class Calibration:
    """Cold ``calibrate.py`` runs of one timed run; a failed one counts as a failure."""

    def __init__(self, env: Dict[str, str], scratch: Scratch, tally: Tally) -> None:
        self.env, self.scratch, self.tally = env, scratch, tally
        self.walls: List[float] = []

    def run(self) -> float:
        workdir = self.scratch.fresh()
        command = [sys.executable, str(BENCH / "calibrate.py")]
        code, wall, _, _, errors = run_process(command, self.env, workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        if code:
            self.tally.add([f"calibration exit {code}: {errors.strip()[-300:]}"])
        self.walls.append(wall)
        return wall

    def paired(self, sample: Callable[[], float], first: bool) -> float:
        """``sample()`` seconds over the seconds of an adjacent calibration.

        The calibration runs before the sample when ``first`` is true and
        after it otherwise, so a drift in host speed during the pair biases
        neither side.
        """
        before = self.run() if first else 0.0
        seconds = sample()
        after = 0.0 if first else self.run()
        return seconds / (before + after)

    def scale(self) -> float:
        """Nominal over median calibration seconds: multiplies a time, divides a rate."""
        return calibrate.NOMINAL_S / median(self.walls)


def cold_report(
    env: Dict[str, str], scratch: Scratch, parallel: bool, reference: str, traced: bool = False
) -> dict:
    """One ``repro-report`` in a fresh interpreter and a fresh working directory.

    The fresh directory means every ``--parallel`` run starts from the same
    (empty) cost-book state.  A nonzero exit, a ``FAILED`` section or text
    that differs from the serial ``reference`` is a failure (an empty
    reference skips the last check).  A traced run goes through ``child.py``.
    """
    workdir = scratch.fresh()
    out = workdir / "report.txt"
    if traced:
        config = {"mode": "report", "parallel": parallel, "out": str(out)}
        command = [sys.executable, str(BENCH / "child.py"), json.dumps(config)]
    else:
        command = [sys.executable, "-m", "repro.experiments.report", str(out)]
        command += ["--parallel"] if parallel else []
    code, wall, rss, stdout, errors = run_process(command, env, workdir)
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    shutil.rmtree(workdir, ignore_errors=True)
    problems = [f"report exit {code}: {errors.strip()[-300:]}"] if code else []
    problems += [f"failed section: {line}" for line in oracle.failed_sections(text)]
    if reference and text != reference and not problems:
        problems = ["report text differs from the serial reference report"]
        problems += oracle.check_report(text, oracle.load_reference())[:3]
    layers = json.loads(stdout.splitlines()[-1])["layers"] if traced and stdout.strip() and not code else {}
    return {"wall": wall, "rss": rss, "text": text, "problems": problems, "layers": layers}


class LibraryChild:
    """A ``child.py`` process; ``operations`` is the pass length it reports with ``READY``."""

    def __init__(self, config: dict, env: Dict[str, str], scratch: Scratch) -> None:
        self.workdir = scratch.fresh()
        self.stderr = open(self.workdir / "stderr.txt", "w+", encoding="utf-8")
        command = [sys.executable, str(BENCH / "child.py"), json.dumps(config)]
        self.process = subprocess.Popen(
            command,
            cwd=self.workdir,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.stderr,
            text=True,
        )
        self.timer = threading.Timer(CHILD_TIMEOUT, self.process.kill)
        self.timer.start()
        words = self.process.stdout.readline().split()
        self.operations = int(words[1]) if words[:1] == ["READY"] and len(words) > 1 else 0

    def step(self) -> bool:
        """One timed operation of a ``serve`` child; False when it failed."""
        try:
            self.process.stdin.write("step\n")
            self.process.stdin.flush()
        except BrokenPipeError:
            return False
        line = self.process.stdout.readline()
        return bool(line.strip()) and json.loads(line)["seconds"] is not None

    def finish(self) -> dict:
        """Close the child and return its JSON result (or ``{"error": ...}``)."""
        try:
            self.process.stdin.close()
        except BrokenPipeError:
            pass
        lines = self.process.stdout.read().splitlines()
        code = self.process.wait()
        self.timer.cancel()
        self.stderr.seek(0)
        errors = self.stderr.read()[-300:]
        self.stderr.close()
        shutil.rmtree(self.workdir, ignore_errors=True)
        if code or not lines:
            return {"error": f"child exit {code}: {errors}"}
        return json.loads(lines[-1])


def interleave(
    steps: Dict[str, Callable[[], object]],
    shares: Dict[str, float],
    seconds: float,
    minimum: Dict[str, int],
) -> Dict[str, float]:
    """Run steps one at a time, always the one furthest behind its share of time.

    A step is one report or one library operation.  Interleaving spreads
    every phase over the whole run, so each sees the same mix of fast and
    slow spells of the host.  Stops once ``seconds`` have passed and every
    step ran its minimum count.
    """
    spent = dict.fromkeys(steps, 0.0)
    count = dict.fromkeys(steps, 0)
    start = time.perf_counter()
    while True:
        behind = [name for name in steps if count[name] < minimum[name]]
        if not behind and time.perf_counter() - start >= seconds:
            return spent
        name = min(behind or steps, key=lambda step: spent[step] / shares[step])
        began = time.perf_counter()
        steps[name]()
        spent[name] += time.perf_counter() - began
        count[name] += 1


def import_profile(env: Dict[str, str], scratch: Scratch) -> Dict[str, float]:
    """``python -X importtime`` of the report module: per-package import seconds."""
    marker = "perfbench-import-start"
    code = f"import sys; sys.stderr.write('{marker}\\n'); import repro.experiments.report"
    workdir = scratch.fresh()
    _, _, _, _, errors = run_process([sys.executable, "-X", "importtime", "-c", code], env, workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    entries = []
    for line in errors.split(marker, 1)[-1].splitlines():
        parts = line[len("import time:") :].split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[0].strip().isdigit():
            continue  # the column header, or not an import line
        entries.append((parts[2].strip(), int(parts[0]) / 1e6, int(parts[1]) / 1e6))

    def cumulative(package: str) -> float:
        return next((total for name, _, total in entries if name == package), 0.0)

    return {
        "import.total_s": sum(own for _, own, _ in entries),
        "import.numpy_s": cumulative("numpy"),
        "import.networkx_s": cumulative("networkx"),
        "import.repro_self_s": sum(own for name, own, _ in entries if name.split(".")[0] == "repro"),
        "import.asyncio_s": cumulative("asyncio"),
        "import.multiprocessing_s": cumulative("multiprocessing"),
        "import.lint_s": cumulative("repro.lint"),
    }


def system_spec(env: Dict[str, str]) -> dict:
    """Interpreter, numpy and BLAS build, thread settings, CPUs and commit."""
    probe = (
        "import json, platform, sys, numpy\n"
        "deps = numpy.show_config(mode='dicts').get('Build Dependencies', {})\n"
        "blas = {k: ' '.join(str(deps.get(k, {}).get(f, '')) for f in ('name', 'version'))"
        " for k in ('blas', 'lapack')}\n"
        "print(json.dumps({'python': sys.version.split()[0], 'executable': sys.executable,"
        " 'platform': platform.platform(), 'numpy': numpy.__version__, 'blas': blas}))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT
    )
    if completed.returncode == 0:
        spec = json.loads(completed.stdout)
    else:
        spec = {"probe_error": completed.stderr[-300:]}
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    spec["thread_env"] = {name: os.environ.get(name) for name in threads}
    spec["nproc"] = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    spec["cpu_count"] = os.cpu_count()
    spec["bytecode"] = "compiled ahead into .perfbench/pycache; PYTHONDONTWRITEBYTECODE unset for children"
    spec["commit"] = git_commit()
    return spec


def git_commit() -> str:
    """The checkout's commit, or ``unknown`` when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    completed = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT
    )
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def prepare(env: Dict[str, str], scratch: Scratch, tally: Tally, parallel: bool) -> str:
    """Compile bytecode, then warm up with untimed reports; returns the serial reference text.

    The serial report is checked cell by cell against the pinned reference;
    the untimed ``--parallel`` report must match it byte for byte.
    """
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro")],
        env=env,
        stdout=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT,
        check=True,
    )
    serial = cold_report(env, scratch, parallel=False, reference="")
    tally.add(serial["problems"] or oracle.check_report(serial["text"], oracle.load_reference()))
    if parallel:
        tally.add(cold_report(env, scratch, parallel=True, reference=serial["text"])["problems"])
    return serial["text"]


def setup_sample(env: Dict[str, str], scratch: Scratch, tally: Tally) -> float:
    """Set-up time of a fresh interpreter: ``import repro.experiments.report``."""
    workdir = scratch.fresh()
    command = [sys.executable, "-c", "import repro.experiments.report"]
    code, wall, _, _, errors = run_process(command, env, workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    tally.add([f"import exit {code}: {errors[-300:]}"] if code else [])
    return wall


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def timed_run(parallel: bool, seed: int, seconds: float, env, scratch, tally: Tally) -> Dict[str, float]:
    """The end-to-end metrics of one run.

    Report and set-up times are medians over the run of (sample / paired
    calibration); library times are per-operation medians divided by the
    run's median calibration.  Both read as seconds at the calibration's
    nominal speed; see ``calibrate.py``.
    """
    reference = prepare(env, scratch, tally, parallel)
    calibration = Calibration(env, scratch, tally)
    setups = [
        calibration.paired(lambda: setup_sample(env, scratch, tally), index % 2 == 1)
        for index in range(SETUP_SAMPLES)
    ]
    children = {
        name: LibraryChild({"mode": "serve", "phase": name, "seed": seed}, env, scratch)
        for name in LIBRARY_PHASES
    }
    reports: List[dict] = []

    def report_pass() -> None:
        runs: List[dict] = []

        def sample() -> float:
            runs.append(cold_report(env, scratch, parallel, reference))
            return runs[0]["wall"]

        ratio = calibration.paired(sample, len(reports) % 2 == 1)
        tally.add(runs[0]["problems"])
        reports.append({**runs[0], "ratio": ratio})

    steps: Dict[str, Callable[[], object]] = {"report": report_pass}
    sizes = {"report": 1}
    for name, child in children.items():
        steps[name] = child.step
        sizes[name] = max(child.operations, 1)
    minimum = {name: MIN_PASSES[name] * sizes[name] for name in steps}
    spent = interleave(steps, SHARES, seconds, minimum)
    metrics: Dict[str, float] = {
        "report_wall_s": median([run["ratio"] for run in reports]) * calibrate.NOMINAL_S,
        "setup_s": median(setups) * calibrate.NOMINAL_S,
        "peak_rss_mb": median([run["rss"] for run in reports]),
    }
    scale = calibration.scale()
    results = {name: child.finish() for name, child in children.items()}
    for result in results.values():
        tally.merge(result)
        for name, value in result.get("metrics", {}).items():
            metrics[name] = value / scale if name.endswith("_per_s") else value * scale
    samples = {
        "report_wall_s": [run["wall"] for run in reports],
        "report_ratio": [run["ratio"] for run in reports],
        "setup_ratio": setups,
        "phase_s": spent,
        **{name: result.get("seconds", []) for name, result in results.items()},
        "calibration_s": calibration.walls,
    }
    sys.stderr.write("perfbench: samples " + json.dumps(samples) + "\n")
    return metrics


def traced_run(parallel: bool, env, scratch, tally: Tally) -> Dict[str, float]:
    """Per-layer metrics of the workload's reports, plus the tracing overhead.

    The overhead is the best traced report minus the best untraced report.
    """
    reference = prepare(env, scratch, tally, parallel)
    profiles = [import_profile(env, scratch) for _ in range(IMPORT_SAMPLES)]
    layers = {key: median([profile[key] for profile in profiles]) for key in profiles[0]}
    runs = {}
    for traced in (False, True):
        runs[traced] = [cold_report(env, scratch, parallel, reference, traced) for _ in range(TRACE_PASSES)]
        for run in runs[traced]:
            silent = traced and not run["layers"]
            tally.add(run["problems"] or (["traced report printed no layers"] if silent else []))
    samples = [run["layers"] for run in runs[True] if run["layers"]]
    for key in samples[0] if samples else ():
        layers[key] = median([sample.get(key, 0.0) for sample in samples])
    traced_s = [run["wall"] for run in runs[True]]
    untraced_s = [run["wall"] for run in runs[False]]
    layers["trace.wall_s"] = min(traced_s)
    layers["trace.overhead_s"] = min(traced_s) - min(untraced_s)
    return layers


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"perfbench: no repro sources or BENCHMARK.json under {ROOT}; nothing to measure\n")
        return 2
    declared = json.loads(spec_path.read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    parallel = WORKLOADS[args.workload]
    env = child_env()
    tally = Tally()
    with Scratch() as scratch:
        print("sysspec " + json.dumps(system_spec(env)), flush=True)
        if args.trace:
            values = traced_run(parallel, env, scratch, tally)
        else:
            values = timed_run(parallel, args.seed, args.seconds, env, scratch, tally)
    missing = [entry["name"] for entry in declared if entry["name"] not in values]
    if missing and not args.trace:
        tally.add([f"metrics not measured: {missing}"])
    for problem in tally.problems[:10]:
        sys.stderr.write(f"perfbench: {problem}\n")
    metrics = {
        entry["name"]: {"value": float(values.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in declared
    }
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
