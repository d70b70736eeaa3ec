#!/usr/bin/env python3
"""covreg benchmark: three seeded workloads driven from one process.

    python3 perfbench/run.py --workload cli_wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, one process each

Each workload is a closed loop with one client: a job starts only when
the previous one has returned. Jobs get fresh seeded inputs, every
job's outputs are checked against plain-numpy oracles outside the timed
interval, and a job that raises, exits nonzero or fails a check is a
failed job. The run imports covreg from ``src/`` of the checkout it
sits in and exits 2 without a result when that is missing.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics of
``spans.py`` plus the tracing overhead, and writes the spans to
``perfbench/_out/``. The last stdout line is the JSON result; the lines
before it print every metric by name with its unit.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
WORKLOAD_NAMES = ("cli_wide", "eval_grid", "baiyin_tall")
SETUP_ROUNDS = 3
RUN_TIMEOUT_S = 170  # a run must end within 180 s
WALL_LIMIT_S = 120  # no new job starts after this, whatever --seconds says
SETUP_TIMEOUT_S = 30


def import_program():
    """Import covreg from this checkout's src/ and the benchmark modules."""
    if not (SRC / "covreg" / "__init__.py").is_file():
        sys.stderr.write(f"error: covreg sources not found under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import covreg

    if SRC.resolve() not in Path(covreg.__file__).resolve().parents:
        sys.stderr.write(f"error: imported covreg from {covreg.__file__}, not {SRC}\n")
        sys.exit(2)
    import spans
    import workloads

    return spans, workloads


def blas_threads():
    """OpenBLAS's thread count, asked of the loaded library; None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def machine() -> dict:
    """Cores, Python, numpy and BLAS of this process; COVREG_THREADS as left."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    default = f"unset, so the program default os.cpu_count() = {os.cpu_count()}"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "COVREG_THREADS": os.environ.get("COVREG_THREADS", default),
    }


def timed_call(wl, job):
    """Runs one job: (seconds, outputs, error); only wl.run is timed."""
    t = time.perf_counter()
    try:
        outputs, error = wl.run(job), None
    except Exception as exc:  # a raising job is a failed job, not a crash
        outputs, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t, outputs, error


def problems_of(wl, job, outputs, error) -> list[str]:
    """The job's failures: its exception, or what the output checks found."""
    if error is not None:
        return [error]
    try:
        return wl.check(job, outputs)
    except Exception as exc:  # unreadable outputs fail the job
        return [f"check raised {type(exc).__name__}: {exc}"]


def attempt(wl, job) -> tuple[float, list[str]]:
    seconds, outputs, error = timed_call(wl, job)
    return seconds, problems_of(wl, job, outputs, error)


def tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with >= 10 jobs beyond it."""
    n = len(times)
    if n < 11:
        return None
    pct = 100.0 * (n - 10) / n
    return pct, sorted(times)[n - 11]


class Run:
    """One workload in this process: set-up, then the timed closed loop."""

    def __init__(self, wl, seed: int, workdir: Path):
        self.wl, self.seed, self.workdir = wl, seed, workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def job_inputs(self, stream: int, index: int):
        seq = np.random.SeedSequence([self.seed, stream, index])
        return self.wl.prepare(seq, self.workdir)

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])
        return not problems

    def warm_up(self, index: int) -> float:
        """One set-up round: seconds from run start to the end of a warm-up job."""
        job = self.job_inputs(0, index)
        seconds, outputs, error = timed_call(self.wl, job)
        done = time.perf_counter() - _T0
        self.record(problems_of(self.wl, job, outputs, error))
        return done

    def setup(self) -> float:
        """Median set-up time of this process and of SETUP_ROUNDS - 1 fresh ones.

        Each fresh process imports covreg, makes its own inputs and runs one
        cold warm-up job, so the median sees import and first-call costs.
        """
        rounds = [self.warm_up(0)]
        for index in range(1, SETUP_ROUNDS):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", self.wl.name,
                   "--seed", str(self.seed), "--setup-round", str(index)]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=SETUP_TIMEOUT_S, check=False)
                result = json.loads(proc.stdout.splitlines()[-1])
            except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
                self.record([f"set-up round {index} gave no result: {exc!r}"])
                continue
            rounds.append(result["setup_s"])
            self.record(result["problems"])
        return statistics.median(rounds)

    def loop(self, seconds: float, job_fn, min_jobs: int = 1) -> None:
        """Calls job_fn(index, inputs) -> job seconds until enough job time."""
        index, total = 0, 0.0
        while index < min_jobs or (
            total < seconds and time.perf_counter() - _T0 < WALL_LIMIT_S
        ):
            total += job_fn(index, self.job_inputs(1, index))
            index += 1


def report_line(name: str, value, unit: str, note: str = "") -> str:
    shown = "n/a" if value is None else f"{value:.6g}"
    return f"  {name:<34} {shown:>12} {unit:<8} {note}".rstrip()


def run_workload(args) -> int:
    spans, workloads = import_program()
    wl = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        run = Run(wl, args.seed, workdir)
        if args.setup_round is not None:
            done = run.warm_up(args.setup_round)
            print(json.dumps({"setup_s": done, "problems": run.problems}))
            return 0
        setup_s = run.setup()
        if args.trace:
            metrics, lines = traced_phase(run, spans, args)
        else:
            metrics, lines = timed_phase(run, args, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("inputs " + json.dumps(wl.properties()))
    for line in lines:
        print(line)
    print(report_line("fail_rate", run.failed / run.attempted, "ratio",
                      f"({run.failed} of {run.attempted} jobs, warm-up included)"))
    for problem in run.problems[:10]:
        print(f"  FAILED: {problem}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


def timed_phase(run: Run, args, setup_s: float):
    times, verified = [], 0

    def job_fn(index, job):
        nonlocal verified
        dt, problems = attempt(run.wl, job)
        times.append(dt)
        verified += run.record(problems)
        return dt

    run.loop(args.seconds, job_fn)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "job_s_p50": (statistics.median(times), "s"),
        "jobs_per_s": (verified / sum(times), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    t = tail(times)
    lines = [
        report_line("job_s_p50", metrics["job_s_p50"][0], "s", f"({len(times)} jobs)"),
        report_line("job_s_tail", t and t[1], "s",
                    f"(p{t[0]:.1f} of {len(times)} jobs)" if t else
                    f"(needs >= 11 jobs, had {len(times)})"),
        report_line("jobs_per_s", metrics["jobs_per_s"][0], "1/s"),
        report_line("setup_s", setup_s, "s", f"(median of {SETUP_ROUNDS} processes)"),
        report_line("peak_rss_mb", rss_mb, "MB"),
    ]
    return metrics, lines


def traced_phase(run: Run, spans, args):
    """Alternates untraced and traced jobs; per-layer metrics of the traced ones."""
    tracer = spans.Tracer()
    plain, traced, totals = [], [], []

    def job_fn(index, job):
        if index % 2 == 0:
            dt, problems = attempt(run.wl, job)
            plain.append(dt)
        else:
            first = len(tracer.spans)
            tracer.job = index
            with tracer.installed():
                root = tracer.open(spans.BENCH, "job")
                try:
                    dt, outputs, error = timed_call(run.wl, job)
                finally:
                    tracer.close(root)
            problems = problems_of(run.wl, job, outputs, error)
            traced.append(dt)
            totals.append(spans.job_totals(tracer.spans[first:]))
        run.record(problems)
        return dt

    run.loop(args.seconds, job_fn, min_jobs=2)
    metrics = spans.layer_metrics(totals)
    plain_p50, traced_p50 = statistics.median(plain), statistics.median(traced)
    metrics["traced.job_s_p50"] = (traced_p50, "s")
    metrics["untraced.job_s_p50"] = (plain_p50, "s")
    metrics["trace.overhead_ratio"] = (traced_p50 / plain_p50 - 1.0, "ratio")
    modules = [f"{layer}.self_s" for layer in spans.LAYERS] + ["other.self_s"]
    covered = math.fsum(metrics[m][0] for m in modules)
    lines = [report_line(k, v, u) for k, (v, u) in metrics.items()]
    lines.append(f"  sum of module self times + other.self_s = {covered:.6g} s; "
                 f"traced.job_s_mean = {metrics['traced.job_s_mean'][0]:.6g} s "
                 f"({len(traced)} traced, {len(plain)} untraced jobs)")
    path = OUT / f"trace-{run.wl.name}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": run.wl.name, "seed": args.seed,
                   "fields": ["id", "parent", "job", "thread", "module", "name",
                              "start", "end", "extra"],
                   "spans": tracer.spans}, fh)
    lines.append(f"  spans written to {path.relative_to(ROOT)}")
    return metrics, lines


def run_all(args) -> int:
    """Every workload in its own process; nonzero exit if any job failed."""
    import_program()
    print("machine " + json.dumps(machine()))
    failed = False
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            print(f"workload {name}: timed out after {RUN_TIMEOUT_S} s")
            failed = True
            continue
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"workload {name}: no result (exit {proc.returncode})")
            failed = True
            continue
        failed |= proc.returncode != 0 or result["failed"] > 0
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="one workload; default: all, each in its own process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="job time to measure (checks are not counted)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-round", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
