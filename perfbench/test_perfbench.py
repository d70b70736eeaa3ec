"""The benchmark's own tests: correct outputs pass, and every check can fail.

Runs each workload at a small shape, corrupts one output at a time and
requires the check to report it, and requires the runner to count a job
with a corrupted output as failed.
"""

import argparse
import dataclasses
import json

import numpy as np
import pytest

import run
import spans
import workloads

SMALL = {
    "cli_wide": lambda: workloads.CliWide(n=16, t=21),
    "eval_grid": lambda: workloads.EvalGrid(n=20, t=31),
    "baiyin_tall": lambda: workloads.BaiYinTall(n=8, m=32, trials=3),
}


def small_job(name, tmp_path):
    wl = SMALL[name]()
    job = wl.prepare(np.random.SeedSequence([7, 1, 0]), tmp_path)
    return wl, job, wl.run(job)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_correct_outputs_pass(name, tmp_path):
    wl, job, outputs = small_job(name, tmp_path)
    assert wl.check(job, outputs) == []


def scale_first(values):
    values[0] *= 1.001


def scale_record(i, field):
    def edit(payload):
        payload["records"][i][field] *= 1.001
    return edit


def cli_edit(key, edit):
    """Corrupts one JSON output file of a cli_wide job."""
    def corrupt(job, codes):
        path = job["out"][key]
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        return codes
    return corrupt


def cli_scm(job, codes):
    path = job["out"]["scm"]
    rows = path.read_text(encoding="utf-8").splitlines()
    cells = rows[0].split(",")
    cells[1] = repr(float(cells[1]) * 1.01)
    path.write_text("\n".join([",".join(cells)] + rows[1:]) + "\n", encoding="utf-8")
    return codes


def truncate_diagonal(payload):
    """Scales one diagonal entry of the dense output."""
    n = payload["dense"]["n"]
    payload["dense"]["data"][n + 1] *= 1.001


def stability_edit(edit):
    def corrupt(job, out):
        edit(out["stability"])
        return out
    return corrupt


def report_scaled(field, factor):
    return lambda job, out: dataclasses.replace(out, **{field: getattr(out, field) * factor})


# workload -> case -> (corrupt(job, outputs) -> outputs, label the check must name)
CORRUPTIONS = {
    "cli_wide": {
        "exit code": (lambda job, codes: codes[:-1] + [2], "exit codes"),
        "scm csv": (cli_scm, "scm csv"),
        "shrink dense": (cli_edit("shrink", lambda p: scale_first(p["dense"]["data"])),
                         "shrink dense"),
        "shrink factor model": (
            cli_edit("shrink", lambda p: scale_first(p["factor_model"]["xi"])),
            "shrink factor model"),
        "truncate diagonal": (cli_edit("truncate", truncate_diagonal), "truncate diagonal"),
        "eval realized variance": (cli_edit("eval", scale_record(0, "realized_variance")),
                                   "realized_variance"),
        "eval out-of-sample error": (
            cli_edit("eval", scale_record(1, "out_of_sample_error")), "out_of_sample_error"),
    },
    "eval_grid": {
        "grid q": (lambda job, out: {**out, "q": 0.0 if out["q"] else 1.0}, "grid q"),
        "stability realized variance": (
            stability_edit(scale_record(2, "realized_variance")), "realized_variance"),
        "stability truth error": (stability_edit(scale_record(3, "truth_error")),
                                  "truth_error"),
    },
    "baiyin_tall": {
        "observed max": (report_scaled("observed_max", 1.001), "observed_max"),
        "observed min": (report_scaled("observed_min", 0.999), "observed_min"),
    },
}

CASES = [(name, case) for name, cases in CORRUPTIONS.items() for case in cases]


@pytest.mark.parametrize("name,case", CASES)
def test_each_check_can_fail(name, case, tmp_path):
    corrupt, label = CORRUPTIONS[name][case]
    wl, job, outputs = small_job(name, tmp_path)
    problems = wl.check(job, corrupt(job, outputs))
    assert problems, f"{name}: corrupting {case} went unnoticed"
    assert any(label in p for p in problems), problems


@pytest.mark.parametrize("name,case", [CASES[0], CASES[-1]])
def test_corrupted_job_counts_as_failed(name, case, tmp_path, monkeypatch):
    corrupt, _ = CORRUPTIONS[name][case]
    wl = SMALL[name]()
    honest_run = wl.run
    monkeypatch.setattr(wl, "run", lambda job: corrupt(job, honest_run(job)))
    bench = run.Run(wl, seed=3, workdir=tmp_path)
    metrics, _ = run.timed_phase(bench, argparse.Namespace(seconds=0.0), setup_s=1.0)
    assert (bench.attempted, bench.failed) == (1, 1)
    assert metrics["jobs_per_s"][0] == 0.0


def test_raising_job_counts_as_failed(tmp_path, monkeypatch):
    wl = SMALL["eval_grid"]()
    monkeypatch.setattr(wl, "run", lambda job: 1 / 0)
    bench = run.Run(wl, seed=3, workdir=tmp_path)
    run.timed_phase(bench, argparse.Namespace(seconds=0.0), setup_s=1.0)
    assert (bench.attempted, bench.failed) == (1, 1)
    assert "ZeroDivisionError" in bench.problems[0]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_self_times_add_up(name, tmp_path):
    wl = SMALL[name]()
    job = wl.prepare(np.random.SeedSequence([7, 1, 0]), tmp_path)
    tracer = spans.Tracer()
    with tracer.installed():
        root = tracer.open(spans.BENCH, "job")
        outputs = wl.run(job)
        tracer.close(root)
    assert wl.check(job, outputs) == []
    metrics = spans.layer_metrics([spans.job_totals(tracer.spans)])
    parts = sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS)
    parts += metrics["other.self_s"][0]
    assert parts == pytest.approx(metrics["traced.job_s_mean"][0], rel=1e-9)
    assert metrics["traced.job_s_mean"][0] == pytest.approx(root[spans.END] - root[spans.START])
    # Uninstalling restores the program's own functions.
    import covreg.harness
    assert covreg.harness.spectral_decompose.__module__ == "covreg.covariance"
    assert not hasattr(covreg.harness.spectral_decompose, "__wrapped__")


def test_self_times_split_overlapping_threads():
    # Root 0..10 on the main thread; two pool tasks overlap from 2 to 6.
    s = [
        [1, None, 0, 1, "bench", "job", 0.0, 10.0, None],
        [2, 1, 0, 1, "harness", "ThreadPoolExecutor", 1.0, 9.0, 2],
        [3, 2, 0, 2, "harness", "trial", 2.0, 6.0, None],
        [4, 2, 0, 3, "harness", "trial", 4.0, 8.0, None],
        [5, 3, 0, 2, "covariance", "spectral_decompose", 3.0, 5.0, None],
    ]
    self_s = spans.self_times(s)
    assert self_s[1] == pytest.approx(2.0)  # 0-1 and 9-10
    assert self_s[2] == pytest.approx(2.0)  # 1-2 and 8-9
    # 2-3 trial 3 alone; 3-4 spectral alone; 4-5 spectral and trial 4 share;
    # 5-6 trials 3 and 4 share; 6-8 trial 4 alone.
    assert self_s[5] == pytest.approx(1.5)
    assert self_s[3] == pytest.approx(1.5)
    assert self_s[4] == pytest.approx(3.0)
    assert sum(self_s.values()) == pytest.approx(10.0)
