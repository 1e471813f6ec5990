"""Self-tests of the benchmark: checkers reject planted faults, job lists
are reproducible, and BENCHMARK.json matches what run.py reports.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

The checkers are fed real ccrflow output from small jobs, so each test also
shows that the unmodified output passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs  # noqa: E402
import layers  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402


def _cli(*argv: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "ccrflow.cli", *argv], cwd=run.ROOT, env=env,
                          check=True, capture_output=True).stdout


def _rejects(check, data: bytes, job: dict) -> bool:
    try:
        check(data, job)
    except refs.CheckFailed:
        return True
    return False


def _replace_line(data: bytes, index: int, edit) -> bytes:
    lines = data.decode().split("\n")
    lines[index] = edit(lines[index])
    return "\n".join(lines).encode()


def _bump(field: str, delta: float) -> str:
    return f"{float(field) + delta:.16e}"


def test_wavefunction_checker_rejects_1e6_perturbation():
    job = jobs.job_list("propagate", 3)[7]  # evolve, linear force, n = 2048
    out = _cli(*job["argv"])
    refs.check_wavefunction(out, job)
    row = 1 + job["grid"][2] // 2

    def perturb(line: str) -> str:
        x, re, im = line.split(",")
        return ",".join((x, _bump(re, 1e-6), im))

    assert _rejects(refs.check_wavefunction, _replace_line(out, row, perturb), job)


def test_kernel_checker_rejects_one_changed_row():
    job = {"kind": "kernel-csv", "params": {"model": "harmonic", "m": 0.9, "omega": 1.2},
           "t": 1.1, "grid": [-4.0, 5.0, 64]}
    out = _cli("kernel", "--model", "harmonic", "--m", "0.9", "--omega", "1.2", "--t", "1.1",
               "--x-min", "-4", "--x-max", "5", "--n", "64")
    refs.check_kernel_csv(out, job)

    def change(line: str) -> str:
        xb, xa, re, im = line.split(",")
        return ",".join((xb, xa, _bump(re, 1e-6 * abs(float(re))), im))

    assert _rejects(refs.check_kernel_csv, _replace_line(out, 1000, change), job)


def test_algebra_checker_rejects_dropped_term():
    job = {"kind": "normord", "argv": ["normord", "(2/3*X - 5/7*P)^6*(a*X + P)"]}
    out = _cli(*job["argv"])
    refs.check_algebra(out, job)
    text = out.decode().rstrip("\n")
    for cut in (text.index(" + "), text.rindex(" - ")):
        # drop the term that follows the separator at `cut`
        rest = text[cut + 3:]
        nxt = min((i for i in (rest.find(" + "), rest.find(" - ")) if i >= 0),
                  default=len(rest))
        dropped = (text[:cut] + rest[nxt:] + "\n").encode()
        assert _rejects(refs.check_algebra, dropped, job)


def test_series_checker_rejects_wrong_coefficient():
    job = {"kind": "series", "model": "harmonic", "order": 12,
           "argv": ["series", "--model", "harmonic", "--order", "12"]}
    out = _cli(*job["argv"])
    refs.check_series(out, job)
    bad = out.replace(b"\n5: ", b"\n5: 2*", 1)
    assert bad != out and _rejects(refs.check_series, bad, job)


def test_verify_checker_rejects_failure_line():
    assert _rejects(lambda data, job: refs.check_verify(data),
                    b"ccrflow verification suite\nresult: FAIL (7/8 checks)\n", {})


def test_same_seed_same_jobs_other_seed_other_numbers():
    def shape(job):
        argv = job["argv"]
        sizes = [argv[argv.index(flag) + 1] for flag in ("--n", "--convergence", "--steps")
                 if flag in argv]
        return (job["kind"], argv[0], sizes, job["known_defect"])

    for workload in jobs.WORKLOADS:
        first = jobs.job_list(workload, 11)
        assert first == jobs.job_list(workload, 11)
        other = jobs.job_list(workload, 12)
        assert [shape(j) for j in first] == [shape(j) for j in other]
        if workload != "verify":
            assert [j["argv"] for j in first] != [j["argv"] for j in other]


def test_self_time_subtracts_union_of_children():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
             ["c", 3.0, 5.0, 0, None], ["d", 2.0, 3.0, 1, None]]
    assert layers.self_times(spans) == [6.0, 2.0, 2.0, 1.0]


def test_host_scale_is_one_on_the_reference_host_and_halves_on_a_slower_one():
    def probes(factor):
        plain = [[{"cal": run.REF_CAL_S * factor}] * 3] * 2
        setup = [{"floor": run.REF_FLOOR_S * factor}] * 4
        return plain, setup

    assert abs(run.host_scale(*probes(1.0)) - 1.0) < 1e-12
    assert abs(run.host_scale(*probes(2.0)) - 0.5) < 1e-12


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)


if __name__ == "__main__":
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name} {exc}")
            else:
                print(f"ok   {name}")
    sys.exit(1 if failed else 0)
