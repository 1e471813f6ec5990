"""ccrflow benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``--workload all`` runs every workload in
turn.  One client runs the workload's jobs in a closed loop, one job at a
time; each job is a fresh ``python -m ccrflow.cli ...`` process, started by
``launch.py``, whose output is checked, outside the timed region, against
``refs`` (which shares no code with ccrflow) and against its own bytes in
every other pass.

``--trace 0`` times passes over the job list for about S seconds and reports,
from each job's median over passes: wall_s, the summed wall time of the
jobs; cpu_s, their summed user+sys time; peak_rss_mb, the largest peak RSS
of any job; and setup_s, the median wall time of eight ``--help`` launches
spread over the run.  Times are scaled by the host's speed during the run
(see ``host_scale``).  ``--trace 1`` alternates an untraced pass with a pass
through ``traced.py``, which wraps the layers from outside, and reports the
per-layer metrics and the tracing overhead.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.  No thread variables are
set, so the program's defaults are what is measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs as joblist
import layers
import refs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / "_work"
# --help launches: SETUP_LAUNCHES before the first pass, then one after every
# pass, topped up at the end to SETUP_TOTAL so that every run takes its median
# over the same number of launches, spread over the run
SETUP_LAUNCHES = 2
SETUP_TOTAL = 8
# Reported times are scaled to a host on which launch.py's calibration loop
# and ``python -c "import numpy"`` take these times, about their times on
# the 2-vCPU VM the bounds were set on (see host_scale)
REF_CAL_S = 0.005
REF_FLOOR_S = 0.2
RUN_LIMIT_S = 150.0  # stay well inside the 180 s a run may take

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
]


class ProgramMissing(Exception):
    """The ccrflow sources are not in this checkout."""


def _job_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _entry(cmd: list[str], tag: str, output: str | None = None, keep: bool = False) -> dict:
    return {"cmd": cmd, "stdout": str(WORK / f"{tag}.stdout"),
            "stderr": str(WORK / f"{tag}.stderr"), "output": output, "keep": keep}


def launch(entries: list[dict], env: dict) -> list[dict]:
    """Run the entries one at a time through launch.py; wall time and rusage
    of each, plus its stderr and, for kept entries, its stdout and output."""
    spec, result = WORK / "launch-spec.json", WORK / "launch-result.json"
    spec.write_text(json.dumps(entries))
    subprocess.run([sys.executable, str(BENCH_DIR / "launch.py"), str(spec), str(result)],
                   cwd=ROOT, env=env, check=True)
    results = json.loads(result.read_text())
    for entry, res in zip(entries, results):
        res["stderr"] = Path(entry["stderr"]).read_bytes()
        res["stdout"] = res["output"] = None
        if entry["keep"]:
            res["stdout"] = Path(entry["stdout"]).read_bytes()
            output = entry["output"] and Path(entry["output"])
            if output:
                res["output"] = output.read_bytes() if output.exists() else b""
                output.unlink(missing_ok=True)
    return results


def measure_setup(env: dict, launches: int = 1) -> list[dict]:
    """Wall time of ``python -m ccrflow.cli --help`` in fresh processes, each
    launched right after ``python -c "import numpy"``, whose wall time goes
    into the result as "floor"."""
    entries = []
    for i in range(launches):
        entries.append(_entry([sys.executable, "-c", "import numpy"], f"floor{i}"))
        entries.append(_entry([sys.executable, "-m", "ccrflow.cli", "--help"], f"setup{i}",
                              keep=True))
    results = launch(entries, env)
    for floor, res in zip(results[::2], results[1::2]):
        if floor["rc"] != 0 or res["rc"] != 0 or b"usage: ccrflow" not in res["stdout"]:
            why = (floor["stderr"] + res["stderr"]).decode(errors="replace").strip()
            raise ProgramMissing(why[-300:])
        res["floor"] = floor["wall"]
    return results[1::2]


def run_pass(jobs: list[dict], env: dict, traced: bool = False, keep: bool = False) -> list[dict]:
    """One pass over the jobs; output bytes are kept only if `keep`."""
    entries, spans = [], []
    for job in jobs:
        tag = f"job{job['id']}{'-traced' if traced else ''}"
        spans.append(WORK / f"{tag}.spans.json")
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "traced.py"), str(spans[-1]), str(job["id"]),
                   *job["argv"]]
        else:
            cmd = [sys.executable, "-m", "ccrflow.cli", *job["argv"]]
        output = str(ROOT / job["output"]) if "output" in job else None
        entries.append(_entry(cmd, tag, output, keep))
    results = launch(entries, env)
    if traced:
        for res, path in zip(results, spans):
            res["spans"] = json.loads(path.read_text())["spans"]
    return results


def job_failure(job: dict, res: dict) -> str | None:
    """Why a job execution failed before its output is checked, if it did."""
    if b"Traceback" in res["stderr"]:
        last = res["stderr"].decode(errors="replace").strip().splitlines()[-1]
        return f"traceback: {last}"
    if res["rc"] != 0:
        return f"exit code {res['rc']}"
    return None


def is_known_defect(job: dict, reason: str) -> bool:
    """normord P^k*X^k with k >= 32 overflows the recursive normal ordering."""
    return job["known_defect"] and reason.startswith("traceback: RecursionError")


def check_jobs(jobs: list[dict], passes: list[list[dict]]) -> tuple[list, dict]:
    """Classify every execution; returns (failures, {job id: reference error}).

    The first pass's output of each job is checked against its reference;
    every other pass, traced passes included, must reproduce those bytes.
    """
    failures = []
    errors = {}
    for index, job in enumerate(jobs):
        first = passes[0][index]
        reason = job_failure(job, first)
        if reason is None:
            try:
                err = refs.check(job, first["stdout"], first["output"])
            except refs.CheckFailed as exc:
                reason = f"check: {exc}"
            else:
                if err is not None:
                    errors[job["id"]] = err
        for p, results in enumerate(passes):
            res = results[index]
            why = reason if p == 0 else job_failure(job, res) or reason
            if why is None and res["digest"] != first["digest"]:
                why = "output bytes differ from the first untraced pass"
            if why is not None:
                failures.append({"job": job["id"], "pass": p, "reason": why,
                                 "known_defect": is_known_defect(job, why)})
    return failures, errors


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def environment(seed: int, workload: str, jobs: list[dict]) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "CCR_THREADS": os.environ.get("CCR_THREADS", "unset"),
        "workload": workload,
        "seed": seed,
        "jobs": [" ".join(job["argv"]) for job in jobs],
    }


def _timed_passes(jobs, env, seconds, trace: bool) -> tuple[list, list, list]:
    """Passes, or untraced/traced pairs, until about `seconds` have passed.

    Returns (untraced passes, traced passes, set-up times); the first set-up
    launches also show that ccrflow starts at all.
    """
    plain, traced = [], []
    setup = measure_setup(env, SETUP_LAUNCHES)
    lengths = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(jobs, env, keep=not plain))
        if trace:
            traced.append(run_pass(jobs, env, traced=True))
        lengths.append(time.perf_counter() - t0)
        if not trace and len(setup) < SETUP_TOTAL:
            setup += measure_setup(env)
        elapsed = time.perf_counter() - start
        typical = statistics.median(lengths)
        if elapsed + typical / 2 >= seconds or elapsed + typical >= RUN_LIMIT_S:
            if not trace and len(setup) < SETUP_TOTAL:
                setup += measure_setup(env, SETUP_TOTAL - len(setup))
            return plain, traced, setup


def _print_failures(workload: str, jobs: list[dict], failures: list[dict]) -> None:
    for f in failures:
        tag = " (known defect)" if f["known_defect"] else ""
        print(f"FAIL {workload} job {f['job']} pass {f['pass']}{tag}: {f['reason']}"
              f" :: {' '.join(jobs[f['job']]['argv'])}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    env = _job_env()
    jobs = joblist.job_list(workload, seed, str(WORK.relative_to(ROOT)))
    print("env " + json.dumps(environment(seed, workload, jobs)))
    plain, traced, setup = _timed_passes(jobs, env, seconds, trace)
    executions = plain + traced
    failures, errors = check_jobs(jobs, executions)
    _print_failures(workload, jobs, failures)
    for job_id, err in errors.items():
        print(f"{workload} job {job_id} {jobs[job_id]['kind']} ref_err {err:.3e}")
    attempted = len(jobs) * len(executions)
    failed = len(failures)
    correct = all(f["known_defect"] for f in failures)
    print(f"{workload} fail_frac {failed / attempted:.6f} ratio ({failed}/{attempted} job runs"
          f", {sum(f['known_defect'] for f in failures)} known-defect)")
    if errors:
        print(f"{workload} max_ref_err {max(errors.values()):.3e} relative "
              f"(largest over {len(errors)} numeric jobs)")
    if trace:
        metrics = _layer_report(workload, plain, traced)
    else:
        scale = host_scale(plain, setup)
        metrics = {
            "setup_s": _setup_metric(workload, setup),
            "wall_s": _pass_metric(workload, "wall_s", plain, "wall", sum, scale),
            "cpu_s": _pass_metric(workload, "cpu_s", plain, "cpu", sum, scale),
            "peak_rss_mb": _pass_metric(workload, "peak_rss_mb", plain, "rss_mb", max),
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def host_scale(plain: list, setup: list[dict]) -> float:
    """Factor that takes this run's job times to the reference host.

    The vCPUs of this kind of shared VM switch between a fast state and one
    up to 40% slower, for seconds to minutes at a time, and which state
    dominates changes from run to run.  Two probes that share no code with
    ccrflow follow it: launch.py's pure-Python loop, timed next to every
    job, and the ``python -c "import numpy"`` launches.  A job is part
    start-up and imports, part computation, and neither probe alone tracks
    both, so the factor is the geometric mean of their two speed ratios.
    """
    loop = statistics.median(res["cal"] for results in plain for res in results)
    floor = statistics.median(res["floor"] for res in setup)
    return math.sqrt(REF_CAL_S / loop * REF_FLOOR_S / floor)


def _setup_metric(workload: str, setup: list[dict]) -> dict:
    """Median of the launches, each scaled by the numpy-import launch just
    before it: start-up is mostly imports, which the host's busy spells slow
    down by more than they slow down the calibration loop."""
    q1, med, q3 = quartiles([res["wall"] * REF_FLOOR_S / res["floor"] for res in setup])
    raw = statistics.median(res["wall"] for res in setup)
    print(f"{workload} setup_s {med:.6g} s median of {len(setup)} launches, scaled "
          f"(q1 {q1:.6g}, q3 {q3:.6g}; unscaled median {raw:.6g} s)")
    return {"value": med, "unit": "s"}


def _pass_metric(workload: str, name: str, plain: list, key: str, combine,
                 scale: float = 1.0) -> dict:
    """`combine` (sum or max) over jobs of each job's median over passes,
    times `scale` (see `host_scale`).  The quartiles printed are those of the
    pass totals, as scaled."""
    samples = [[res[key] * scale for res in results] for results in plain]
    value = combine(statistics.median(p[i] for p in samples) for i in range(len(samples[0])))
    unit = dict(END_TO_END)[name]
    q1, med, q3 = quartiles([combine(p) for p in samples])
    print(f"{workload} {name} {value:.6g} {unit} {combine.__name__} of per-job medians"
          f"{f', scaled by {scale:.4g}' if scale != 1.0 else ''} (pass totals: median {med:.6g}"
          f", q1 {q1:.6g}, q3 {q3:.6g}, n={len(plain)} passes)")
    return {"value": value, "unit": unit}


def _layer_report(workload: str, plain: list, traced: list) -> dict:
    per_pass = []
    for untraced_pass, traced_pass in zip(plain, traced):
        overhead = (sum(r["wall"] for r in traced_pass)
                    - sum(r["wall"] for r in untraced_pass))
        per_pass.append(layers.layer_metrics(
            [r["spans"] for r in traced_pass],
            sum(r["out_bytes"] for r in traced_pass), overhead))
    metrics = {}
    print(f"{workload} per-layer metrics from {len(traced)} traced pass(es), median:")
    for name, unit, _better, moves in layers.LAYER_METRICS:
        value = statistics.median(p[name] for p in per_pass)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:42s} {value:14.6g} {unit:6s} -> {moves}")
    untraced = statistics.median(sum(r["wall"] for r in p) for p in plain)
    print(f"{workload} tracing overhead {metrics['trace.overhead_s']['value']:.4f} s "
          f"on an untraced wall of {untraced:.4f} s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*joblist.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ccrflow" / "cli.py").is_file():
        print(f"ccrflow sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = joblist.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except ProgramMissing as exc:
        print(f"ccrflow does not start: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
