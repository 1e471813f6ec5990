"""Per-layer metrics from the spans of a traced pass.

A span's self time is its duration minus the union of its child spans.
``LAYER_METRICS`` lists every metric with its unit, the direction that is
better, and the end-to-end metric and workload it should move.
"""

from __future__ import annotations

from collections import defaultdict

# name, unit, better, end-to-end metric @ workload it should move
LAYER_METRICS = [
    ("cli.parse_expression.calls", "count", "lower", "wall_s@symbolic"),
    ("cli.parse_expression.self_s", "s", "lower", "wall_s@symbolic"),
    ("cli.kernel_csv_lines.self_s", "s", "lower", "wall_s,peak_rss_mb@kernel-csv"),
    ("cli.kernel_csv_lines.rows", "count", "higher", "wall_s,peak_rss_mb@kernel-csv"),
    ("cli.wavefunction_csv_lines.self_s", "s", "lower", "wall_s@propagate"),
    ("cli.wavefunction_csv_lines.rows", "count", "higher", "wall_s@propagate"),
    ("cli.main.self_s", "s", "lower", "wall_s@kernel-csv"),
    ("cli.out_bytes", "bytes", "lower", "must repeat exactly"),
    ("opalg.multiply.calls", "count", "lower", "wall_s,peak_rss_mb@symbolic"),
    ("opalg.multiply.self_s", "s", "lower", "wall_s,peak_rss_mb@symbolic"),
    ("opalg.multiply.words_out", "count", "lower", "wall_s,peak_rss_mb@symbolic"),
    ("opalg.normal_order.calls", "count", "lower", "wall_s,peak_rss_mb@symbolic; wall_s@verify"),
    ("opalg.normal_order.self_s", "s", "lower", "wall_s,peak_rss_mb@symbolic; wall_s@verify"),
    ("opalg.normal_order.words_in", "count", "lower", "wall_s,peak_rss_mb@symbolic"),
    ("opalg.normal_order.terms_out", "count", "lower", "wall_s,peak_rss_mb@symbolic"),
    ("opalg.normal_order.terms_per_word", "ratio", "higher", "wall_s@symbolic"),
    ("opalg.commutator.calls", "count", "lower", "wall_s@symbolic,verify"),
    ("opalg.commutator.self_s", "s", "lower", "wall_s@symbolic,verify"),
    ("heisenberg.taylor_flow.calls", "count", "lower", "wall_s@symbolic,verify"),
    ("heisenberg.taylor_flow.self_s", "s", "lower", "wall_s@symbolic,verify"),
    ("heisenberg.time_derivative.calls", "count", "lower", "wall_s@symbolic,verify"),
    ("propagator.evolve_exact.calls", "count", "lower", "wall_s,cpu_s@propagate; wall_s@verify"),
    ("propagator.evolve_exact.self_s", "s", "lower", "wall_s,cpu_s@propagate; wall_s@verify"),
    ("propagator.evolve_exact.kernel_evals", "count", "lower", "wall_s,cpu_s@propagate"),
    ("propagator.GaussianKernel.call.self_s", "s", "lower", "wall_s@kernel-csv"),
    ("propagator.GaussianKernel.call.evals", "count", "lower", "wall_s@kernel-csv"),
    ("propagator.gaussian_kernel.calls", "count", "lower", "guard: should not move"),
    ("propagator.gaussian_kernel.self_s", "s", "lower", "guard: should not move"),
    ("pathint.short_time_matrix.calls", "count", "lower", "wall_s,cpu_s,peak_rss_mb@propagate"),
    ("pathint.short_time_matrix.self_s", "s", "lower", "wall_s,cpu_s,peak_rss_mb@propagate"),
    ("pathint.short_time_matrix.kernel_evals", "count", "lower",
     "wall_s,cpu_s,peak_rss_mb@propagate"),
    ("pathint.short_time_matrix.matrix_mb", "MiB", "lower", "peak_rss_mb@propagate"),
    ("pathint.short_time_matrix.repeat_frac", "ratio", "lower", "wall_s@propagate"),
    ("pathint.propagate.calls", "count", "lower", "wall_s,cpu_s@propagate"),
    ("pathint.propagate.self_s", "s", "lower", "wall_s,cpu_s@propagate"),
    ("pathint.propagate.matvecs", "count", "lower", "wall_s,cpu_s@propagate"),
    ("pathint.propagate.gflop", "GFLOP", "lower", "wall_s,cpu_s@propagate"),
    ("pathint.convergence_study.calls", "count", "lower", "wall_s@propagate,verify"),
    ("pathint.convergence_study.self_s", "s", "lower", "wall_s@propagate,verify"),
    ("verify.run_verification.calls", "count", "lower", "wall_s@verify"),
    ("verify.run_verification.self_s", "s", "lower", "wall_s@verify"),
    ("verify.run_verification.checks_passed", "count", "higher", "wall_s@verify"),
    ("trace.overhead_s", "s", "lower", "traced wall minus untraced wall"),
]

# counts that are summed over spans; matrix_mb is the largest single matrix
_SUMMED = ("rows", "words_out", "words_in", "terms_out", "kernel_evals", "evals",
           "matvecs", "gflop", "checks_passed", "repeats")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_name, start, end, _parent, _counts) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c_start, c_end in sorted(children.get(index, ())):
            if cur_end is None or c_start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = c_start, c_end
            else:
                cur_end = max(cur_end, c_end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out


def layer_metrics(jobs_spans: list[list[list]], out_bytes: int, overhead_s: float) -> dict:
    """Aggregate the spans of every job of one traced pass."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(float)
    matrix_mb = 0.0
    for spans in jobs_spans:
        for span, own in zip(spans, self_times(spans)):
            name = span[0]
            calls[name] += 1
            self_s[name] += own
            for key, value in (span[4] or {}).items():
                if key == "matrix_mb":
                    matrix_mb = max(matrix_mb, value)
                else:
                    counts[f"{name}.{key}"] += value
    values = {}
    for metric, _unit, _better, _moves in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = calls[layer]
        elif field == "self_s":
            values[metric] = self_s[layer]
        elif field in _SUMMED:
            values[metric] = counts[metric]
    values["cli.out_bytes"] = out_bytes
    values["trace.overhead_s"] = overhead_s
    values["pathint.short_time_matrix.matrix_mb"] = matrix_mb
    builds = calls["pathint.short_time_matrix"]
    values["pathint.short_time_matrix.repeat_frac"] = (
        counts["pathint.short_time_matrix.repeats"] / builds if builds else 0.0)
    words_in = counts["opalg.normal_order.words_in"]
    values["opalg.normal_order.terms_per_word"] = (
        counts["opalg.normal_order.terms_out"] / words_in if words_in else 0.0)
    return values
