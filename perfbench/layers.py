"""Per-layer metrics of the traced run.

`PER_LAYER` lists every per-layer metric with the workload it is read on
and the end-to-end metric a change to it should move; BENCHMARK.json holds
the same names with their units. Names take the form
`<layer>.<function>.{calls,s,self_s}` (calls, inclusive seconds, self
seconds per pass), `<layer>.self_s`, or one of the derived counts below.
Layer `kernels` is the module `_kernels`. Every metric is reported on every
workload, so a layer that should be idle is seen to be idle.
"""

import json
import statistics

from workloads import key_values

# (name, workload it is read on, end-to-end metric it should move)
PER_LAYER = [
    # time spent in each module itself, on every workload
    ("cli.self_s", "figures", "wall_s"),
    ("fastcode.self_s", "figures", "wall_s"),
    ("information.self_s", "explicit_codes", "wall_s"),
    ("detection.self_s", "optimize", "wall_s"),
    ("ensembles.self_s", "explicit_codes", "wall_s"),
    ("synth.self_s", "synthesis", "wall_s"),
    ("kernels.self_s", "explicit_codes", "wall_s"),
    # the five kernels
    ("kernels.fwht.calls", "figures", "wall_s"),
    ("kernels.fwht.s", "figures", "wall_s"),
    ("kernels.hamming_matrix.calls", "explicit_codes", "wall_s"),
    ("kernels.hamming_matrix.s", "explicit_codes", "wall_s"),
    ("kernels.hamming_matrix.bytes", "explicit_codes", "peak_rss_mb"),
    ("kernels.mi_bits.calls", "explicit_codes", "wall_s"),
    ("kernels.mi_bits.s", "explicit_codes", "wall_s"),
    ("kernels.apply_rotations.calls", "synthesis", "wall_s"),
    ("kernels.apply_rotations.s", "synthesis", "wall_s"),
    ("kernels.bayes_sweeps.calls", "optimize", "wall_s"),
    ("kernels.bayes_sweeps.s", "optimize", "wall_s"),
    # closed forms
    ("fastcode.nn12_profile.calls", "figures", "wall_s"),
    ("fastcode.profile_reuse", "figures", "wall_s"),
    ("fastcode.nn12_coefficients.self_s", "figures", "wall_s"),
    ("fastcode.find_kappa_star.s", "figures", "wall_s"),
    ("information.c1_binary.calls", "figures", "wall_s"),
    # explicit Gram route
    ("detection.square_root_measurement.calls", "explicit_codes", "wall_s"),
    ("detection.square_root_measurement.self_s", "explicit_codes", "wall_s"),
    ("detection.square_root_measurement.dim3", "explicit_codes", "wall_s"),
    ("ensembles.gram.self_s", "explicit_codes", "wall_s"),
    ("information.mutual_information.self_s", "explicit_codes", "wall_s"),
    ("information.code_information.self_s", "explicit_codes", "wall_s"),
    ("ensembles.code_from_text.s", "explicit_codes", "wall_s"),
    # decoder synthesis
    ("synth.reck_decompose.s", "synthesis", "wall_s"),
    ("synth.reconstruct_unitary.s", "synthesis", "wall_s"),
    ("synth.schmidt_extend.s", "synthesis", "wall_s"),
    ("synth.synthesize_unitary.self_s", "synthesis", "peak_rss_mb"),
    ("synth.schedule_to_csv.s", "synthesis", "wall_s"),
    ("synth.unitary_to_text.s", "synthesis", "wall_s"),
    ("ensembles.codeword_states.s", "synthesis", "peak_rss_mb"),
    ("synth.rotations", "synthesis", "wall_s"),
    ("synth.rotation_fill", "synthesis", "wall_s"),
    # measurement optimization
    ("detection.bayes_cost_reduction.self_s", "optimize", "wall_s"),
    ("detection.sweeps", "optimize", "wall_s"),
    ("detection.sweep_s", "optimize", "wall_s"),
    ("detection.pair_rotations", "optimize", "wall_s"),
    ("detection.optimal_ratio", "optimize", "wall_s"),
    # the tracing itself
    ("trace.pass_s", "all", "wall_s"),
    ("trace.overhead_s", "all", "wall_s"),
    ("trace.self_sum_s", "all", "wall_s"),
    ("trace.spans", "all", "wall_s"),
]


# Hooks run after a traced call returns and add work counts at the layer
# boundary: hook(counters, args, kwargs, result). They read the first
# argument only, by position or by its current name.
def _first(args, kwargs, name):
    return args[0] if args else kwargs.get(name)


def _profile_hook(counters, args, kwargs, result):
    counters.setdefault("profile_keys", set()).add((args, tuple(sorted(kwargs.items()))))


def _srm_hook(counters, args, kwargs, result):
    m = len(_first(args, kwargs, "gram"))
    counters["dim3"] = counters.get("dim3", 0) + m**3


def _hamming_hook(counters, args, kwargs, result):
    m, n = _first(args, kwargs, "code").shape
    # boolean (M, M, n) temporary plus the int64 (M, M) result
    counters["hamming_bytes"] = counters.get("hamming_bytes", 0) + m * m * n + 8 * m * m


HOOKS = {
    "fastcode.nn12_profile": _profile_hook,
    "detection.square_root_measurement": _srm_hook,
    "kernels.hamming_matrix": _hamming_hook,
}


def _output_counts(jobs, outputs) -> dict:
    """Counts read from the CLI output of one pass."""
    rotations = axis_pairs = sweeps = pair_rotations = runs = optimal = 0
    for job, out in zip(jobs, outputs):
        if job.kind == "synth":
            report = json.loads(out.stdout)
            dim = 2 ** report["n"]
            rotations += report["rotations"]
            axis_pairs += dim * (dim - 1) // 2
        elif job.kind.startswith("optimize"):
            fields = key_values(out.stdout)
            m, s = int(fields["states"]), int(fields["sweeps"])
            sweeps += s
            pair_rotations += s * m * (m - 1) // 2
            runs += 1
            optimal += fields["is_optimal"] == "true"
    return {
        "synth.rotations": rotations,
        "synth.rotation_fill": rotations / axis_pairs if axis_pairs else 0.0,
        "detection.sweeps": sweeps,
        "detection.pair_rotations": pair_rotations,
        "detection.optimal_ratio": optimal / runs if runs else 0.0,
    }


def pass_metrics(agg: dict, counters: dict, jobs, outputs, pass_s: float, spans: int) -> dict:
    """Every per-layer metric except trace.overhead_s, for one traced pass.
    A function that no longer exists reads as never called."""
    funcs, layers = agg["functions"], agg["layers"]
    idle = {"calls": 0, "s": 0.0, "self_s": 0.0}
    values = {}
    for name, _, _ in PER_LAYER:
        head, _, field = name.rpartition(".")
        if field in idle and "." in head:
            values[name] = funcs.get(head, idle)[field]
        elif field == "self_s":
            values[name] = layers[head]
    profile_calls = values["fastcode.nn12_profile.calls"]
    values["fastcode.profile_reuse"] = (
        len(counters.get("profile_keys", ())) / profile_calls if profile_calls else 0.0
    )
    values["detection.square_root_measurement.dim3"] = counters.get("dim3", 0)
    values["kernels.hamming_matrix.bytes"] = counters.get("hamming_bytes", 0)
    values.update(_output_counts(jobs, outputs))
    values["detection.sweep_s"] = (
        values["kernels.bayes_sweeps.s"] / values["detection.sweeps"]
        if values["detection.sweeps"] else 0.0
    )
    values["trace.pass_s"] = pass_s
    values["trace.self_sum_s"] = sum(layers.values())
    values["trace.spans"] = spans
    return values


def combine(per_pass: list, untraced_pass_s: list) -> dict:
    """Median of each metric over the traced passes, plus the overhead:
    median traced pass time minus median untraced pass time."""
    values = {}
    for name, first in per_pass[0].items():
        column = [p[name] for p in per_pass]
        # counts stay whole numbers; they are the same in every pass
        median = statistics.median_low if isinstance(first, int) else statistics.median
        values[name] = median(column)
    values["trace.overhead_s"] = values["trace.pass_s"] - statistics.median(untraced_pass_s)
    return values
