"""Benchmark of the supadd command line, end to end and per module.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. One client runs the workload's `supadd.cli.main(argv)` jobs one at
a time in this process (a closed loop), pass after pass, until `--seconds`
have gone by. Workloads, jobs and output checks are in `workloads.py`.

With `--trace 0` the result holds the end-to-end metrics:
  wall_s       median time of one warm pass over the jobs
  peak_rss_mb  peak resident memory of a fresh interpreter running one pass
  setup_s      median time for a fresh interpreter to start, import
               supadd.cli, build the parser and read the input files
With `--trace 1` it holds the per-layer metrics of `layers.py`, from passes
run with every public supadd function wrapped in a span, alternating with
untraced passes for the tracing overhead. Pass times are scaled to
nominal machine speed (see `speed.py`); the measured times are printed
beside them.

Every job's output is checked outside the timed region: the first pass in
full, later passes by comparing them with the first. The last line of
stdout is one JSON object {correct, attempted, failed, metrics}; a summary,
the error rate and the provenance precede it, and the same data plus the
spans of the last traced pass are written under perfbench/_work/.
"""

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402  (after the thread caps)

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150
# Fresh interpreters keep bytecode caches as an installed CLI would, whatever
# this process was started with; the first setup run writes them.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

SETUP_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import supadd.cli
supadd.cli.build_parser()
for path in sys.argv[2:]:
    with open(path, "rb") as f:
        f.read()
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-probe", dest="rss_probe", default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_pass(cli, jobs, clock=time.perf_counter, tracer=None):
    """Run every job once; returns (seconds, outputs). Only the main(argv)
    calls are timed."""
    from workloads import collect

    total = 0.0
    outputs = []
    for job in jobs:
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = job.name
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = clock()
            try:
                code = cli.main(job.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = "exception"
                traceback.print_exc()
            total += clock() - start
        outputs.append(collect(job, code, stdout.getvalue(), stderr.getvalue()))
    return total, outputs


class Tally:
    """Jobs attempted and failed; the first pass is the reference output."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None
        self.reference_ok = None

    def first(self, outputs, seed):
        from workloads import ExplicitRoute, check

        rng, route = np.random.default_rng(seed), ExplicitRoute()
        self.reference = outputs
        self.reference_ok = []
        for job, out in zip(self.jobs, outputs):
            problems = check(job, out, rng, route)
            self._count(job, problems)
            self.reference_ok.append(not problems)

    def again(self, outputs):
        for job, out, ref, ok in zip(self.jobs, outputs, self.reference, self.reference_ok):
            problems = [] if ok else ["first pass failed"]
            if not out.same_as(ref):
                problems.append("output differs from the first pass")
            self._count(job, problems)

    def _count(self, job, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{job.name}: {'; '.join(problems)}")


def measure_setup(files):
    """Wall times of fresh interpreters doing the setup work; the first
    start, which may write bytecode caches, is dropped. They are not scaled
    to nominal speed: over 40 starts, scaling by a reference run in the
    child or in this process raised the spread from 9-11% to 21-28%."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SCRIPT, str(SRC), *files],
                       cwd=ROOT, env=CHILD_ENV, check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return times[1:]


def measure_rss(workload, seed, workdir):
    """Peak RSS in MB of a fresh interpreter that runs one pass."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--rss-probe", str(workdir)],
        cwd=ROOT, env=CHILD_ENV, check=True, timeout=CHILD_TIMEOUT_S,
        capture_output=True, text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["peak_rss_mb"]


def rss_probe(workload, seed, workdir):
    import supadd.cli as cli
    import workloads

    run_pass(cli, workloads.build(workload, seed, Path(workdir), write=False))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kb / 1024.0}))


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def provenance(seed):
    import supadd._kernels

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = done.stdout.strip() or None
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_use_numba": bool(getattr(supadd._kernels, "HAS_NUMBA", False)),
        "nproc": NPROC,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def timed_loop(seconds, step):
    """Call step() until `seconds` have passed, at least once."""
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        step()
        if time.perf_counter() >= deadline:
            return


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(args, cli, jobs, tally, workdir):
    from workloads import REFERENCE

    setup = measure_setup([path for job in jobs for path in job.inputs])
    peak_rss_mb = measure_rss(args.workload, args.seed, workdir)
    tally.first(run_pass(cli, jobs)[1], args.seed)
    raw, speeds = [], []
    with speed.SpeedSampler(REFERENCE[args.workload]) as sampler:
        def step():
            seconds, outputs = run_pass(cli, jobs, sampler.clock)
            raw.append(seconds)
            speeds.append(sampler.take())
            tally.again(outputs)

        timed_loop(args.seconds, step)
    scaled = [s * v for s, v in zip(raw, speeds)]
    values = {
        "wall_s": statistics.median(scaled),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }
    q1, q3 = quartiles(scaled)
    r1, r3 = quartiles(raw)
    print(f"wall_s={values['wall_s']:.4f} s at nominal speed (q1 {q1:.4f}, q3 {q3:.4f}, "
          f"{len(raw)} passes); measured median {statistics.median(raw):.4f} s "
          f"(q1 {r1:.4f}, q3 {r3:.4f}); median {REFERENCE[args.workload]} speed "
          f"{statistics.median(speeds):.3f}")
    print(f"peak_rss_mb={peak_rss_mb:.1f} MB")
    print(f"setup_s={values['setup_s']:.4f} s (median of {len(setup)})")
    detail = {"wall_s_measured": raw, "speeds": speeds, "setup_s_measured": setup}
    return values, detail


def per_layer(args, cli, jobs, tally, spans_path):
    import layers
    from tracing import Tracer, aggregate, write_spans
    from workloads import REFERENCE

    tally.first(run_pass(cli, jobs)[1], args.seed)
    traced, untraced = [], []
    last_spans = []
    with speed.SpeedSampler(REFERENCE[args.workload]) as sampler:
        tracer = Tracer(hooks=layers.HOOKS, clock=sampler.clock)

        def step():
            nonlocal last_spans
            if len(traced) <= len(untraced):
                tracer.install()
                try:
                    seconds, outputs = run_pass(cli, jobs, sampler.clock, tracer)
                finally:
                    tracer.uninstall()
                spans, counters = tracer.take()
                scale = sampler.take()
                agg = aggregate(spans, tracer.names, scale)
                traced.append(layers.pass_metrics(
                    agg, counters, jobs, outputs, seconds * scale, len(spans)))
                last_spans = spans
            else:
                seconds, outputs = run_pass(cli, jobs, sampler.clock)
                untraced.append(seconds * sampler.take())
            tally.again(outputs)

        timed_loop(args.seconds, step)
        while not untraced:
            step()
    write_spans(spans_path, last_spans, tracer.names)
    values = layers.combine(traced, untraced)
    print(f"traced pass {values['trace.pass_s']:.4f} s, module self time "
          f"{values['trace.self_sum_s']:.4f} s, overhead {values['trace.overhead_s']:.4f} s "
          f"({len(traced)} traced, {len(untraced)} untraced passes)")
    return values, {"traced_passes": len(traced), "untraced_pass_s": untraced}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "supadd" / "cli.py").is_file():
        print(f"error: no supadd source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import supadd.cli as cli
    import workloads

    if args.rss_probe is not None:
        rss_probe(args.workload, args.seed, args.rss_probe)
        return 0
    if args.workload not in workloads.REFERENCE:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.REFERENCE)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    WORK.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        tally = Tally(jobs)
        if args.trace:
            values, detail = per_layer(args, cli, jobs, tally, WORK / f"spans-{tag}.jsonl")
        else:
            values, detail = end_to_end(args, cli, jobs, tally, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = {m["name"] for m in wanted} - values.keys()
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    error_rate = tally.failed / tally.attempted
    print(f"error_rate={error_rate:.6g} ({tally.failed} of {tally.attempted} jobs failed)")
    for problem in tally.problems:
        print(f"  {problem}")
    prov = provenance(args.seed)
    print("provenance " + json.dumps(prov))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, error_rate=error_rate,
                  problems=tally.problems, provenance=prov, detail=detail)
    (WORK / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
