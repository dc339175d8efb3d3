"""antago benchmark: end-to-end and per-layer timing of three workloads.

Run from the repository root::

    python3 bench/run.py --workload study --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # study, sweep, oracle, one child each
    python3 bench/run.py --smoke                   # self-test of the harness

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced passes with passes in which the tracer
(``tracer.py``) wraps the package's public entry points, and reports the
per-layer metrics per traced pass plus the tracing overhead. Human-readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every output passed its check, 1 when the correctness gate tripped and
2 when the benchmark could not start (for example without ``src/antago``).
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import copy  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 11
# Nominal seconds of a bare interpreter start (``_BARE``): the median on the
# 2.1 GHz Xeon VM where the benchmark was written, rounded. setup_s is the
# set-up probe's time in bare starts, converted to seconds at this speed.
BARE_START_S = 0.04
TAIL_MIN_PERCENTILE = 75.0

_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
import antago{cli}
from antago.scenario_io import load_preset
for name in sys.argv[2:]:
    load_preset(name)
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""
_BARE = """\
import sys
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def _load_package():
    """Import antago from this checkout's ``src``; never from elsewhere."""
    if not (SRC / "antago" / "__init__.py").is_file():
        sys.stderr.write(f"error: {SRC / 'antago'} not found; run from a full checkout\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import antago
    if Path(antago.__file__).resolve().parent != (SRC / "antago").resolve():
        sys.stderr.write(f"error: imported antago from {antago.__file__}, not {SRC}\n")
        raise SystemExit(2)


def machine_metadata() -> dict:
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.partition(":")[2].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checkout's commit, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# --------------------------------------------------------------------------
# Statistics.

def median(values: list[float]) -> float:
    return statistics.median(values)


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it: (percentile, value).

    None unless that percentile is at least TAIL_MIN_PERCENTILE, so that a tail
    always lies well above the median.
    """
    n = len(values)
    percentile = 100.0 * (n - 10) / n if n else 0.0
    if percentile < TAIL_MIN_PERCENTILE:
        return None
    return percentile, sorted(values)[n - 11]


# --------------------------------------------------------------------------
# Measurement.

def _start(code: str, *args: str) -> float:
    """Seconds from starting a fresh interpreter on ``code`` until it prints "ready"."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code, *args], stdout=subprocess.PIPE,
                          cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
        if proc.wait() != 0 or line != "ready\n":
            raise RuntimeError("set-up probe failed")
    return t1 - t0


def setup_probes(workload) -> dict[str, list[float]]:
    """Fresh interpreter to first op ready, SETUP_PROBES times, each right after
    a bare interpreter start that serves as its speed reference.

    The machine's speed at starting processes and importing swings by 20 to
    30 % between runs; the ratio of the two starts moves by about 3 %.
    """
    code = _PROBE.format(cli=".cli" if workload.uses_cli else "")
    probe, bare = [], []
    for _ in range(SETUP_PROBES):
        bare.append(_start(_BARE))
        probe.append(_start(code, str(SRC), *workload.scenarios))
    return {"probe_s": probe, "bare_s": bare}


class Sample(NamedTuple):
    traced: bool
    pass_no: int
    kind: str
    label: str
    s: float       # wall seconds
    cal: float     # the same time in cal units (see speed.py)
    points: int    # sweep points done (1 for other ops)


class Run:
    """Timings and outcomes of one workload's passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: list[Sample] = []
        self.passes = {False: 0, True: 0}
        self.fail_verdicts = {False: 0, True: 0}

    def run_pass(self, workload, sampler, tracer=None) -> None:
        traced = tracer is not None
        number = self.passes[traced]
        self.passes[traced] += 1
        for op in workload.ops:
            self.attempted += 1
            if traced:
                tracer.op = self.attempted
            try:
                payload, seconds, cal = sampler.time(op.run)
                problems = op.check(payload)
            except Exception:  # an op that raises is a failed op, not a crash
                seconds, problems = None, [f"{op.label}: raised\n{traceback.format_exc()}"]
            if problems:
                self.failed += 1
                self.problems.extend(problems)
            if seconds is None:
                continue
            self.samples.append(Sample(traced, number, op.kind, op.label, seconds, cal,
                                       op.points))
            if op.kind == "verify":
                self.fail_verdicts[traced] += op.fail_verdicts

    def values(self, field: str, kind=None, label=None, per_point=False) -> list[float]:
        """``field`` ("s" or "cal") of each untraced op of the given kind or label,
        divided by the op's sweep points if ``per_point``."""
        return [getattr(x, field) / (x.points if per_point else 1) for x in self.samples
                if not x.traced and kind in (None, x.kind) and label in (None, x.label)]

    def labels(self, kind: str) -> list[str]:
        """Distinct labels of the untraced ops of ``kind``, in first-seen order."""
        return list(dict.fromkeys(x.label for x in self.samples
                                  if not x.traced and x.kind == kind))

    def per_pass(self, field: str, traced=False, kind=None) -> list[float]:
        """Per-pass sums of ``field`` ("s", "cal" or "points")."""
        sums = [0.0] * self.passes[traced]
        for x in self.samples:
            if x.traced == traced and kind in (None, x.kind):
                sums[x.pass_no] += getattr(x, field)
        return sums


def measure(name: str, seed: int, seconds: float, trace: bool, refs: dict, tmp: Path,
            log) -> dict:
    import workloads
    from speed import SpeedSampler
    from tracer import Tracer

    workload = workloads.WORKLOADS[name](seed, tmp, refs)
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if not trace:
        result["setup"] = setup_probes(workload)
    t0 = perf_counter()
    workload.prepare()
    result["prepare_s"] = perf_counter() - t0

    run = Run()
    tracer = Tracer() if trace else None
    start = perf_counter()
    with SpeedSampler() as sampler:
        while True:
            run.run_pass(workload, sampler)
            if trace:
                tracer.install()
                try:
                    run.run_pass(workload, sampler, tracer)
                finally:
                    tracer.uninstall()
            if perf_counter() - start >= seconds:
                break
    result["wall_s"] = perf_counter() - start
    result["run"] = run
    if trace:
        passes = run.passes[True]
        overhead = (median(run.per_pass("cal", traced=True)) / median(run.per_pass("cal"))) - 1.0
        result["layers"] = tracer.layer_metrics(passes, run.fail_verdicts[True], overhead)
        result["self_times"] = {k: v / passes for k, v in tracer.self_times().items()}
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log(f"# {name}: {run.attempted} ops, {run.failed} failed, "
        f"{run.passes[False] + run.passes[True]} passes in {result['wall_s']:.1f} s "
        f"(+{result['prepare_s']:.1f} s untimed reference runs)")
    for problem in run.problems[:20]:
        log(f"# FAILED {problem}")
    return result


PRIMARY_OP = {"study": "run", "sweep": "sweep", "oracle": "sim"}


def end_to_end(result: dict) -> dict[str, tuple[float, str, int]]:
    """Metrics of BENCHMARK.json's end_to_end list: (value, unit, samples)."""
    run = result["run"]
    op_medians = [median(run.values("cal", label=label, per_point=True))
                  for label in run.labels(PRIMARY_OP[result["workload"]])]
    ops = run.values("cal", kind=PRIMARY_OP[result["workload"]])
    passes = run.per_pass("cal")
    setup = result["setup"]
    ratios = [p / b for p, b in zip(setup["probe_s"], setup["bare_s"])]
    return {
        "setup_s": (median(ratios) * BARE_START_S, "s", len(ratios)),
        "op_cal.mean_p50": (statistics.fmean(op_medians), "cal", len(ops)),
        "pass_cal.p50": (median(passes), "cal", len(passes)),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
    }


def report_lines(result: dict) -> list[str]:
    """Every end-to-end metric with its unit and sample count, in seconds and
    in cal units, under the names the benchmark's README uses."""
    run = result["run"]
    name = result["workload"]
    lines = []

    def timing(base, seconds, cal=None):
        for unit, values in (("s", seconds), ("cal", cal)):
            if not values:
                continue
            metric = f"{base}_{unit}"
            t = tail(values)
            note = "" if t else " (too few samples for a tail)"
            lines.append(f"{metric + '.p50':<30} {median(values):12.6g} {unit:<5} "
                         f"n={len(values)}{note}")
            if t is not None:
                lines.append(f"{metric + '.tail':<30} {t[1]:12.6g} {unit:<5} "
                             f"n={len(values)} (p{t[0]:.1f}, 10 samples beyond)")

    if "setup" in result:     # untraced run: the gated metrics first
        for metric, (value, unit, n) in end_to_end(result).items():
            lines.append(f"{metric:<30} {value:12.6g} {unit:<5} n={n}")
        for key, values in result["setup"].items():
            lines.append(f"{'setup.' + key + '.p50':<30} {median(values):12.6g} {'s':<5} "
                         f"n={len(values)} (raw wall time)")
    if name == "study":
        timing("run", run.values("s", kind="run"), run.values("cal", kind="run"))
        timing("verify", run.per_pass("s", kind="verify"), run.per_pass("cal", kind="verify"))
        lines.append(f"{'verify.fail_verdicts':<30} "
                     f"{run.fail_verdicts[False] / run.passes[False]:12.6g} {'count':<5} "
                     f"per pass, n={run.passes[False]} (reported, not gated)")
    if name == "sweep":
        points = sum(run.per_pass("points"))
        rate = points / sum(run.per_pass("s"))
        lines.append(f"{'sweep_points_per_s':<30} {rate:12.6g} "
                     f"{'1/s':<5} n={points:g} points in {run.passes[False]} passes")
    if name == "oracle":
        timing("oracle_sim", run.values("s", kind="sim"), run.values("cal", kind="sim"))
    if name in ("sweep", "oracle"):
        for label in dict.fromkeys(x.label for x in run.samples):
            timing(label.replace(" ", "_"), run.values("s", label=label),
                   run.values("cal", label=label))
    timing("pass", run.per_pass("s"))
    lines.append(f"{'error_rate':<30} {run.failed / run.attempted:12.6g} {'ratio':<5} "
                 f"n={run.attempted} ops, {run.failed} failed")
    if "layers" in result:
        for metric, (value, unit) in result["layers"].items():
            lines.append(f"{metric:<30} {value:12.6g} {unit:<5} per traced pass, "
                         f"n={run.passes[True]}")
        for layer, value in sorted(result["self_times"].items()):
            lines.append(f"{'self_s.' + layer:<30} {value:12.6g} {'s':<5} per traced pass")
        lines.append(f"spans written to {result['spans_file']}")
    return [f"{name}: {ln}" for ln in lines]


# Figures the report must print for each workload (tails need 11 samples).
_EVERY_WORKLOAD = {"setup_s": "s", "op_cal.mean_p50": "cal", "pass_cal.p50": "cal",
                   "pass_s.p50": "s",
                   "error_rate": "ratio", "peak_rss_mb": "MB"}
REPORTED = {
    "study": {"run_s.p50": "s", "run_cal.p50": "cal", "verify_s.p50": "s",
              "verify_cal.p50": "cal", "verify.fail_verdicts": "count", **_EVERY_WORKLOAD},
    "sweep": {"sweep_points_per_s": "1/s", **_EVERY_WORKLOAD},
    "oracle": {"oracle_sim_s.p50": "s", "oracle_sim_cal.p50": "cal", **_EVERY_WORKLOAD},
}


def json_metrics(result: dict) -> dict:
    if result["trace"]:
        return {k: {"value": v, "unit": u} for k, (v, u) in result["layers"].items()}
    return {k: {"value": v, "unit": u} for k, (v, u, _) in end_to_end(result).items()}


# --------------------------------------------------------------------------
# Smoke test of the harness itself.

def smoke(refs: dict, tmp: Path) -> int:
    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = measure(name, workloads.DEFAULT_SEED, 0.0, bool(trace), refs, tmp, print)
            got = {k: v["unit"] for k, v in json_metrics(result).items()}
            if got != wanted[trace]:
                errors.append(f"{name} trace={trace}: metrics {got} differ from {wanted[trace]}")
            if result["run"].failed:
                errors.append(f"{name} trace={trace}: {result['run'].failed} ops failed")
            lines = report_lines(result)
            for line in lines:
                print(line)
            printed = {line.split()[1]: line.split()[3] for line in lines if len(line.split()) > 3}
            for metric, unit in REPORTED[name].items() if not trace else ():
                if printed.get(metric) != unit:
                    errors.append(f"{name}: report lacks {metric} in {unit}")

    # The gate must trip on a perturbed copy of a reference (never the program).
    op = workloads.RunOp("fig2-F1", tmp / "smoke.csv", refs["study"]["fig2-F1"])
    payload = op.run()
    if op.check(payload):
        errors.append("unperturbed study reference did not match")
    bad = copy.deepcopy(refs["study"]["fig2-F1"])
    bad["channels"]["x"][10] *= 1.0 + 1e-7
    if not workloads.RunOp("fig2-F1", tmp / "smoke.csv", bad).check(payload):
        errors.append("perturbed study reference (x * (1 + 1e-7)) did not trip the gate")
    bad = copy.deepcopy(refs["study"]["fig2-F1"])
    bad["status"] = "domain-exit"
    if not workloads.RunOp("fig2-F1", tmp / "smoke.csv", bad).check(payload):
        errors.append("perturbed study reference status did not trip the gate")
    rows = copy.deepcopy(refs["sweep"]["rows"][0])
    rows[3]["x_error"] *= 1.0 + 1e-6
    if not workloads.compare_sweep_rows(refs["sweep"]["rows"][0], rows, "smoke"):
        errors.append("perturbed sweep reference row did not trip the gate")
    for err in errors:
        print(f"smoke: FAIL {err}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


# --------------------------------------------------------------------------

def run_all(args, tmp: Path) -> int:
    """Run each workload in a child ``run.py`` of its own, so that every
    process-wide figure (peak RSS above all) belongs to that workload alone."""
    saved = {"meta": None, "args": vars(args), "workloads": {}}
    attempted = failed = 0
    metrics = {}
    for name in ("study", "sweep", "oracle"):
        save = tmp / f"{name}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--save", str(save)]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
            last = None
            for line in proc.stdout:      # stream the report; keep back the JSON line
                if last is not None:
                    print(last, end="", flush=True)
                last = line
            rc = proc.wait()
        if rc not in (0, 1) or not save.is_file():
            sys.stderr.write(f"error: workload {name} exited with code {rc}\n")
            return 2
        child = json.loads(save.read_text())
        saved["meta"] = child["meta"]
        saved["workloads"].update(child["workloads"])
        for result in child["workloads"].values():
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("study", "sweep", "oracle", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once and check the harness itself")
    parser.add_argument("--save", help="also write the full results to this JSON file")
    args = parser.parse_args(argv)

    _load_package()
    sys.path.insert(0, str(HERE))
    refs = json.loads((HERE / "references.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        if args.workload == "all" and not args.smoke:
            return run_all(args, tmp)
        meta = machine_metadata()
        print(f"# meta: {json.dumps(meta)}")
        if args.smoke:
            return smoke(refs, tmp)
        name = args.workload
        print(f"# workload {name}: seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}", flush=True)
        result = measure(name, args.seed, args.seconds, bool(args.trace), refs, tmp, print)
        for line in report_lines(result):
            print(line)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    run = result["run"]
    if args.save:
        saved = {"meta": meta, "args": vars(args), "workloads": {
            name: {"metrics": json_metrics(result), "report": report_lines(result),
                   "attempted": run.attempted, "failed": run.failed}}}
        Path(args.save).write_text(json.dumps(saved, indent=1) + "\n")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": json_metrics(result)}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
