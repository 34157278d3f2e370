"""Benchmark of the rac command-line tool, end to end and per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run it from anywhere inside a checkout of the repository; it uses the package
under src/ of that checkout and writes only under .bench_work/ there. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1. The lines before it print every metric by name and unit.

Workloads (see BENCHMARK.json for why each was chosen):

  cold_cli     one fresh `python -m rac.cli CMD --format FMT` per op
  sweep        in-process rac.cli.main over a 540-point flag grid
  long_series  in-process ingest/calibrate/classify on a 200k-row series

The seed shuffles the op order and generates the long series. Inputs and the
oracle's expected results are written to files before any timed process
starts. Set-up time is the median, over fresh processes started one after
each block of ops, of `import rac` plus one warm-up op. Times and rates are
scaled to a nominal interpreter start-up time (see end_to_end); the report
lines also give them as measured. bench/README.md lists the metrics and what
each per-layer metric should move.

--smoke runs every workload in both modes at tiny sizes and checks only that
the harness works and the outputs are right; it never gates on timings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "rac" / "data"
BUNDLED_DATASET = DATA / "mehra_prescott_1889_1978.csv"
BUNDLED_PROJECTION = DATA / "projection_1978.csv"
WORK = ROOT / ".bench_work"
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402

WORKLOADS = ("cold_cli", "sweep", "long_series")
LONG_ROWS = 200_000
SMOKE_LONG_ROWS = 2_000
CHILD_TIMEOUT_S = 150
NOMINAL_STARTUP_MS = 60.0

END_TO_END = (
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("ops_per_s", "1/s"),
    ("rows_per_s", "1/s"),
    ("import_ms.p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "frac"),
)

# Traced functions (tracer.TRACED) reported per op; bench/README.md names the
# end-to-end metric each should move.
_SELF_MS = ("cli.make_parser", "cli.build_config", "cli.main", "dataset.load_dataset",
            "dataset.load_projection", "dataset.with_final_consumption",
            "moments.compute_moments", "calibration.solve_system",
            "calibration.condition_diagnostic", "classify.classify_pipeline",
            "classify.classify", "report.render_table", "report.export_run")
_CALLS = ("dataset.load_dataset", "dataset.load_projection", "dataset.with_final_consumption",
          "moments.compute_moments", "calibration.calibrate_variant", "classify.classify_pipeline")
_UTILITY = ("utility.crra_utility", "utility.expected_utility_unconditional",
            "utility.make_comparison", "utility.uncertain_utility")
PER_LAYER = (
    [("import.numpy_ms", "ms"), ("import.rac_own_ms", "ms"), ("import.rac_total_ms", "ms"),
     ("interp.startup_ms", "ms")]
    + [(f"{name}.self_ms_per_op", "ms") for name in _SELF_MS]
    + [(f"{name}.calls_per_op", "count") for name in _CALLS]
    + [("dataset.rows_parsed_per_op", "count"),
       ("dataset.load_projection.calls_per_classify_both_op", "count"),
       ("moments.compute_moments.calls_per_classify_both_op", "count"),
       ("calibration.system_residuals.calls_per_solve", "count"),
       ("utility.self_ms_per_op", "ms"),
       ("trace.op_ms", "ms"),
       ("trace.self_sum_frac", "frac"),
       ("trace.overhead_frac", "frac")]
)


# -- inputs -------------------------------------------------------------------

def sweep_grid() -> list[list[str]]:
    """command x variant x format x group x --rho x --eta: 540 argv lists."""
    grid = []
    for command in ("calibrate", "classify"):
        for variant in ("realized", "projected", "both"):
            for fmt in ("text", "csv", "json"):
                for group in ("one", "two"):
                    for rho in (None, "0.5", "1", "2", "5"):
                        for eta in (None, "0.95", "1.05"):
                            argv = [command, "--variant", variant, "--format", fmt, "--group", group]
                            argv += ["--rho", rho] if rho else []
                            argv += ["--eta", eta] if eta else []
                            grid.append(argv)
    return grid


def write_long_series(path: Path, rng: random.Random, rows: int) -> None:
    """A stationary AR(1) in log consumption around the bundled mean log level.

    Innovations are scaled so log growth has the bundled standard deviation;
    gross returns are log-normal with the bundled means and standard
    deviations. The last two consumption values are the bundled 1977 and 1978
    levels, so the final-year comparison is the bundled one and every op
    classifies the same way whatever the seed.
    """
    ref = oracle.read_dataset(BUNDLED_DATASET)
    logs = [math.log(c) for c in ref["c"]]
    level = statistics.fmean(logs)
    growth_sd = statistics.pstdev([b - a for a, b in zip(logs, logs[1:])])
    phi = 0.9
    shock_sd = growth_sd * math.sqrt((1 + phi) / 2)

    def lognormal(values):
        mean, sd = statistics.fmean(values), statistics.pstdev(values)
        s2 = math.log(1 + (sd / mean) ** 2)
        return math.log(mean) - s2 / 2, math.sqrt(s2)

    re_mu, re_sd = lognormal(ref["re"])
    rf_mu, rf_sd = lognormal(ref["rf"])
    lines = [",".join(oracle.DATASET_HEADER)]
    log_c = level
    for i in range(rows):
        if i >= rows - 2:
            c = ref["c"][i - rows]
        else:
            log_c = level + phi * (log_c - level) + rng.gauss(0.0, shock_sd)
            c = math.exp(log_c)
        lines.append(f"{i + 1},{c:.2f},{math.exp(rng.gauss(re_mu, re_sd)):.6f},"
                     f"{math.exp(rng.gauss(rf_mu, rf_sd)):.6f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_ops(workload: str, seed: int, work: Path, smoke: bool) -> tuple[list[list[str]], list[str]]:
    """(ops in seeded order, the fixed warm-up op) for a workload."""
    rng = random.Random(seed)
    if workload == "cold_cli":
        ops = [[cmd, "--format", fmt] for cmd in ("ingest", "calibrate", "classify")
               for fmt in ("text", "csv", "json")]
        warmup = ["classify", "--format", "json"]
        if smoke:
            ops = [op for op in ops if op[2] == "json"]
    elif workload == "sweep":
        ops = sweep_grid()
        warmup = ["classify", "--variant", "both", "--format", "json", "--group", "two"]
        if smoke:  # keep one default classify-both op for the per-kind counts
            ops = ops[::45] + [warmup]
    else:
        path = work / "long_series.csv"
        write_long_series(path, rng, SMOKE_LONG_ROWS if smoke else LONG_ROWS)
        ops = [[cmd, "--dataset", str(path), "--format", "json"]
               for cmd in ("ingest", "calibrate", "classify")]
        warmup = ops[-1]
    rng.shuffle(ops)
    return ops, warmup


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("RAC_DATASET", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _run(cmd: list, env: dict, timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    return subprocess.run([str(c) for c in cmd], env=env, capture_output=True, text=True,
                          timeout=timeout, check=True)


# -- metrics ------------------------------------------------------------------

def tail(values: list[float]) -> tuple[int, float, int]:
    """(p, value, samples beyond): the highest nearest-rank percentile with at
    least ten samples above it; the median when there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1], n - rank
    return 50, statistics.median(xs), n - math.ceil(n / 2)


def end_to_end(result: dict) -> tuple[dict, dict]:
    """Metrics at nominal machine speed, and notes for the report.

    Each block's op and probe times are scaled by NOMINAL_STARTUP_MS over the
    median `python -c pass` time measured after that block and its two
    neighbours. Interpreter start-up is a control no change to rac can move,
    so the scaling removes drift in machine speed, which on a shared VM moves
    raw times by tens of percent between runs, without hiding any change in
    rac.
    """
    per_block, pass_per_block = result["ops_per_block"], result["pass_per_block"]
    blocks = len(result["op_ns"]) // per_block
    passes = result["pass_ns"]
    scale = [NOMINAL_STARTUP_MS * 1e6 / statistics.median(
             passes[max(b - 1, 0) * pass_per_block:(b + 2) * pass_per_block]) for b in range(blocks)]
    op_ms = [ns / 1e6 * scale[i // per_block] for i, ns in enumerate(result["op_ns"])]
    probes = result["probes"]
    p, tail_ms, beyond = tail(op_ms)
    # Throughput is taken per block, over the whole op mix, and the median
    # block reported, so that one stalled op does not set a run's figure.
    block_s = statistics.median(sum(op_ms[b * per_block:(b + 1) * per_block]) / 1e3
                                for b in range(blocks))
    values = {
        "op_ms.p50": statistics.median(op_ms),
        "op_ms.tail": tail_ms,
        "ops_per_s": per_block / block_s,
        "rows_per_s": result["rows"] / blocks / block_s,
        "import_ms.p50": statistics.median(ms * scale[i // result["import_per_block"]]
                                           for i, ms in enumerate(result["import_ms"])),
        "setup_s": statistics.median(pr["setup_s"] * k for pr, k in zip(probes, scale)),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "ops_ok_frac": 1 - result["failed"] / result["attempted"],
    }
    raw_ms = [ns / 1e6 for ns in result["op_ns"]]
    startup_ms = statistics.median(result["pass_ns"]) / 1e6
    notes = {
        "op_ms.p50": f"{len(op_ms)} samples; {statistics.median(raw_ms):.6g} as measured",
        "op_ms.tail": f"p{p}, {beyond} of {len(op_ms)} samples beyond it; {tail(raw_ms)[1]:.6g} as measured",
        "ops_per_s": f"{len(raw_ms) / sum(raw_ms) * 1e3:.6g} as measured",
        "import_ms.p50": f"median of {len(result['import_ms'])} fresh processes; "
                         f"{statistics.median(result['import_ms']):.6g} as measured",
        "setup_s": f"median of {len(probes)} fresh processes; "
                   f"{statistics.median(pr['setup_s'] for pr in probes):.6g} as measured",
        "scaling": f"times and rates above are scaled to a {NOMINAL_STARTUP_MS:g} ms interpreter "
                   f"start-up; python -c pass took {startup_ms:.6g} ms (median)",
    }
    return values, notes


def per_layer(result: dict) -> dict:
    trace, imports = result["trace"], result["imports"]
    fns = trace["summary"]["functions"]
    ops = len(trace["kinds"])

    def calls(name):
        return fns.get(name, [0, 0, 0])[0]

    def self_ms(name):
        return fns.get(name, [0, 0, 0])[2] / 1e6

    values = {key: statistics.median(imp[key] for imp in imports) for key in imports[0]}
    values["interp.startup_ms"] = statistics.median(result["pass_ns"]) / 1e6
    for name in _SELF_MS:
        values[f"{name}.self_ms_per_op"] = self_ms(name) / ops
    for name in _CALLS:
        values[f"{name}.calls_per_op"] = calls(name) / ops
    values["dataset.rows_parsed_per_op"] = trace["summary"]["rows_parsed"] / ops
    both = trace["kinds"].count("classify-both")
    per_both = trace["per_kind"].get("classify-both", {})
    for name in ("dataset.load_projection", "moments.compute_moments"):
        values[f"{name}.calls_per_classify_both_op"] = per_both.get(name, 0) / both if both else 0.0
    solves = calls("calibration.solve_system")
    values["calibration.system_residuals.calls_per_solve"] = (
        calls("calibration.system_residuals") / solves if solves else 0.0)
    values["utility.self_ms_per_op"] = sum(self_ms(name) for name in _UTILITY) / ops
    op_total_ms = fns["op"][1] / 1e6
    values["trace.op_ms"] = op_total_ms / ops
    values["trace.self_sum_frac"] = 1 - self_ms("op") / op_total_ms
    values["trace.overhead_frac"] = trace["traced_ns"] / trace["untraced_ns"] - 1
    return values


# -- one run ------------------------------------------------------------------

def check_checkout() -> None:
    """Exit with code 2 unless this is a checkout holding the rac sources."""
    needed = [SRC / "rac" / "__init__.py", SRC / "rac" / "cli.py", BUNDLED_DATASET, BUNDLED_PROJECTION]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: {ROOT} is not a rac checkout; missing {', '.join(missing)}", file=sys.stderr)
        raise SystemExit(2)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    ops, warmup = make_ops(workload, seed, work, smoke)
    expect = oracle.Oracle(BUNDLED_DATASET, BUNDLED_PROJECTION)
    spec = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "ops": ops,
        "rows": [expect.rows(argv) for argv in ops],
        "expected": [expect.expected(argv) for argv in ops],
        "warmup": {"argv": warmup, "expected": expect.expected(warmup)},
        "spans_path": str(work / ("cli_trace.json" if workload == "cold_cli" else "spans.tsv")),
    }
    spec_path = work / "spec.json"
    spec["work"], spec["spec_path"] = str(work), str(spec_path)
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    _run([sys.executable, "-c", "import rac.cli"], env)  # untimed: writes bytecode caches

    out_path = work / "result.json"
    _run([sys.executable, WORKER, "cold" if workload == "cold_cli" else "run", spec_path, out_path],
         env, timeout=seconds + CHILD_TIMEOUT_S)
    result = json.loads(out_path.read_text(encoding="utf-8"))
    if trace:
        metrics, units = per_layer(result), dict(PER_LAYER)
        missing = result["trace"]["summary"]["missing"]
        notes = {"missing": f"not found in rac, reported as 0: {', '.join(missing)}"} if missing else {}
    else:
        (metrics, notes), units = end_to_end(result), dict(END_TO_END)
    attempted = result["attempted"] + len(result["probes"])
    failed = result["failed"] + sum(pr["failed"] for pr in result["probes"])
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": attempted, "failed": failed, "examples": result["examples"],
        "expected_exit2_per_block": sum(rec["exit"] == 2 for rec in spec["expected"]),
        "ops_per_block": len(ops),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "notes": notes,
    }
    (work / "report.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
    return report


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  seconds {report['seconds']}  "
          f"trace {report['trace']}")
    print(f"ops attempted {report['attempted']}, failed {report['failed']} "
          f"(ops_failed_frac {report['failed'] / report['attempted']:.6g}); "
          f"{report['expected_exit2_per_block']} of {report['ops_per_block']} ops per block "
          f"expect exit 2")
    for example in report["examples"]:
        print(f"  mismatch: {example}")
    for name, m in report["metrics"].items():
        note = report["notes"].get(name)
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    for name, note in report["notes"].items():
        if name not in report["metrics"]:
            print(f"  {name}: {note}")


def result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    })


def smoke() -> int:
    """Every workload in both modes at tiny sizes; exit 1 on any wrong output."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            report = run_workload(workload, seed=1, seconds=0, trace=trace, smoke=True)
            print_report(report)
            ok &= report["failed"] == 0
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-check of the harness")
    args = parser.parse_args(argv)
    check_checkout()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except subprocess.CalledProcessError as exc:
        print(f"error: {' '.join(exc.cmd)} exited with {exc.returncode}\n{exc.stderr}", file=sys.stderr)
        return 1
    print_report(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
