"""The repository benchmark: pinned simulator workloads, end to end and by layer.

Run one workload::

    python3 perfbench/run.py --workload chime-read --seed 1234 --seconds 30 --trace 0

``--trace 0`` repeats fresh untraced processes (``child.py``) for
``--seconds`` and reports the end-to-end metrics as medians over them.
``--trace 1`` runs one traced process, then untraced ones for the rest
of ``--seconds``, and reports the per-layer metrics.  ``--workload all``
runs every workload in turn.  Rows are printed in long format (one per
workload and metric, ``--format table|csv|json``); the last line of
standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--out FILE`` appends one record per workload (raw per-process samples
included) to a JSON-lines file; ``--compare BASE HEAD`` compares two such
files.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spec import (  # noqa: E402
    DEFAULT_SEED,
    END_TO_END,
    FAILED_OP_FRAC,
    FINGERPRINT_KEYS,
    METRICS,
    PER_LAYER,
    SELF_TIME_LAYERS,
    WORKLOADS,
)

#: Fewest processes a run measures, so each reported host figure is a
#: median of at least this many.
MIN_PROCESSES = 3
#: No new process starts once the run could pass this many seconds; the
#: whole benchmark must finish within 180.
WALL_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 120.0
#: Where a traced run writes its spans, relative to the checkout root.
SPANS_DIR = ".perfbench"

COLUMNS = ["workload", "metric", "value", "unit", "better", "n", "note"]


class BenchError(RuntimeError):
    """A measured process failed; no result can be reported."""


def host_descriptor() -> Dict[str, object]:
    """Python version, CPU model and core count of this host."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count()}


def child_env() -> Dict[str, str]:
    """The measured process's environment: no ``REPRO_*`` knob set.

    Every ``REPRO_*`` variable is removed, which covers each name in
    ``repro.config.KNOWN_ENV_VARS``; the child records that list with
    its values.  Hash seeding is pinned so string hashing cannot differ
    between processes.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, trace: bool = False,
              check: bool = False) -> Dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed)]
    if check:
        cmd.append("--check")
    if trace:
        os.makedirs(os.path.join(ROOT, SPANS_DIR), exist_ok=True)
        cmd += ["--trace", "--spans",
                os.path.join(ROOT, SPANS_DIR, f"spans-{workload}")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: measured process exceeded "
                         f"{CHILD_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: measured process exited with "
                         f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> Dict:
    """Run fresh processes for *seconds* (at least :data:`MIN_PROCESSES`
    untraced ones), the traced one first when *trace* is set.

    Only the first untraced process and the traced one run the untimed
    correctness checks: every process must give the same fingerprint, so
    they all end in the same simulated state.
    """
    started = time.monotonic()
    traced = run_child(workload, seed, trace=True, check=True) \
        if trace else None
    runs: List[Dict] = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - started
        if len(runs) >= MIN_PROCESSES and elapsed >= seconds:
            break
        if runs and elapsed + 1.5 * longest > WALL_BUDGET_S:
            break
        begin = time.monotonic()
        runs.append(run_child(workload, seed, check=not runs))
        longest = max(longest, time.monotonic() - begin)
    return {"runs": runs, "traced": traced}


def problems(measured: Dict) -> List[str]:
    """Every reason the measured runs are not correct, by name."""
    runs, traced = measured["runs"], measured["traced"]
    found: List[str] = []
    first = runs[0]["fingerprint"]
    for key in FINGERPRINT_KEYS:
        values = {run["fingerprint"][key] for run in runs}
        if len(values) > 1:
            found.append(f"fingerprint drift between runs: {key} "
                         f"{sorted(values)}")
        if traced is not None and traced["fingerprint"][key] != first[key]:
            found.append(f"traced run differs from untraced: {key} "
                         f"{traced['fingerprint'][key]} != {first[key]}")
    for run in runs + ([traced] if traced else []):
        checks = run.get("checks")
        if checks is None:
            continue
        for violation in checks["invariant_violations"]:
            found.append(f"invariant: {violation}")
        if checks["readback_mismatches"]:
            found.append(f"read-back: {checks['readback_mismatches']} of "
                         f"{checks['readback_keys']} keys hold a value "
                         "neither loaded nor written")
    if traced is not None:
        trace = traced["trace"]
        accounted = sum(trace["self_s"].values())
        if abs(accounted - trace["root_span_s"]) > 1e-6 * trace["root_span_s"]:
            found.append(f"layer self times sum to {accounted:.6f} s, "
                         f"run span is {trace['root_span_s']:.6f} s")
        if abs(trace["root_span_s"] - trace["run_wall_s"]) > \
                0.01 * trace["run_wall_s"]:
            found.append("run span does not cover the traced run wall time")
    return found


def counts(measured: Dict) -> Dict[str, int]:
    runs = measured["runs"] + ([measured["traced"]]
                               if measured["traced"] else [])
    checks = [run["checks"] for run in runs if "checks" in run]
    attempted = sum(run["attempted"] for run in runs) + sum(
        check["readback_keys"] for check in checks)
    failed = sum(run["attempted"] - run["fingerprint"]["ops"]
                 for run in runs) + sum(
        check["readback_mismatches"] for check in checks)
    return {"attempted": attempted, "failed": failed}


def end_to_end(measured: Dict) -> Dict[str, List[float]]:
    """Per-process samples of every end-to-end metric."""
    samples: Dict[str, List[float]] = {m.name: [] for m in END_TO_END}
    for run in measured["runs"]:
        timing, fp = run["timing"], run["fingerprint"]
        samples["setup_s"].append(timing["setup_s"])
        samples["host_ops_per_s"].append(fp["ops"] / timing["run_wall_s"])
        samples["host_cpu_us_per_op"].append(
            timing["run_cpu_s"] / fp["ops"] * 1e6)
        samples["peak_rss_mb"].append(timing["peak_rss_mb"])
        for key in ("sim_mops", "sim_p50_us", "sim_p999_us"):
            samples[key].append(fp[key])
    return samples


def per_layer(measured: Dict) -> Dict[str, List[float]]:
    """Samples of every per-layer metric (one each from the traced run)."""
    runs, traced = measured["runs"], measured["traced"]
    trace = traced["trace"]
    samples: Dict[str, List[float]] = {
        "setup.import_s": [r["timing"]["import_s"] for r in runs],
        "setup.build_s": [r["timing"]["build_s"] for r in runs],
        "setup.load_s": [r["timing"]["load_s"] for r in runs],
        "hashing.load_s": [trace["hashing_load_s"]],
        "rdma.mn_queue_wait_us_per_op": [trace["mn_queue_wait_us_per_op"]],
        "trace.overhead_frac": [
            trace["run_wall_s"]
            / statistics.median(r["timing"]["run_wall_s"] for r in runs)
            - 1.0],
    }
    for layer in SELF_TIME_LAYERS:
        samples[f"{layer}.self_us_per_op"] = [
            trace["self_us_per_op"].get(layer, 0.0)]
    for layer in ("rdma", "layout", "core"):
        samples[f"{layer}.calls_per_op"] = [
            trace["calls_per_op"].get(layer, 0.0)]
    for name, value in runs[0]["counters"].items():
        samples[name] = [value]
    return samples


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> Dict:
    measured = measure(workload, seed, seconds, trace)
    found = problems(measured)
    tally = counts(measured)
    samples = per_layer(measured) if trace else end_to_end(measured)
    expected = {m.name for m in (PER_LAYER if trace else END_TO_END)}
    if set(samples) != expected:
        raise BenchError(f"{workload}: metrics {sorted(set(samples) ^ expected)}"
                         " are not both measured and declared")
    runs = measured["runs"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "host": host_descriptor(),
        "env": runs[0]["env"],
        "fingerprint": runs[0]["fingerprint"],
        "correct": not found,
        "problems": found,
        **tally,
        "failed_op_frac": tally["failed"] / tally["attempted"],
        "samples": samples,
        "metrics": {name: statistics.median(values)
                    for name, values in samples.items()},
    }


# -- output ------------------------------------------------------------------

def rows_for(record: Dict) -> List[Dict]:
    rows = []
    names = [m.name for m in (PER_LAYER if record["trace"] else END_TO_END)]
    for name in names:
        metric = METRICS[name]
        note = ""
        if name in ("sim_p50_us", "sim_p999_us"):
            note = f"{record['fingerprint']['latency_samples']} samples"
        rows.append({"workload": record["workload"], "metric": name,
                     "value": record["metrics"][name], "unit": metric.unit,
                     "better": metric.better,
                     "n": len(record["samples"][name]), "note": note})
    if not record["trace"]:
        rows.append({"workload": record["workload"],
                     "metric": FAILED_OP_FRAC.name,
                     "value": record["failed_op_frac"],
                     "unit": FAILED_OP_FRAC.unit,
                     "better": FAILED_OP_FRAC.better, "n": 1,
                     "note": f"{record['failed']} of {record['attempted']}"})
    return rows


def _cell(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def format_output(rows: List[Dict], columns: List[str], fmt: str,
                  title: str) -> str:
    """Render *rows* as an aligned table, CSV or JSON."""
    if fmt == "json":
        return json.dumps(rows, indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c, "") for c in columns])
        return buf.getvalue().rstrip()
    cells = [[_cell(row.get(c, "")) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
              for i, c in enumerate(columns)]
    lines = [title, "  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    lines += ["  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in cells]
    return "\n".join(lines)


# -- compare -----------------------------------------------------------------

def _load(path: str) -> List[Dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base_path: str, head_path: str) -> List[Dict]:
    """Per (workload, metric): medians, quartiles, pair win fraction.

    Runs are paired in file order within a workload.  A pair is a win
    when the head run is better in the metric's direction; ties count
    for neither side.  The p-value is ``repro.xpmt.stats``'s two-sided
    Mann-Whitney U over the two sets of run medians.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.xpmt.stats import mann_whitney_u

    base, head = _load(base_path), _load(head_path)
    hosts = {json.dumps(r["host"], sort_keys=True) for r in base + head}
    if len(hosts) > 1:
        raise BenchError("refusing to compare runs from different hosts: "
                         + "; ".join(sorted(hosts)))
    rows = []
    workloads = sorted({r["workload"] for r in base} & {r["workload"]
                                                          for r in head})
    for workload in workloads:
        b_runs = [r for r in base if r["workload"] == workload]
        h_runs = [r for r in head if r["workload"] == workload]
        for b_run, h_run in zip(b_runs, h_runs):
            if b_run["seed"] != h_run["seed"]:
                continue
            for key in FINGERPRINT_KEYS:
                if b_run["fingerprint"][key] != h_run["fingerprint"][key]:
                    rows.append({"workload": workload,
                                 "metric": f"fingerprint.{key}",
                                 "note": f"seed {b_run['seed']}: "
                                 f"{b_run['fingerprint'][key]} -> "
                                 f"{h_run['fingerprint'][key]}"})
        names = [n for n in METRICS
                 if any(n in r["metrics"] for r in b_runs)
                 and any(n in r["metrics"] for r in h_runs)]
        for name in names:
            metric = METRICS[name]
            b = [r["metrics"][name] for r in b_runs if name in r["metrics"]]
            h = [r["metrics"][name] for r in h_runs if name in r["metrics"]]
            sign = 1 if metric.better == "higher" else -1
            pairs = list(zip(b, h))
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            b1, bm, b3 = _quartiles(b)
            h1, hm, h3 = _quartiles(h)
            _u, p = mann_whitney_u(b, h)
            rows.append({
                "workload": workload, "metric": name, "unit": metric.unit,
                "better": metric.better, "n": f"{len(b)}/{len(h)}",
                "base_median": bm, "base_q1": b1, "base_q3": b3,
                "head_median": hm, "head_q1": h1, "head_q3": h3,
                "change": (hm - bm) / bm if bm else 0.0,
                "win_frac": wins / len(pairs) if pairs else 0.0,
                "p": p})
    return rows


COMPARE_COLUMNS = ["workload", "metric", "unit", "better", "n",
                   "base_median", "base_q1", "base_q3", "head_median",
                   "head_q1", "head_q3", "change", "win_frac", "p", "note"]


# -- main --------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Pinned simulator benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--format", dest="fmt", default="table",
                        choices=("table", "csv", "json"))
    parser.add_argument("--out", default=None,
                        help="append one JSON record per workload here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"),
                        help="compare two --out files instead of running")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    try:
        if args.compare:
            rows = compare(*args.compare)
            print(format_output(rows, COMPARE_COLUMNS, args.fmt,
                                f"{args.compare[0]} -> {args.compare[1]}"))
            return 0
        names = sorted(WORKLOADS) if args.workload == "all" else \
            [args.workload]
        records = [run_workload(name, args.seed, args.seconds,
                                bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.out:
        with open(args.out, "a") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
    rows = [row for record in records for row in rows_for(record)]
    host = records[0]["host"]
    print(format_output(rows, COLUMNS, args.fmt,
                        f"seed {args.seed}; python {host['python']}; "
                        f"{host['cpu']}; nproc {host['nproc']}"))
    for record in records:
        for problem in record["problems"]:
            print(f"perfbench: {record['workload']}: {problem}",
                  file=sys.stderr)
    if len(records) == 1:
        metrics = {name: {"value": value, "unit": METRICS[name].unit}
                   for name, value in records[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}/{name}":
                   {"value": value, "unit": METRICS[name].unit}
                   for r in records for name, value in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
