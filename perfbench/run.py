"""Pipeline benchmark for rwspn: explore, solve and verify through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each sample is a fresh,
single-threaded ``perfbench/worker.py`` process that imports rwspn from
``src/``, sets up the model, and calls ``rwspn.cli.main`` once; samples run
one at a time for about ``--seconds``.  Every sample's output is checked.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (the mean
``wall_s`` of the samples, medians of the others); with ``--trace 1`` traced and
untraced samples alternate, in an order drawn from ``--seed``, and the
metrics are the per-layer ones from the traced samples (see ``spans.py``).
The models are deterministic; the seed also fixes each sample's
``PYTHONHASHSEED``.  ``--n`` shrinks a workload to another pinned model
size (the smoke test uses ``--n 1``).
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference"

HARD_LIMIT_S = 160.0  # keep a whole run inside 180 s

GRID = "1:100000:100"
EPS = 1e-12

# name -> model (k, m), default n, CLI arguments after "--n N", and the
# pinned (states, edges, finals) per n for the explore workloads
WORKLOADS = {
    "explore-quotient": {
        "k": 2, "m": 2, "n": 3,
        "argv": ["explore", "--mode", "quotient"],
        "pins": {1: (42, 80, 2), 3: (1059, 3782, 2)},
    },
    "explore-firing": {
        "k": 3, "m": 3, "n": 2,
        "argv": ["explore", "--k", "3", "--m", "3", "--mode", "ordinary"],
        "pins": {1: (400, 1218, 3), 2: (11120, 50808, 36)},
    },
    "solve": {
        "k": 2, "m": 2, "n": 2,
        "argv": ["solve", "--grid", GRID, "--eps", repr(EPS)],
        "pins": {1: (42, None, None), 2: (295, None, None)},
    },
    "verify": {
        "k": 2, "m": 2, "n": 2,
        "argv": ["verify"],
        "pins": {1: (42, None, None), 2: (295, None, None)},
    },
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# How a run sums up its samples.  On a machine whose cores are shared with
# other load, the same sample can take up to 1.8x longer, in phases lasting
# from seconds to minutes, so most of the noise is drift that a mean over
# the run partly averages out and a median or minimum does not.  In 17
# minutes of fresh verify samples on two shared Xeon vCPUs, cut into 30-s
# runs, the middle half of 10 consecutive runs spread 14% of their median
# (20% at the 90th percentile) for the mean, 19% (25%) for the median and
# 17% (28%) for the fastest sample.  Set-up time keeps the median, and
# so does memory, which does not drift.
SUMMARY = {"setup_s": statistics.median, "wall_s": statistics.fmean, "peak_rss_mb": statistics.median}

PER_LAYER = {
    "canon.normalize.calls": "count", "canon.normalize.s": "s",
    "canon.normalize_marking.calls": "count", "canon.normalize_marking.s": "s",
    "canon.brute_force_normal.calls": "count", "canon.brute_force_normal.s": "s",
    "canon.share": "frac", "canon.distinct_nets": "count",
    "rewrite.to_augmented.calls": "count", "rewrite.fire_agg.self_s": "s",
    "rewrite.all_rewrites.self_s": "s", "rewrite.rule_app.calls": "count",
    "rewrite.rule_app.self_s": "s",
    "net.enabled_instances.calls": "count", "net.enabled_instances.s": "s",
    "net.fire.calls": "count", "net.fire.s": "s",
    "statespace.explore.s": "s", "statespace.explore.self_s": "s",
    "statespace.states": "count", "statespace.edges": "count", "statespace.levels": "count",
    "statespace.new_state_ratio": "frac", "statespace.states_per_s": "1/s",
    "statespace.rss_per_state_b": "B", "statespace.quotient_partition.s": "s",
    "ctmc.build_generator.s": "s", "ctmc.nnz": "count", "ctmc.lambda": "1/s",
    "ctmc.transient.calls": "count", "ctmc.transient.s": "s", "ctmc.transient.terms": "count",
    "ctmc.matvec_per_s": "1/s", "ctmc.bytes_per_matvec": "B", "ctmc.max_mass_defect": "frac",
    "ctmc.measure_series.self_s": "s", "ctmc.check_strong_lumpability.s": "s",
    "ctmc.lump_generator.s": "s",
    "cli.self_s": "s", "trace.overhead_frac": "frac", "trace.absent_targets": "count",
}


def _stdout_field(stdout: str, key: str) -> int | None:
    for line in stdout.splitlines():
        for field in line.split():
            if field.startswith(key + "="):
                return int(field[len(key) + 1:])
    return None


def _line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def check_explore(record: dict, out: Path, pins: tuple) -> list[str]:
    states, edges, finals = pins
    errors = []
    got = {
        "stdout states": (_stdout_field(record["stdout"], "states"), states),
        "stdout final": (_stdout_field(record["stdout"], "final"), finals),
        "states.txt lines": (_line_count(out / "states.txt"), states),
        "edges.txt lines": (_line_count(out / "edges.txt"), edges),
    }
    for what, (value, want) in got.items():
        if value != want:
            errors.append(f"{what}: {value}, expected {want}")
    return errors


def check_solve(record: dict, out: Path, n: int, pins: tuple) -> list[str]:
    """Compare measures.csv with the stored reference, value by value.

    The reference was computed by a different method (Krylov expm_multiply,
    see make_reference.py).  Each of the P grid steps truncates the
    uniformization series at Poisson mass eps and renormalizes, so the
    distribution is within 2*P*eps in total variation; a factor 2 more
    covers rounding.  Reliability errors are bounded by that distance,
    throughput errors by it times the largest "as" rate, and conditional
    X/R is compared only where R is not small.
    """
    ref = json.loads((REFERENCE / f"solve_n{n}.json").read_text())
    errors = []
    points = len(ref["rows"])
    if _stdout_field(record["stdout"], "states") != pins[0]:
        errors.append(f"stdout: {record['stdout'].strip()!r}, expected states={pins[0]}")
    if _stdout_field(record["stdout"], "grid") != points:
        errors.append(f"stdout: {record['stdout'].strip()!r}, expected grid={points}")
    lines = (out / "measures.csv").read_text().splitlines()
    if lines[:1] != ["t,throughput,reliability,conditional"] or len(lines) != points + 1:
        return errors + [f"measures.csv: {len(lines)} lines, expected header and {points} rows"]
    tol_r = 4 * points * ref["eps"]
    tol_x = tol_r * ref["max_as_rate"]
    for line, (t_ref, x_ref, r_ref) in zip(lines[1:], ref["rows"]):
        t, x, r, c = line.split(",")
        t, x, r = float(t), float(x), float(r)
        bad = not math.isclose(t, t_ref, rel_tol=1e-9) or abs(x - x_ref) > tol_x or abs(r - r_ref) > tol_r
        if r_ref >= 1e-3:
            c_ref = x_ref / r_ref
            bad = bad or c == "" or abs(float(c) - c_ref) > (tol_x + c_ref * tol_r) / (r_ref - tol_r)
        elif r_ref + tol_r < 1e-12:
            bad = bad or c != ""
        if bad:
            errors.append(f"measures.csv row {line!r} differs from reference {(t_ref, x_ref, r_ref)}")
    return errors


def check_verify(record: dict) -> list[str]:
    passes = [line for line in record["stdout"].splitlines() if ": PASS" in line]
    if len(passes) != 3:
        return [f"expected three PASS lines, got {record['stdout']!r}"]
    return []


def check(workload: str, n: int, record: dict, out: Path) -> list[str]:
    spec = WORKLOADS[workload]
    if record["rc"] != 0:
        return [f"exit code {record['rc']}: {record['stderr'].strip()[-500:]}"]
    if not Path(record["module"]).resolve().is_relative_to(SRC):
        return [f"imported rwspn from {record['module']}, not from {SRC}"]
    pins = spec["pins"][n]
    if workload.startswith("explore"):
        return check_explore(record, out, pins)
    if workload == "solve":
        return check_solve(record, out, n, pins)
    return check_verify(record)


def run_sample(workload: str, n: int, seed: int, index: int, trace: bool, timeout: float):
    """One fresh worker process; returns (record or None, errors)."""
    spec = WORKLOADS[workload]
    out = WORK / f"{workload}-{os.getpid()}-{index}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    record_path = out / "record.json"
    argv = [spec["argv"][0], "--n", str(n), *spec["argv"][1:]]
    if argv[0] in ("explore", "solve"):
        argv += ["--out", str(out)]
    cmd = [sys.executable, str(HERE / "worker.py"), "--record", str(record_path),
           "--n", str(n), "--k", str(spec["k"]), "--m", str(spec["m"])]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed % 2**32),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run([*cmd, "--", *argv], cwd=out, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        return None, [f"worker timed out after {timeout:.0f} s"]
    try:
        if proc.returncode != 0 or not record_path.is_file():
            return None, [f"worker exited {proc.returncode}: {proc.stderr.strip()[-1000:]}"]
        record = json.loads(record_path.read_text())
        return record, check(workload, n, record, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def main() -> int:
    p = argparse.ArgumentParser(description="rwspn pipeline benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--n", type=int, default=None, help="model size (default: the workload's)")
    args = p.parse_args()

    spec = WORKLOADS[args.workload]
    n = spec["n"] if args.n is None else args.n
    if n not in spec["pins"]:
        p.error(f"no pinned results for {args.workload} at n={n}; pinned: {sorted(spec['pins'])}")
    if not (SRC / "rwspn" / "cli.py").is_file():
        print(f"error: no rwspn sources under {SRC}", file=sys.stderr)
        return 2

    began = time.perf_counter()
    # byte-code compilation, which a CLI user pays once, stays out of set-up
    compileall.compile_dir(SRC / "rwspn", quiet=1)
    rng = random.Random(args.seed)
    # traced runs alternate pairs of untraced and traced samples
    kinds = [False, True] if args.trace else [False]
    min_samples = 2 if args.trace else 3
    records = {False: [], True: []}
    attempted = failed = 0
    durations: list[float] = []
    started = time.perf_counter()
    while not failed:
        # start another round only if it is expected to end, on balance,
        # within --seconds: at most half of it may fall after
        predicted = len(kinds) * statistics.median(durations) if durations else 0.0
        enough = all(len(records[k]) >= min_samples for k in kinds)
        if enough and time.perf_counter() - started + predicted / 2 > args.seconds:
            break
        if time.perf_counter() - began + predicted > HARD_LIMIT_S:
            break
        rng.shuffle(kinds)
        for trace in kinds:
            t0 = time.perf_counter()
            record, errors = run_sample(args.workload, n, args.seed, attempted, trace,
                                        timeout=max(1.0, HARD_LIMIT_S - (t0 - began)))
            durations.append(time.perf_counter() - t0)
            attempted += 1
            if errors:
                failed += 1
                for e in errors:
                    print(f"check failed ({args.workload}, sample {attempted}): {e}", file=sys.stderr)
            else:
                records[trace].append(record)
                print(f"sample {attempted}{' traced' if trace else ''}: setup_s={record['setup_s']:.4f}"
                      f" wall_s={record['wall_s']:.4f} peak_rss_mb={record['peak_rss_mb']:.1f}",
                      file=sys.stderr)
    try:
        WORK.rmdir()  # left in place while another run still uses it
    except OSError:
        pass

    if failed or not records[bool(args.trace)]:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1

    untraced = records[False]
    if args.trace:
        traced = records[True]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in PER_LAYER if name in traced[0]["layers"]}
        wall = statistics.median(r["wall_s"] for r in untraced)
        values["trace.overhead_frac"] = statistics.median(r["wall_s"] for r in traced) / wall - 1
        absent = sorted({name for r in traced for name in r["absent"]})
        if absent:
            print(f"absent wrap targets: {', '.join(absent)}", file=sys.stderr)
        units = PER_LAYER
    else:
        values = {name: SUMMARY[name](r[name] for r in untraced) for name in END_TO_END}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
