#!/usr/bin/env python3
"""The repository's benchmark: builds the simulator, runs one workload and
prints every metric BENCHMARK.json names, by name and with its unit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each repetition of the workload is its own perfbench_rep process (see
rep.cpp), run one after another, never side by side, so host times and
peak RSS belong to that workload alone. Repetitions continue while the
next one is expected to end within --seconds (at least three, or two
traced pairs), so a run measures for about --seconds and no longer.
End-to-end host-time figures are means over the repetitions, which on a
shared host spread less from run to run than their medians; per-layer
figures are medians. Simulated-time figures must be bit-identical across
the repetitions, since every one uses the seed.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics of the traced ones,
with obs.trace_overhead (traced over untraced run_wall_s, minus 1); the
traced repetitions must report the same simulated figures as the untraced.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it give every metric in a
table and one provenance row (git sha, nproc, build type, worker threads,
seed), which is also appended to <build>/perfbench/ledger.jsonl; the
benchmark's own spans go to <build>/perfbench/spans/. <build> is
$CARGO_TARGET_DIR, or .bench_build at the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPS = 3
# No repetition starts once this much of the 180 s run budget is gone.
START_DEADLINE_S = 150.0
# Simulated-clock figures each repetition reports; they must repeat exactly.
SIM_KEYS = ("ops", "sim_ops_per_s", "sim_p50_us", "sim_p99_us",
            "latency_samples", "tail_p", "tail_us")


def start_another(done, elapsed, seconds, min_reps):
    """Whether to start one more repetition (or traced pair): the first
    always; none once START_DEADLINE_S is gone; otherwise any below min_reps,
    and after that only while one more, as long as the mean so far, would
    end within seconds."""
    if done == 0:
        return True
    if elapsed >= START_DEADLINE_S:
        return False
    return done < min_reps or elapsed + elapsed / done <= seconds


def median(values):
    return statistics.median(values)


def mean(values):
    """Exact for identical values, so a simulated figure passes unchanged."""
    return statistics.mean(values)


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the
    median (statistics.quantiles' default method); 0 for fewer than two
    values or a zero median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    m = median(values)
    return (q3 - q1) / m if m else 0.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build perfbench_rep; returns its path."""
    src = HERE
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", src, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_rep", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_rep")


def run_rep(exe, workload, seed, traced, run_id):
    """One repetition in its own process; returns its JSON row."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--run-id", run_id] + (["--trace"] if traced else [])
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{run_id}: perfbench_rep printed nothing "
                           f"(exit {p.returncode})")
    row = json.loads(lines[-1])
    if p.returncode != 0 and row["correct"]:
        row["correct"] = False
        row["failures"].append(f"perfbench_rep exited {p.returncode}")
    return row


def sim_figures(row):
    return ({k: row["sim"][k] for k in SIM_KEYS}, row["attempted"],
            row["failed"])


def check_identical(rows, what):
    """Failures when the rows' simulated figures differ."""
    first = sim_figures(rows[0])
    return [f"{what}: {r['run_id']} differs from {rows[0]['run_id']}"
            for r in rows[1:] if sim_figures(r) != first]


def end_to_end(rows):
    """End-to-end metrics, each a list over repetitions (main takes the
    mean); the simulated figures, identical in every repetition, once."""
    host = lambda k: [r["host"][k] for r in rows]
    sim = rows[0]["sim"]
    attempted = sum(r["attempted"] for r in rows)
    failed = sum(r["failed"] for r in rows)
    return {
        "run_wall_s": host("run_wall_s"),
        "run_cpu_s": host("run_cpu_s"),
        "setup_s": host("setup_s"),
        "sim_ops_per_host_s": [r["sim"]["ops"] / r["host"]["run_wall_s"]
                               for r in rows],
        "peak_rss_mib": host("peak_rss_mib"),
        "sim_ops_per_s": [sim["sim_ops_per_s"]],
        "sim_p99_us": [sim["sim_p99_us"]],
        "completed_op_share": [1.0 - failed / attempted if attempted else 0.0],
    }


def per_layer(untraced, traced):
    """Per-layer metrics of the traced repetitions (medians), plus the
    tracing overhead against the untraced ones."""
    names = traced[0]["layer"].keys()
    out = {k: [r["layer"][k] for r in traced] for k in names}
    out["workload.latency_samples"] = [traced[0]["sim"]["latency_samples"]]
    wall = lambda rows: median([r["host"]["run_wall_s"] for r in rows])
    out["obs.trace_overhead"] = [wall(traced) / wall(untraced) - 1.0]
    return out


def git_sha():
    """HEAD of the checkout when it is its own git work tree, else unknown."""
    git = lambda *a: subprocess.run(["git", "-C", ROOT, *a],
                                    capture_output=True, text=True)
    try:
        top = git("rev-parse", "--show-toplevel")
        head = git("rev-parse", "HEAD")
    except OSError:
        return "unknown"
    if top.returncode or head.returncode or \
            os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
        return "unknown"
    return head.stdout.strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    tag = "t" if args.trace else "u"
    prefix = f"{args.workload}-s{args.seed}-{tag}{os.getpid()}"
    untraced, traced = [], []
    t0 = time.monotonic()
    min_reps = 2 if args.trace else MIN_REPS
    while start_another(len(untraced), time.monotonic() - t0, args.seconds,
                        min_reps):
        i = len(untraced)
        untraced.append(run_rep(exe, args.workload, args.seed, False,
                                f"{prefix}-r{i}u"))
        if args.trace:
            traced.append(run_rep(exe, args.workload, args.seed, True,
                                  f"{prefix}-r{i}t"))
    rows = untraced + traced

    failures = [f"{r['run_id']}: {m}" for r in rows for m in r["failures"]]
    failures += check_identical(untraced, "same-seed repetitions")
    if traced:
        failures += check_identical([untraced[0]] + traced,
                                    "traced vs untraced (obs passivity)")
    samples = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    missing = [m["name"] for m in wanted if m["name"] not in samples]
    if missing:
        failures.append(f"metrics not produced: {missing}")
    agg = median if args.trace else mean
    metrics = {m["name"]: {"value": agg(samples[m["name"]]), "unit": m["unit"]}
               for m in wanted if m["name"] in samples}

    sim = untraced[0]["sim"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"reps={len(untraced)}" + (f"+{len(traced)} traced" if traced else ""))
    print(f"  {'metric':40s} {'value':>18s} {'unit':14s} quartile spread")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:18.6g} {m['unit']:14s} "
              f"{quartile_spread(samples[name]):.4f}")
    print(f"  sim_p50_us {sim['sim_p50_us']:.6g} us, sim_p99_us "
          f"{sim['sim_p99_us']:.6g} us, p{sim['tail_p']:g} {sim['tail_us']:.6g}"
          f" us over {sim['latency_samples']} samples")
    for f_ in failures:
        print(f"  FAILED: {f_}")

    row = {"git_sha": git_sha(), "nproc": os.cpu_count(),
           "build_type": rows[0]["build_type"], "threads": rows[0]["threads"],
           "seed": args.seed, "workload": args.workload, "trace": args.trace,
           "reps": len(untraced), "correct": not failures,
           "metrics": {k: v["value"] for k, v in metrics.items()},
           "sim_p50_us": sim["sim_p50_us"],
           "latency_samples": sim["latency_samples"]}
    print("row: " + json.dumps(row, sort_keys=True))
    out_dir = os.path.join(build_dir, "spans")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(build_dir, "ledger.jsonl"), "a") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")
    with open(os.path.join(out_dir, prefix + ".json"), "w") as f:
        json.dump([{"run_id": r["run_id"], "traced": r["traced"],
                    "spans": r["spans"]} for r in rows], f)

    print(json.dumps({"correct": not failures,
                      "attempted": sum(r["attempted"] for r in rows),
                      "failed": sum(r["failed"] for r in rows),
                      "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
