"""End-to-end benchmark of the ``binram`` command.

Usage (from the repository root):

    python3 perfbench/run.py --workload {grid,certify,enclosure} --seed N \
        --seconds S --trace {0,1}

A workload is a fixed list of ``binram`` subcommands, each run in a fresh
interpreter, one after another (a closed loop with one client).  The
benchmark repeats whole rounds of that list for about S seconds, checks every
output against a computation made apart from the program (``checks.py``), and
prints one JSON object as its last line: ``correct``, ``attempted``,
``failed`` and the metrics, each the median over the rounds.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (a fresh
interpreter importing ``binram.cli``; a few probes before every round, and the
median over all of them), ``wall_s`` (the sum
of a round's operation times), ``peak_rss_mb`` (the largest RSS of any
operation's process) and ``stage1_s`` .. ``stage4_s``, the time of each of the
workload's four stages (see ``STAGES``).  With ``--trace 1`` untraced and
traced rounds alternate: the traced rounds run each subcommand under
``tracer.py`` and give per-function call counts and self times, and the median
of the per-pair differences between a traced round and the untraced round just
before it is the tracing overhead.

The seed picks the points the output checks sample; the subcommands and their
flags are the same for every seed, so every seed costs the same work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks
from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PY = sys.executable
SETUP_PROBES_PER_ROUND = 3
OP_TIMEOUT_S = 90
CLI_EXIT_CODES = (0, 1, 2)  # clean, violations found, inconclusive
STAGE_METRICS = ["stage1_s", "stage2_s", "stage3_s", "stage4_s"]


@dataclass
class Op:
    """One subcommand run; ``check(text, exit_code, outputs)`` raises CheckError."""

    stage: str  # the end-to-end metric the op's time adds to; "" for references
    name: str
    args: list
    check: Callable


# -- workloads -------------------------------------------------------------------

GRID_N = 120  # scan rows: sum of (n-1) over 2 <= n <= 120 = 7140
ZLB_N = 80
EXP_N = 600
SAMUELS_N, CONJ_N, MONO_N = 80, 6, 50
CONJ_STEP = Fraction(1, 20)  # the CLI's default grid step
POISSON_B = 150
THRESHOLD_DIGITS = 60  # the CLI's default
VERIFY_CLAIMS = ["1", "2", "3", "lemma1", "moments"]
# claim 1 alone costs 3 s at the default --n-max 60 (which claim 3 needs to
# reach its known b = 5 failure), so its shard runs at a smaller n_max
CLAIM1_N = 30


def sampler(seed, name):
    """The random source of one operation's sampled check points."""
    return random.Random(f"{seed}:{name}")


def grid(out, seed):
    return [
        Op("stage1_s", "scan_p", ["scan-p", "--n-max", str(GRID_N)],
           lambda t, c, o: checks.check_scan_p(t, c, GRID_N, sampler(seed, "scan_p"))),
        Op("stage2_s", "scan_p_w2", ["scan-p", "--n-max", str(GRID_N), "--workers", "2"],
           lambda t, c, o: checks.check_same_bytes(t, o["scan_p"], "the 1-worker scan")),
        Op("stage3_s", "scan_z", ["scan-z", "--n-max", str(GRID_N), "--format", "json"],
           lambda t, c, o: checks.check_scan_z(t, c, GRID_N, sampler(seed, "scan_z"))),
        Op("stage4_s", "z_lowerbound", ["certify", "z-lowerbound", "--n-max", str(ZLB_N)],
           lambda t, c, o: checks.check_z_lowerbound(t, c, ZLB_N, sampler(seed, "z_lowerbound"))),
    ]


def certify(out, seed):
    def shard(claim, *flags):
        return Op("stage3_s", f"verify_{claim}",
                  ["verify", "--claims", claim, *flags, "--format", "json"],
                  lambda t, c, o: checks.check_verify_shard(t, c, claim))

    shards = [os.path.join(out, f"verify_{claim}.out") for claim in VERIFY_CLAIMS]
    return [
        # the unsharded run the merged shards are compared against; in no stage
        Op("", "verify_all", ["verify", "--claims", ",".join(VERIFY_CLAIMS[1:]),
                              "--format", "json"],
           lambda t, c, o: checks.expect(c == 1, f"unsharded verify: exit code {c}")),
        Op("stage1_s", "exp_bounds", ["certify", "exp-bounds", "--n-max", str(EXP_N)],
           lambda t, c, o: checks.check_exp_bounds(t, c, EXP_N)),
        Op("stage2_s", "appendix_b", ["certify", "appendix-b"],
           lambda t, c, o: checks.check_appendix_b(t, c, sampler(seed, "appendix_b"))),
        Op("stage2_s", "appendix_c", ["certify", "appendix-c"],
           lambda t, c, o: checks.check_appendix_c(t, c)),
        Op("stage2_s", "root_bounds", ["certify", "root-bounds"],
           lambda t, c, o: checks.check_root_bounds(t, c, sampler(seed, "root_bounds"))),
        shard("1", "--n-max", str(CLAIM1_N)),
        *[shard(claim) for claim in VERIFY_CLAIMS[1:]],
        Op("stage3_s", "verify_merge", ["report-merge", *shards, "--format", "json"],
           lambda t, c, o: checks.check_verify_merged(t, c, o["verify_all"], o["verify_1"])),
        Op("stage4_s", "samuels", ["smalldev", "samuels", "--n-max", str(SAMUELS_N)],
           lambda t, c, o: checks.check_samuels(t, c, SAMUELS_N, sampler(seed, "samuels"))),
        Op("stage4_s", "conjecture", ["smalldev", "conjecture", "--n-max", str(CONJ_N)],
           lambda t, c, o: checks.check_conjecture(t, c, CONJ_N, CONJ_STEP)),
        Op("stage4_s", "monotonicity", ["smalldev", "monotonicity", "--n-max", str(MONO_N)],
           lambda t, c, o: checks.check_monotonicity(t, c, MONO_N)),
    ]


def enclosure(out, seed):
    def poisson(stage, digits):
        name = f"poisson_d{digits}"
        return Op(stage, name,
                  ["poisson", "--b-max", str(POISSON_B), "--digits", str(digits)],
                  lambda t, c, o: checks.check_poisson(t, c, POISSON_B, digits,
                                                       sampler(seed, name)))

    def threshold(stage, n):
        return Op(stage, f"threshold_{n}", ["threshold", "--n", str(n), "--format", "json"],
                  lambda t, c, o: checks.check_threshold(t, c, n, THRESHOLD_DIGITS))

    # every n is above the exact cutoff of 2000, so exactcore is never reached
    return [
        poisson("stage1_s", 30),
        poisson("stage2_s", 60),
        threshold("stage3_s", 10_000),
        threshold("stage3_s", 40_000),
        threshold("stage4_s", 100_000),
    ]


WORKLOADS = {"grid": grid, "certify": certify, "enclosure": enclosure}

# what each stage metric times, per workload (printed next to the figures)
STAGES = {
    "grid": {"stage1_s": "scan_p_s: scan-p, 1 worker",
             "stage2_s": "scan_p_w2_s: scan-p --workers 2",
             "stage3_s": "scan_z_s: scan-z in JSON",
             "stage4_s": "z_lowerbound_s: certify z-lowerbound"},
    "certify": {"stage1_s": "exp_bounds_s: certify exp-bounds",
                "stage2_s": "certify_s: appendix-b, appendix-c, root-bounds",
                "stage3_s": "verify_s: 5 verify shards + report-merge",
                "stage4_s": "smalldev_s: samuels, conjecture, monotonicity"},
    "enclosure": {"stage1_s": "poisson_s (30 digits)",
                  "stage2_s": "poisson_s (60 digits)",
                  "stage3_s": "threshold_s (n = 10^4 and 4*10^4)",
                  "stage4_s": "threshold_s (n = 10^5)"},
}


# -- running operations ---------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv, out_path, err_path):
    """Run argv to completion; return (seconds, exit code, peak RSS in MB).

    The child is reaped with wait4 so that its own resource usage is read.
    A child still running after OP_TIMEOUT_S is killed.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024


class Run:
    """Counts and outputs shared by every round of one benchmark run."""

    def __init__(self, ops, out_dir):
        self.ops = ops
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.errors = []  # check failures of operations that ran to their end
        self.failures = []
        self.outputs = {}

    def run_op(self, op, traced):
        path = os.path.join(self.out_dir, op.name)
        if traced:
            argv = [PY, os.path.join(HERE, "tracer.py"), path + ".trace.json", *op.args]
        else:
            argv = [PY, "-m", "binram.cli", *op.args]
        seconds, code, rss = run_process(argv, path + ".out", path + ".err")
        with open(path + ".out", encoding="utf-8") as fh:
            text = fh.read()
        with open(path + ".err", encoding="utf-8") as fh:
            crashed = "Traceback (most recent call last)" in fh.read()
        self.attempted += 1
        if crashed or code not in CLI_EXIT_CODES:
            self.failed += 1
            self.failures.append(f"{op.name}: failed with exit code {code}")
        else:
            try:
                op.check(text, code, self.outputs)
            except Exception as exc:  # a malformed report is a failed check, not a crash
                self.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
        self.outputs[op.name] = text
        trace = None
        if traced:
            try:
                with open(path + ".trace.json", encoding="utf-8") as fh:
                    trace = json.load(fh)
            except FileNotFoundError:  # killed before it could write its spans
                trace = {"calls": {}, "self_s": {}, "counters": {}, "distinct_tails": 0}
        return seconds, rss, trace

    def prepare(self):
        for op in self.ops:
            if not op.stage:
                self.run_op(op, traced=False)

    def round(self, traced):
        """One pass over the timed ops: stage times, wall, peak RSS, traces."""
        stages = dict.fromkeys(STAGE_METRICS, 0.0)
        peak, traces = 0.0, []
        for op in self.ops:
            if op.stage:
                seconds, rss, trace = self.run_op(op, traced)
                stages[op.stage] += seconds
                peak = max(peak, rss)
                traces.append(trace)
        return {"stages": stages, "wall_s": sum(stages.values()), "peak_rss_mb": peak,
                "traces": traces}


def setup_times():
    """Seconds for a fresh interpreter to import binram.cli, a few times.

    Probes are taken before every round, so that they spread over the run's
    drift instead of all sharing one moment at its start.
    """
    times = []
    for _ in range(SETUP_PROBES_PER_ROUND):
        t0 = time.perf_counter()
        subprocess.run([PY, "-c", "import binram.cli"], cwd=ROOT, env=child_env(), check=True)
        times.append(time.perf_counter() - t0)
    return times


def backend_name():
    proc = subprocess.run([PY, "-c", "import binram.backend as b; print(b.BACKEND)"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          check=True)
    return proc.stdout.strip()


# -- metrics ----------------------------------------------------------------------


def layer_metrics(traces):
    """Per-layer figures of one traced round, summed over its operations."""
    calls, self_s, counters = defaultdict(int), defaultdict(float), defaultdict(int)
    distinct = 0
    for trace in traces:
        for name, value in trace["calls"].items():
            calls[name] += value
        for name, value in trace["self_s"].items():
            self_s[name] += value
        for name, value in trace["counters"].items():
            counters[name] += value
        distinct += trace["distinct_tails"]  # tails are only reusable within a process
    out = {}
    for layer, fns in LAYERS.items():
        names = [f"{layer}.{fn}" for fn in fns]
        for name in names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out[f"{layer}.self_s"] = sum(self_s[name] for name in names)
    out["cli.pool_wait_s"] = self_s["cli.pool_wait"]
    evals, signs = counters["tail_evals"], counters["float_signs"]
    # ratios read 0 where their base is 0 (no tails, or no sign decided in floats)
    out["exactcore.tail_reuse"] = distinct / evals if evals else 0.0
    out["highprec.evals_per_sign"] = calls["highprec.z_highprec"] / signs if signs else 0.0
    out["highprec.inconclusive"] = counters["inconclusive"]
    return out


def per_layer_units():
    units = {}
    for name in [*layer_metrics([]), "trace.wall_s", "trace.untraced_wall_s",
                 "trace.overhead_s"]:
        if name.endswith(".calls") or name == "highprec.inconclusive":
            units[name] = "count"
        else:
            units[name] = "s" if name.endswith("_s") else "ratio"
    return units


def median_of(rounds, key):
    return statistics.median(r[key] for r in rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "binram", "cli.py")):
        print(f"perfbench: no binram sources under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()  # the run, set-up included, lasts about --seconds
    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    backend = backend_name()

    run = Run(WORKLOADS[args.workload](out_dir, args.seed), out_dir)
    run.prepare()
    setup, plain, traced = [], [], []
    while True:
        t0 = time.perf_counter()
        setup += setup_times()
        plain.append(run.round(traced=False))
        if args.trace:
            traced.append(run.round(traced=True))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > args.seconds:
            break

    units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    units.update(dict.fromkeys(STAGE_METRICS, "s"))
    if args.trace:
        per_round = [layer_metrics(r["traces"]) for r in traced]
        metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        metrics["trace.wall_s"] = median_of(traced, "wall_s")
        metrics["trace.untraced_wall_s"] = median_of(plain, "wall_s")
        # each traced round is paired with the untraced round just before it,
        # so drift between rounds far apart cancels out of the overhead
        metrics["trace.overhead_s"] = statistics.median(
            t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
        units = per_layer_units()
    else:
        metrics = {"setup_s": statistics.median(setup),
                   "wall_s": median_of(plain, "wall_s"),
                   "peak_rss_mb": median_of(plain, "peak_rss_mb")}
        for stage in STAGE_METRICS:
            metrics[stage] = statistics.median(r["stages"][stage] for r in plain)

    print(f"binram benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(plain)} backend={backend} python={platform.python_version()} "
          f"nproc={os.cpu_count()}")
    for stage, label in STAGES[args.workload].items():
        print(f"  {stage} = {statistics.median(r['stages'][stage] for r in plain):.4f} s"
              f"  ({label})")
    for line in run.failures + run.errors:
        print(f"  ERROR {line}")
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
