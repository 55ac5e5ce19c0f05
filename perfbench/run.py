"""Time-to-verdict benchmark for cotwist.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  `BENCHMARK.json` lists `sklyanin-gb` and
`report`.  `crossed-invariants` and `cocycles` run by name as well; they are
left out so that a run can last 55 seconds.  With four workloads the time
allows about 28 seconds a run, which holds only one or two of the
multi-second processes, and on a shared 2-core host the run-to-run spread of
`sklyanin-gb` and `cocycles` then reached the bounds.

Each workload is a closed loop with one client.  An operation is the list
of processes (steps) that together give one verdict; the loop runs them one
at a time, each in a fresh interpreter, because the Groebner, preset and
power-table caches live for a whole process and timing repeated work in one
process would measure cache hits.  Every verdict is checked against an
answer the benchmark works out itself, and each step's stdout must be
byte-identical to every other run of that step on the same seed
(digests are kept under `.perfbench_runs/`).

With `--trace 0` the last stdout line carries the end-to-end metrics:
verdict_s and cpu_s (over the steps, the sum of each step's median wall or
CPU time), setup_s (median over fresh set-up processes) and peak_rss_mb
(largest max-RSS of any step process).  With `--trace 1` one untraced
operation is followed by traced ones, and the line carries the per-layer
metrics read from the tracer in `shim.py`.  The first line gives the sample
counts, the failure ratio with its counts, and the Python version, CPU
count, seed and commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"
SHIM = "perfbench/shim.py"
SETUP_REPEATS = 7
PROCESS_LIMIT_S = 150.0


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


def run_process(args: tuple, workdir: Path) -> Proc:
    """Run one Python process to exit; wall time spans spawn to reap, CPU and
    peak RSS come from the child's own rusage."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen((sys.executable,) + tuple(args), cwd=ROOT,
                                env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(PROCESS_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()            # interrupted: leave no process behind
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode, out_path.read_bytes(), err_path.read_bytes())


class Digests:
    """sha256 of each step's stdout, per workload, seed and size, shared by
    every run in this checkout."""

    def __init__(self, path: Path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, stdout: bytes):
        digest = hashlib.sha256(stdout).hexdigest()
        seen = self.known.setdefault(key, digest)
        if seen != digest:
            return "stdout differs from another repetition of this step"
        return None

    def save(self) -> None:
        self.path.write_text(json.dumps(self.known, indent=1, sort_keys=True))


@dataclass
class Sample:
    """One process of one step."""

    step: int
    wall: float
    cpu: float
    rss_mb: float
    error: object          # None, or what went wrong
    trace: object          # the trace file of a traced process, else None


def run_step(workload, index: int, workdir: Path, digests: Digests, key: str,
             op=None) -> Sample:
    """Run step `index`; traced as part of operation `op` when one is given."""
    step = workload.steps[index]
    trace_path = None
    if op is not None:
        trace_path = workdir / f"trace-op{op}-step{index}.json"
        args = (SHIM, "--trace", str(trace_path), "--op", str(op), step.entry)
    elif step.entry == "cli":
        args = ("-m", "cotwist.cli")
    else:
        args = (SHIM, step.entry)
    args += step.argv
    proc = run_process(args, workdir)
    if proc.code != 0:
        problem = f"exit {proc.code}: {proc.stderr.decode()[-300:]}"
    else:
        try:
            problem = (step.check(proc.stdout)
                       or digests.check(f"{key}|{step.name}", proc.stdout))
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
    error = f"{step.name}: {problem}" if problem else None
    return Sample(index, proc.wall, proc.cpu, proc.rss_mb, error, trace_path)


def run_untraced(workload, seconds: float, run) -> list:
    """Cycle through the operation's steps, one process at a time, until the
    next step would end after `seconds`; every step runs at least once."""
    samples: list = []
    start = time.perf_counter()
    index = 0
    while True:
        mine = [x.wall for x in samples if x.step == index]
        covered = len({x.step for x in samples}) == len(workload.steps)
        if covered and time.perf_counter() - start + statistics.median(mine) > seconds:
            return samples
        samples.append(run(index))
        index = (index + 1) % len(workload.steps)


def run_traced(workload, seconds: float, run) -> tuple:
    """One untraced operation, then traced operations until the next would
    end after `seconds`; at least one traced operation."""
    plain = [run(i) for i in range(len(workload.steps))]
    traced: list = []
    start = time.perf_counter()
    while True:
        op = len(traced)
        traced.append([run(i, op) for i in range(len(workload.steps))])
        typical = statistics.median(sum(x.wall for x in t) for t in traced)
        if time.perf_counter() - start + typical > seconds:
            return plain, traced


def per_step_median(samples: list, field: str) -> float:
    """Time to a full verdict: over the operation's steps, the sum of each
    step's median."""
    steps = sorted({x.step for x in samples})
    return sum(statistics.median(getattr(x, field) for x in samples
                                 if x.step == i) for i in steps)


def measure_setup(workload, workdir: Path) -> tuple:
    """Median wall time of fresh processes that import cotwist and load the
    inputs; one untimed process first compiles the bytecode."""
    args = (SHIM, "setup", workload.name, str(workload.setup_input))
    times, errors = [], 0
    for repeat in range(SETUP_REPEATS + 1):
        proc = run_process(args, workdir)
        if proc.code != 0 or proc.stdout != b"ready\n":
            errors += 1
        elif repeat:
            times.append(proc.wall)
    return times, errors


# ---------------------------------------------------------------------------
# per-layer metrics from the traced processes
# ---------------------------------------------------------------------------

def layer_metrics(trace_files: list) -> dict:
    """One traced operation: sum each function's calls and times over its
    processes, then fold them into the per-layer table."""
    fn: dict = {}
    gb = {"truncated_gb_distinct": 0, "basis_size": 0, "normal_words": 0,
          "coeff_height_bits": 0}
    for path in trace_files:
        data = json.loads(Path(path).read_text())
        for name, (calls, incl, self_s) in data["functions"].items():
            acc = fn.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        gb["truncated_gb_distinct"] += data["gbasis"]["truncated_gb_distinct"]
        for k in ("basis_size", "normal_words", "coeff_height_bits"):
            gb[k] = max(gb[k], data["gbasis"][k])

    def calls(*names):
        return sum(fn.get(n, (0,))[0] for n in names)

    def self_time(*names):
        return sum(fn.get(n, (0, 0.0, 0.0))[2] for n in names)

    def layer_self(layer):
        return sum(v[2] for n, v in fn.items() if n.startswith(layer + "."))

    gb_calls = calls("gbasis.truncated_gb")
    nf_calls = calls("gbasis.normal_form")
    nf_incl = fn.get("gbasis.normal_form", (0, 0.0))[1]
    m = {
        "cyclo.mul_calls": calls("cyclo.CycNum.__mul__"),
        "cyclo.addsub_calls": calls("cyclo.CycNum.__add__", "cyclo.CycNum.__sub__"),
        "cyclo.inverse_calls": calls("cyclo.CycNum.inverse"),
        "cyclo.self_s": layer_self("cyclo"),
        "gbasis.truncated_gb_calls": gb_calls,
        "gbasis.truncated_gb_distinct": gb["truncated_gb_distinct"],
        "gbasis.truncated_gb_s": self_time("gbasis.truncated_gb"),
        "gbasis.cache_hit_ratio": (gb_calls / gb["truncated_gb_distinct"]
                                   if gb["truncated_gb_distinct"] else 0.0),
        "gbasis.normal_form_calls": nf_calls,
        "gbasis.normal_form_s": self_time("gbasis.normal_form"),
        "gbasis.normal_form_per_s": nf_calls / nf_incl if nf_incl else 0.0,
        "gbasis.basis_size": gb["basis_size"],
        "gbasis.normal_words": gb["normal_words"],
        "gbasis.coeff_height_bits": gb["coeff_height_bits"],
        "crossed.mul_calls": calls("crossed.CrossedElement.__mul__"),
        "crossed.self_s": layer_self("crossed"),
        "crossed.invariants_s": self_time("crossed.verify_invariant_ring"),
        "linalg.rank_calls": calls("linalg.rank"),
        "linalg.self_s": layer_self("linalg"),
        "freealg.parse_s": self_time("freealg.parse_ncpoly",
                                     "freealg.Presentation.parse"),
        "freealg.polymul_calls": calls("freealg.NcPoly.__mul__"),
        "freealg.self_s": layer_self("freealg"),
        "groups.validate_cocycle_calls": calls("groups.validate_cocycle"),
        "groups.validate_cocycle_s": self_time("groups.validate_cocycle"),
        "groups.is_coboundary_s": self_time("groups.is_coboundary"),
        "groups.char_eval_calls": calls("groups.Duality.char_eval"),
        "groups.char_eval_s": self_time("groups.Duality.char_eval"),
        "groups.automorphisms_s": self_time("groups.all_automorphisms"),
        "action.self_s": layer_self("action"),
        "twist.twist_poly_calls": calls("twist.twist_poly"),
        "twist.self_s": layer_self("twist"),
        "presets.self_s": layer_self("presets"),
        "jsonio.load_s": self_time("jsonio.load_json"),
        "jsonio.dump_s": self_time("jsonio.dump_json"),
        "cli.self_s": layer_self("cli"),
    }
    return m


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def spec_metrics(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: seconds, not minutes")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="shift every expected answer by one (self-test)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "cotwist" / "cli.py").is_file():
        print(f"no cotwist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    size = "tiny" if args.tiny else "full"
    workdir = RUNS / f"{args.workload}-{size}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, workdir, args.tiny,
                                        args.corrupt_expected)
    digests = Digests(RUNS / "stdout-digests.json")
    key = f"{args.workload}|{size}|{args.seed}|{int(args.corrupt_expected)}"

    setup_times, setup_errors = ([], 0) if args.trace else measure_setup(workload, workdir)

    def run(index, op=None):
        return run_step(workload, index, workdir, digests, key, op)

    if args.trace:
        plain, traced = run_traced(workload, args.seconds, run)
        samples = plain + [x for op in traced for x in op]
    else:
        samples = run_untraced(workload, args.seconds, run)
    digests.save()
    errors = [x.error for x in samples if x.error]
    attempted, failed = len(samples), len(errors)
    if setup_errors:
        errors.append(f"{setup_errors} set-up processes failed")

    if args.trace:
        units = spec_metrics("per_layer")
        per_op = [layer_metrics([x.trace for x in op]) for op in traced
                  if not any(x.error for x in op)]
        # counts must repeat exactly; times are medians over traced operations
        is_count = lambda name: not name.endswith(("_s", "_ratio"))
        if any(p[k] != per_op[0][k] for p in per_op for k in p if is_count(k)):
            errors.append("per-layer counts differ between traced operations")
        values = {name: (per_op[0][name] if is_count(name)
                         else statistics.median(p[name] for p in per_op))
                  if per_op else 0.0
                  for name in units if name != "trace.overhead_ratio"}
        values["trace.overhead_ratio"] = (
            statistics.median(sum(x.wall for x in op) for op in traced)
            / sum(x.wall for x in plain))
        counts = {"traced_ops": len(traced), "untraced_ops": 1}
        for path in workdir.iterdir():   # keep the first traced operation's spans
            if not path.name.startswith("trace-op0-"):
                path.unlink()
    else:
        units = spec_metrics("end_to_end")
        values = {
            "verdict_s": per_step_median(samples, "wall"),
            "cpu_s": per_step_median(samples, "cpu"),
            "setup_s": statistics.median(setup_times) if setup_times else 0.0,
            "peak_rss_mb": max(x.rss_mb for x in samples),
        }
        counts = {"processes_per_step": [sum(1 for x in samples if x.step == i)
                                         for i in range(len(workload.steps))],
                  "setup_processes": len(setup_times)}
        shutil.rmtree(workdir)

    meta = {"workload": args.workload, "seed": args.seed, "size": size,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
            "source_sha256": source_digest(), "samples": counts,
            "fail_ratio": failed / attempted, "failed": failed,
            "attempted": attempted, "errors": errors[:5]}
    print(json.dumps({"meta": meta}, sort_keys=True))
    for name, value in values.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(f"{'fail_ratio':32s} {failed / attempted:14.6g} ratio ({failed} of {attempted} processes)")
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
