"""dpsketch release benchmark.

    python3 perfbench/run.py --workload lra-csv --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Run from the root of a source checkout; the library is imported from
./src. One run writes the workload's inputs from the seed, times
releases in a separate process (warm-up, then closed loop, one release at
a time, for --seconds), times the mechanism's constructor, runs one
untimed --oracle release and checks every output. It prints a table and,
as its last line, one JSON object: end-to-end metrics with --trace 0,
per-layer metrics from a traced run with --trace 1. See NOTES.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
# The keys of workloads.WORKLOADS, repeated so that arguments are parsed
# before numpy loads (BLAS threads are set from the environment then).
WORKLOAD_NAMES = ("lra-csv", "multiply-dpmt", "regress-dpmt")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The constructor is timed in two bursts, before and after the releases.
# Each burst lasts at least this many calls and seconds; setup_s is the
# median of all the calls, rescaled to reference speed like the releases.
SETUP_MIN_REPS, SETUP_MIN_SECONDS = 4, 1.0


def cap_blas_threads() -> int:
    """Limit BLAS threads to the CPUs this process may use (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def blas_threads_in_use() -> int | None:
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts(nproc: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads_in_use(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "DPSK_THREADS": os.environ.get("DPSK_THREADS"),
        "git_commit": git_commit(),
    }


def time_setup(wl, seed: int) -> list[float]:
    from probe import Prober, rescaled

    with Prober() as probe:
        probe()
        wl.construct(seed)  # warm-up
        times, probes = [], [probe()]
        start = time.perf_counter()
        while len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_SECONDS:
            t0 = time.perf_counter()
            wl.construct(seed)
            times.append(time.perf_counter() - t0)
            probes.append(probe())
    return rescaled(times, probes)


def run_child(cmd: list[str], timeout: float) -> tuple[int, str]:
    """Run a child process to its end; if we stop first, stop it and wait for it."""
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException:
            proc.terminate()
            proc.wait()
            raise
    return proc.returncode, out


def run_worker(wl, inputs, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    argv = wl.cli_args(inputs, seed, report="{report}", oracle=False)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--src", SRC,
           "--workdir", workdir, "--argv", json.dumps(argv), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    if trace:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(out_dir, f"trace-{wl.name}.json")]
    code, out = run_child(cmd, timeout=seconds + 100)
    if code != 0:
        raise RuntimeError(f"release worker exited with {code}")
    return json.loads(out.strip().splitlines()[-1])


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "dpsketch", "cli.py")):
        print(f"error: no dpsketch sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, SRC)
    import dpsketch
    from dpsketch import cli

    if not os.path.abspath(dpsketch.__file__).startswith(SRC + os.sep):
        print(f"error: imported dpsketch from {dpsketch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from checks import check_run
    from probe import REFERENCE_S, rescaled
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    facts = machine_facts(nproc)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{wl.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        t0 = time.perf_counter()
        inputs = wl.generate(args.seed, workdir)
        generate_s = time.perf_counter() - t0
        setup_times = [] if args.trace else time_setup(wl, args.seed)
        worker = run_worker(wl, inputs, args.seed, args.seconds, bool(args.trace), workdir)
        if not args.trace:
            setup_times += time_setup(wl, args.seed)

        oracle_rec = {"report": os.path.join(workdir, "oracle.json"), "error": None, "exit": None}
        t0 = time.perf_counter()
        try:
            oracle_rec["exit"] = cli.main(wl.cli_args(inputs, args.seed, oracle_rec["report"], oracle=True))
        except Exception:
            oracle_rec["error"] = traceback.format_exc(limit=3)
        oracle_s = time.perf_counter() - t0

        releases = worker["releases"]
        failures, quality, caught = check_run(wl, inputs, args.seed, releases, oracle_rec, workdir)
        attempted = len(releases) + 1
        failed = len(failures)
        correct = failed == 0 and bool(caught)

        times = [r["seconds"] for r in releases if not r["traced"]]
        n_traced = len(releases) - len(times)
        print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} seconds={args.seconds}")
        print("facts " + json.dumps(facts, sort_keys=True))
        print(f"inputs written in {generate_s:.3f} s; oracle release {oracle_s:.3f} s (untimed)")
        for where, probs in failures.items():
            print(f"FAILED {where}: " + "; ".join(probs))
        print("negative control (corrupted output): "
              + ("caught: " + caught[0] if caught else "NOT caught"))
        if quality.get("bound_ratio", 0.0) > 1.0:
            print(f"FOUND: {wl.name} oracle error exceeds the report's own error_bound "
                  f"(bound_ratio {quality['bound_ratio']:.4f} > 1); see perfbench/NOTES.md")
        print(f"releases: {len(times)} untraced + {n_traced} traced after 1 warm-up; closed loop, "
              f"1 client; ops attempted {attempted}, failed {failed}, "
              f"failed_share {failed / attempted:.4f}")

        print("untraced release seconds, in order: "
              + " ".join(f"{t:.4f}" for t in times))
        if args.trace:
            layers = dict(worker["layers"])
            traced = [r["seconds"] for r in releases if r["traced"]]
            layers["trace_overhead"] = statistics.median(traced) / statistics.median(times)
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in _units("per_layer").items()}
            release_s = layers["trace.release_s"]
            self_s = layers.pop("self_s_by_span")
            print(f"self time by span (median traced release {release_s:.4f} s):")
            for name, secs in sorted(self_s.items(), key=lambda kv: -kv[1]):
                print(f"  {name:24s} {secs:10.5f} s  {secs / release_s:7.2%}")
            total = sum(self_s.values())
            print(f"  {'sum':24s} {total:10.5f} s  {total / release_s:7.2%}")
        else:
            wall_s = statistics.median(times)
            release_s = statistics.median(rescaled(times, worker["probes"]))
            print(f"release wall time: median {wall_s:.4f} s; median probe "
                  f"{statistics.median(worker['probes']):.4f} s against {REFERENCE_S} s reference; "
                  f"release_s is the median of each release rescaled to reference speed")
            values = {
                "release_s": release_s,
                "setup_s": statistics.median(setup_times),
                # The oracle values read 0 only when the oracle release
                # failed, which the run already reports as a failed op.
                "retained_entries": quality.get("retained_entries", 0),
                "peak_rss_mib": worker["peak_rss_mib"],
                "rel_error": quality.get("rel_error", 0.0),
                "bound_ratio": quality.get("bound_ratio", 0.0),
                "ok_share": 1.0 - failed / attempted,
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in _units("end_to_end").items()}
            print(f"setup_s is the median of {len(setup_times)} constructor calls")
        for name, m in metrics.items():
            print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Run every workload in turn, each in its own process, and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code, out = run_child(cmd, timeout=args.seconds + 170)
        lines = out.strip().splitlines()
        if code != 0:
            print("\n".join(lines))
            print(f"error: workload {name} exited with {code}", file=sys.stderr)
            return code
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def _units(key: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # Turn SIGTERM into SystemExit, so the worker is killed and waited for
    # and the scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
