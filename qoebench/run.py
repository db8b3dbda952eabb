#!/usr/bin/env python3
"""Build vqoe's probe -> verdict benchmark from this checkout and run it.

    python3 qoebench/run.py --workload live-windowed --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds
qoe_bench (Release, from ../src) under $CARGO_TARGET_DIR or .bench_build;
later calls only re-run the no-op build. With --trace 0 the inputs are
generated into a scratch directory by a `prepare` process of their own,
then a fresh `run` process measures them and prints the end-to-end result,
and `setup` processes each time one more cold set-up: `setup_s` is the
fastest tenth of the cold set-ups (the run's own included), since one
process in two runs its first milliseconds up to 1.8x slower.
With --trace 1 a `trace` process regenerates the inputs in-process, drives
every layer on them and prints the per-layer result. Either way the last
line of standard output is the JSON result; every scratch directory is
removed before exit.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("live-windowed", "live-churn", "offline-train-assess")
# Cold set-ups per run, each in a process of its own: ~10-20 ms live,
# ~0.8 s offline.
COLD_SETUPS = {"live-windowed": 20, "live-churn": 20, "offline-train-assess": 4}


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    src = os.path.join(root, "qoebench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("vqoe sources (src/CMakeLists.txt) not found next to qoebench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", src, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "qoe_bench", "-j4"],
        stdout=sys.stderr, check=True, timeout=840)
    return os.path.join(build_dir, "qoe_bench")


def run_step(cmd, timeout):
    """Runs one qoe_bench step; relays its output; returns its stdout."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                          text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"{cmd[1]} exited with {proc.returncode}", proc.returncode)
    return proc.stdout


def fastest_tenth(samples):
    """Mean of the fastest tenth of the samples (at least one)."""
    samples = sorted(samples)
    k = max(1, len(samples) // 10)
    return sum(samples[:k]) / k


def cold_setups(binary, common, inputs, work, count):
    """Times `count` cold set-ups, one fresh `setup` process each."""
    samples = []
    for i in range(count):
        out = run_step([binary, "setup", *common, "--inputs", inputs,
                        "--work", os.path.join(work, f"setup-{i}")],
                       timeout=60)
        samples.append(float(out.split()[-1]))
    return samples


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(root, os.path.join(build_dir, "qoebench"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        fail(f"build failed: {err}")

    work = os.path.join(root, ".bench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        os.makedirs(work)
        if args.trace:
            out = run_step([binary, "trace", *common,
                            "--seconds", str(args.seconds),
                            "--work", work,
                            "--out", os.path.join(root, ".bench_out")],
                           timeout=args.seconds * 2 + 120)
        else:
            inputs = os.path.join(work, "inputs")
            sys.stdout.write(run_step(
                [binary, "prepare", *common, "--inputs", inputs], timeout=150))
            out = run_step([binary, "run", *common,
                            "--seconds", str(args.seconds),
                            "--inputs", inputs,
                            "--work", os.path.join(work, "scratch")],
                           timeout=args.seconds + 120)
            setups = cold_setups(binary, common, inputs, work,
                                 COLD_SETUPS[args.workload] - 1)
    except subprocess.TimeoutExpired as err:
        fail(f"timed out: {err}", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".bench_work"))
        except OSError:
            pass

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail("no result line", 1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if not args.trace:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        print("setup_s n=%d min=%.5f median=%.5f max=%.5f" % (
            len(setups), min(setups), sorted(setups)[len(setups) // 2],
            max(setups)))
        setup["value"] = fastest_tenth(setups)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
