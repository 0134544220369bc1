#!/usr/bin/env python3
"""Builds the benchmark, prepares the trained models, and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

The Rust package in this directory builds against the repository's crates
(into $CARGO_TARGET_DIR, `.bench_build` by default). `perfbench prepare`
trains the model suite the first time (cached under `.suite-cache/`) and
writes its checkpoints to `.perfbench-models/`; nothing of that is timed.
Then `perfbench run` measures the workload and prints the result JSON as
the last line of standard output. Build and preparation logs go to
standard error. The exit code is non-zero if any step fails or any output
check fails. `--workload all` runs every workload untraced and traced,
printing each result line, and fails if any of them fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["offline_tree_greedy", "sharedprefix_incremental", "open_adaptive_mss"]


def run_all(binary, args, env):
    """Runs every workload untraced and traced; returns the exit code."""
    args = list(args)
    i = args.index("--workload")
    del args[i:i + 2]
    if "--trace" in args:
        j = args.index("--trace")
        del args[j:j + 2]
    code = 0
    results = {}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            run = subprocess.run(
                [binary, "run", "--workload", workload, "--trace", trace, *args],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            lines = run.stdout.strip().splitlines()
            print(f"== {workload} --trace {trace}")
            print("\n".join(lines))
            if run.returncode != 0 or not lines:
                code = 1
                continue
            results.setdefault(workload, {}).update(json.loads(lines[-1])["metrics"])
    for workload, metrics in results.items():
        print(f"\n{workload}")
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({"correct": code == 0, "workloads": list(results)}))
    return code


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # One malloc arena: without it, peak RSS depends on how many threads
    # happened to allocate first (per-thread arenas), not on the program.
    env["MALLOC_ARENA_MAX"] = "1"
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    prepare = subprocess.run([binary, "prepare"], env=env, stdout=sys.stderr)
    if prepare.returncode != 0:
        print("perfbench: model preparation failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        return run_all(binary, args, env)
    return subprocess.run([binary, "run", *args], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
