#!/usr/bin/env python3
"""Build the right-sizing stack from source and run one benchmark workload.

Usage (from the repository root):

    python3 rszbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 rszbench/run.py --selftest

The first form builds `rszbench` (this directory's own cargo package) and
the `rsz` binary, then runs the workload; the last line of standard output
is the result JSON. `--selftest` runs every workload at toy size, traced
and untraced, and checks the output against BENCHMARK.json.

Build output goes to $CARGO_TARGET_DIR (default `.bench_build`); state
directories and span dumps go to `.bench_run`.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"rszbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Build both binaries; return (rszbench, rsz) paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail(f"no Cargo.toml in {ROOT}: the benchmark needs the repository's sources")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--bin", "rsz"],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "rszbench"), os.path.join(release, "rsz")


def commit():
    """The git commit when there is one, plus a digest of the sources."""
    rev = "not-a-git-checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            rev = done.stdout.strip()
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "rszbench/src"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if f.endswith((".rs", ".toml", ".lock")):
                digest.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    digest.update(fh.read())
    return f"{rev}+src-sha256:{digest.hexdigest()[:16]}"


def bench_args(rsz):
    return ["--rsz", rsz, "--run-dir", os.path.join(ROOT, ".bench_run"), "--commit", commit()]


def selftest(bench, rsz):
    """Every workload at toy size, both modes: output shape and checks."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, listed in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            before = len(problems)
            cmd = [bench, "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", trace, "--size", "toy"] + bench_args(rsz)
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            tag = f"{workload} --trace {trace}"
            if done.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {done.returncode}\n{done.stdout}{done.stderr}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if result.get("correct") is not True:
                problems.append(f"{tag}: correct is {result.get('correct')}")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]}")
            printed = {l.split()[1]: l.split()[3] for l in lines if l.startswith("metric ")}
            unprinted = [k for k in want if printed.get(k, want[k]) != want[k]
                         or (k not in printed and trace == "0")]
            if unprinted:
                problems.append(f"{tag}: report lines lack {unprinted}")
            checks = [l for l in lines if l.startswith("check ")]
            failed = [l for l in checks if " FAIL " in l]
            if not checks or failed:
                problems.append(f"{tag}: checks {failed or 'missing'}")
            print(f"selftest {tag}: {len(checks)} checks, {len(got)} metrics, "
                  f"{'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print(f"selftest FAIL {p}")
    sys.exit(1 if problems else 0)


def main():
    args = sys.argv[1:]
    bench, rsz = build()
    if args == ["--selftest"]:
        selftest(bench, rsz)
    os.execv(bench, [bench] + args + bench_args(rsz))


if __name__ == "__main__":
    main()
