#!/usr/bin/env python3
"""Host-time benchmark of the JAVMM simulator.

Run from the repository root:

    python3 perfbench/run.py --workload derby-cold|evacuate48 --seed N \
        --seconds S --trace 0|1

Builds the benchmark crate in this directory (release profile) against the
library crates under crates/, runs the workload in a fresh process so that
its peak resident memory is its own, and prints the result as one JSON
object on the last line of standard output. The environment (nproc,
rustc -V, CPU model, commit) is printed just before it and saved with the
result under perfbench/out/. Exits non-zero, printing no result, when the
build, the run or its output fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
BINARY = "javmm-perfbench"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group and waits for it; on timeout
    kills the whole group (cargo leaves rustc children otherwise) and
    raises `subprocess.TimeoutExpired`."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                         stderr=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", BINARY)
    return exe if os.path.isfile(exe) else None


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              timeout=60).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def source_commit():
    """The git commit, or a hash of the sources when not in a git tree."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "-C", ROOT, "rev-parse", "HEAD"])
        if commit:
            return commit
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "out"))
            files += [os.path.join(d, f) for f in sorted(names)]
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def environment():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "-V"]),
        "cpu": cpu,
        "commit": source_commit(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["derby-cold", "evacuate48"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    exe = build()
    if exe is None:
        print("benchmark build failed", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(OUT, f"spans-{stem}.jsonl")]
    try:
        run = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                        stderr=subprocess.PIPE, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        sys.stderr.write(run.stdout)
        print(f"benchmark exited with {run.returncode} and no result",
              file=sys.stderr)
        return 1

    env = environment()
    with open(os.path.join(OUT, f"{stem}.json"), "w") as fh:
        json.dump({"env": env, "args": vars(args), "result": result}, fh,
                  indent=2)
        fh.write("\n")
    print("\n".join(lines[:-1]))
    print("env: " + json.dumps(env))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
