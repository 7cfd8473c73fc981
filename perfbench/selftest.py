#!/usr/bin/env python3
"""Self-tests of the benchmark itself (a few minutes; run from the repo root).

    python3 perfbench/selftest.py

1. Tiny-size mode: every workload runs in seconds, with tracing off and
   on, and prints every metric BENCHMARK.json names, each with its unit.
2. The oracle accepts a library answer and flags corrupted copies of it.
3. The traced run's self-time sum check accepts nested spans and flags a
   misaligned library span and request time no span covers.
4. The same seed gives byte-identical inputs; another seed changes them.
5. In a directory holding only BENCHMARK.json and perfbench/, the command
   exits nonzero without printing a result.
Exits nonzero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The gated workloads (BENCHMARK.json) plus the ungated diagnostic one.
WORKLOADS = ["image_qbe", "vector_batch_scan", "serve_churn"]
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build helper)


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        sys.exit(1)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def fingerprint(binary, workload, seed):
    return subprocess.run(
        [binary, "--fingerprint", "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, timeout=120,
        check=True).stdout.strip()


def main():
    os.chdir(ROOT)
    spec = json.load(open("BENCHMARK.json"))
    binary = os.path.abspath(run.build())
    work = os.path.abspath(os.path.join(run.build_dir(), "selftest"))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        check({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
              "BENCHMARK.json names only known workloads")
        # 1. Tiny mode prints every named metric with its unit.
        for name in WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                proc = subprocess.run(
                    [binary, "--workload", name, "--seed", "5", "--seconds",
                     "1", "--trace", trace, "--tiny", "--work-dir", work],
                    stdout=subprocess.PIPE, text=True, timeout=120)
                result = last_json(proc.stdout)
                check(proc.returncode == 0 and result is not None and
                      result["correct"] and result["attempted"] >= 1 and
                      result["failed"] == 0,
                      "%s --trace %s runs correct" % (name, trace))
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == want,
                      "%s --trace %s prints every %s metric with its unit" %
                      (name, trace, key))

        # 2. The oracle flags corrupted result lists.
        proc = subprocess.run([binary, "--selftest-oracle"],
                              stdout=subprocess.PIPE, text=True, timeout=60)
        sys.stdout.write(proc.stdout)
        check(proc.returncode == 0, "oracle accepts answers, flags corruption")

        # 3. The self-time sum check flags spans that do not fit the request.
        proc = subprocess.run([binary, "--selftest-trace"],
                              stdout=subprocess.PIPE, text=True, timeout=60)
        sys.stdout.write(proc.stdout)
        check(proc.returncode == 0, "self-time sum check flags misaligned spans")

        # 4. Inputs are a function of the seed alone.
        for name in WORKLOADS:
            a, b, c = (fingerprint(binary, name, seed) for seed in (11, 11, 12))
            check(a == b, "%s: same seed, identical inputs" % name)
            check(a != c, "%s: another seed, different inputs" % name)

        # 5. Without the library sources the command fails cleanly.
        bare = os.path.join(work, "bare")
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            spec["command"] + ["--workload", spec["workloads"][0]["name"],
                               "--seed", "1", "--seconds", "1", "--trace",
                               "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True, timeout=180)
        check(proc.returncode != 0 and last_json(proc.stdout) is None,
              "without the sources: nonzero exit, no result")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("all self-tests passed")


if __name__ == "__main__":
    main()
