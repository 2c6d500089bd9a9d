#!/usr/bin/env python3
"""Tiny-scale self-test of the Hispar benchmark.

Run from the root of a checkout (builds the benchmark on first use):

    python3 perfbench/selftest.py

It checks, on the "tiny" input scale:
  * BENCHMARK.json has the keys, limits and names this benchmark's schema allows;
  * every workload prints a last-line JSON result with exactly the keys
    correct/attempted/failed/metrics, and its metric names and units are
    exactly BENCHMARK.json's end_to_end (--trace 0) or per_layer
    (--trace 1) list;
  * the correctness gate passes against the digests the run itself emits,
    and fails (exit 1, correct false, failed == attempted, fail_ratio 1)
    when one committed digest is corrupted;
  * an unknown workload exits 2 without printing a result.
Exits 0 when every check passes.
"""

import json
import pathlib
import re
import subprocess
import sys

import run

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = "7"

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")
    return condition


def bench(*args):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--scale", "tiny",
                          "--seconds", "0.2", "--seed", SEED, *args],
                         capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines


def result_of(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def check_schema(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(1 <= len(spec["paths"]) <= 16, "paths count")
    for path in spec["paths"]:
        check(re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path) is not None
              and not path.startswith("/") and ".." not in path, f"path {path}")
        check((ROOT / path).is_dir(), f"path {path} exists")
    check(len(spec["command"]) <= 32 and all(
        len(a) <= 200 and not a.startswith("/") and ".." not in a
        for a in spec["command"]), "command")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
          "run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "workload count")
    names = []
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and NAME.match(w["name"])
              and len(w["why"]) <= 200 and "\n" not in w["why"],
              f"workload {w.get('name')}")
        names.append(w["name"])
    check(1 <= len(spec["end_to_end"]) <= 16, "end_to_end count")
    check(1 <= len(spec["per_layer"]) <= 128, "per_layer count")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"keys of {m}")
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"keys of {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(NAME.match(m["name"]) and UNIT.match(m["unit"])
              and m["better"] in ("higher", "lower"), f"metric {m['name']}")
        names.append(m["name"])
    check(len(names) == len(set(names)), "names are unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s has unit s, better lower and the largest bound")
    check(len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024, "file size")


def check_result(result, defs, label):
    if not check(result is not None, f"{label}: last line is JSON"):
        return
    check(list(result) == ["correct", "attempted", "failed", "metrics"],
          f"{label}: result keys")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label}: attempted")
    check(isinstance(result["failed"], int), f"{label}: failed")
    check([*result["metrics"]] == [m["name"] for m in defs],
          f"{label}: metric names match BENCHMARK.json")
    for m in defs:
        got = result["metrics"].get(m["name"], {})
        check(set(got) == {"value", "unit"} and got.get("unit") == m["unit"]
              and isinstance(got.get("value"), (int, float)),
              f"{label}: {m['name']} value and unit")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_schema(spec)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, defs in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            code, lines = bench("--workload", workload, "--trace", trace,
                                "--emit-expected")
            result = result_of(lines)
            check(code == 0, f"{label}: exit code {code}")
            check_result(result, defs, label)
            if result is not None:
                check(result["correct"] and result["failed"] == 0,
                      f"{label}: gate passes")
            if trace == "1" and workload == "measure_cold" and result:
                coverage = result["metrics"]["trace.coverage_ratio"]["value"]
                check(coverage >= 0.9, f"{label}: coverage {coverage} >= 0.9")

    # The gate against committed digests: the run's own digests pass; one
    # corrupted digest fails the run.
    code, lines = bench("--workload", "measure_cold", "--trace", "0",
                        "--emit-expected")
    expected = [line.split(" ", 1)[1] for line in lines
                if line.startswith("perfbench-expected ")]
    check(any(" digest measure.csv " in line for line in expected),
          "emitted expectations include measure.csv")
    scratch = run.build_dir() / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    good = scratch / "expected-good.txt"
    good.write_text("\n".join(expected) + "\n")
    code, lines = bench("--workload", "measure_cold", "--trace", "0",
                        "--expected", str(good))
    result = result_of(lines)
    check(code == 0 and result and result["correct"],
          "gate passes with matching committed digests")
    check(any('"digests":"committed"' in line for line in lines),
          "context reports committed digests")

    corrupted = []
    for line in expected:
        fields = line.split()
        if fields[3] == "digest" and fields[4] == "measure.csv":
            fields[5] = f"{int(fields[5], 16) ^ 1:016x}"
        corrupted.append(" ".join(fields))
    bad = scratch / "expected-bad.txt"
    bad.write_text("\n".join(corrupted) + "\n")
    code, lines = bench("--workload", "measure_cold", "--trace", "1",
                        "--expected", str(bad))
    result = result_of(lines)
    check(code == 1, f"corrupted digest: exit code {code}")
    if check(result is not None, "corrupted digest: result printed"):
        check(result["correct"] is False, "corrupted digest: correct is false")
        check(result["failed"] == result["attempted"],
              "corrupted digest: every operation counts as failed")
        check(result["metrics"]["fail_ratio"]["value"] == 1,
              "corrupted digest: fail_ratio is 1")
    check(any(line.startswith("perfbench-gate-failure") and "measure.csv" in line
              for line in lines), "corrupted digest: failure names the artifact")

    code, lines = bench("--workload", "no_such_workload", "--trace", "0")
    check(code == 2 and result_of(lines) is None,
          "unknown workload exits 2 without a result")

    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
