#!/usr/bin/env bash
# Checks the benchmark against itself, from the root of a checkout:
#
#   1. BENCHMARK.json matches what the program emits: every declared
#      workload and metric is produced, nothing undeclared is, names and
#      units are well-formed and within the contract's limits;
#   2. two sets of runs of the same build agree: for every end-to-end metric
#      on every workload the second set's median is no worse than the
#      first's by more than the metric's bound, and (with --runs >= 4) the
#      interquartile spread of each set stays within the bound.
#
#   benchmark/check.sh [--runs <per set, default 1>] [--seconds <s>] [--workload <name>]...
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

exec python3 - "$@" <<'PY'
import json, re, statistics, subprocess, sys

args = sys.argv[1:]
runs, seconds, only = 1, None, []
while args:
    flag = args.pop(0)
    if flag == "--runs":
        runs = int(args.pop(0))
    elif flag == "--seconds":
        seconds = args.pop(0)
    elif flag == "--workload":
        only.append(args.pop(0))
    else:
        sys.exit(f"unknown argument {flag}")

spec = json.load(open("BENCHMARK.json"))
seconds = seconds or str(spec["run_seconds"])
problems = []

# ---- 1. the declaration itself ------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
names = [w["name"] for w in spec["workloads"]]
names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
for n in names:
    if not NAME.match(n):
        problems.append(f"bad name {n!r}")
if len(set(names)) != len(names):
    problems.append("a name is used twice")
for m in spec["end_to_end"] + spec["per_layer"]:
    if not UNIT.match(m["unit"]):
        problems.append(f"bad unit {m['unit']!r} on {m['name']}")
if not 2 <= len(spec["workloads"]) <= 8:
    problems.append("workloads must number 2 to 8")
if not 1 <= len(spec["end_to_end"]) <= 16:
    problems.append("end_to_end must number 1 to 16")
if not 1 <= len(spec["per_layer"]) <= 128:
    problems.append("per_layer must number 1 to 128")
if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
           for m in spec["end_to_end"]):
    problems.append("end_to_end lacks setup_s")
for m in spec["end_to_end"]:
    if not 0 < m["bound"] <= 0.25:
        problems.append(f"bound of {m['name']} outside (0, 0.25]")

def run(workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", seconds, "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload}: result keys are {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{workload} seed {seed}: {result['failed']} of "
                        f"{result['attempted']} ops failed")
    return result["metrics"]

def same_metrics(workload, got, declared, what):
    want = {m["name"]: m["unit"] for m in declared}
    have = {name: v["unit"] for name, v in got.items()}
    if want != have:
        odd = sorted(set(want.items()) ^ set(have.items()))
        problems.append(f"{workload}: {what} metrics differ from BENCHMARK.json: {odd}")

listed = subprocess.run(spec["command"] + ["--list"], stdout=subprocess.PIPE,
                        text=True, check=True).stdout.split()
if listed != [w["name"] for w in spec["workloads"]]:
    problems.append(f"program lists workloads {listed}")

# ---- 2. two sets of runs -------------------------------------------------
workloads = only or [w["name"] for w in spec["workloads"]]
print(f"{'workload':<14} {'metric':<18} {'set 1':>12} {'set 2':>12} {'worse by':>9} "
      f"{'spread 1':>9} {'spread 2':>9} {'bound':>6}")
for workload in workloads:
    same_metrics(workload, run(workload, 1, 1), spec["per_layer"], "per-layer")
    sets = []
    for s in range(2):
        values = {}
        for r in range(runs):
            got = run(workload, 1 + s * runs + r, 0)
            same_metrics(workload, got, spec["end_to_end"], "end-to-end")
            for name, v in got.items():
                values.setdefault(name, []).append(v["value"])
        sets.append(values)
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        med = [statistics.median(s[name]) for s in sets]
        if any(v == 0 for v in med):
            problems.append(f"{workload} {name}: median is 0")
            continue
        worse = (med[0] - med[1]) / med[0] if m["better"] == "higher" \
            else (med[1] - med[0]) / med[0]
        spreads = []
        for s, centre in zip(sets, med):
            if runs >= 4:
                q = statistics.quantiles(s[name], n=4)
                spreads.append((q[2] - q[0]) / centre)
            else:
                spreads.append(float("nan"))
        flag = ""
        if worse > bound:
            flag = "  <-- second set worse than bound"
            problems.append(f"{workload} {name}: second set worse by {worse:.1%} > {bound:.0%}")
        if name != "setup_s" and any(sp > bound for sp in spreads):
            flag += "  <-- spread above bound"
            problems.append(f"{workload} {name}: spread {max(spreads):.1%} > {bound:.0%}")
        shown = [f"{sp:.1%}" if runs >= 4 else "n/a" for sp in spreads]
        print(f"{workload:<14} {name:<18} {med[0]:>12.4g} {med[1]:>12.4g} {worse:>+9.1%} "
              f"{shown[0]:>9} {shown[1]:>9} {bound:>6.0%}{flag}")

if problems:
    print("\nFAILED:")
    for p in problems:
        print("  -", p)
    sys.exit(1)
print("\nOK: BENCHMARK.json matches the program and both sets agree within bounds")
PY
