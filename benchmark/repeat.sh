#!/usr/bin/env bash
# Repeatability check: two sets of N untraced runs of every workload, each
# run on another seed. For every workload x end-to-end metric prints the
# median and quartiles of each set, the spread (IQR / median) and whether
# the two set medians agree within the metric's bound from BENCHMARK.json.
# Exits non-zero if a run is incorrect or a request fails, a spread exceeds its bound (setup_s is
# exempt from the spread rule, as in the driver) or two medians disagree.
#
#   benchmark/repeat.sh [N=5] [SECONDS=run_seconds] > benchmark/REPEATABILITY.md
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
n="${1:-5}"
seconds="${2:-}"
target="${CARGO_TARGET_DIR:-$here/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
exec python3 - "$here" "$target/release/e2e" "$n" "$seconds" <<'EOF'
import json, os, statistics, subprocess, sys

here, exe, n, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
spec = json.load(open(os.path.join(here, "..", "BENCHMARK.json")))
seconds = seconds or str(spec["run_seconds"])
metrics = spec["end_to_end"]
workloads = [w["name"] for w in spec["workloads"]]
base_seed = 1000
failed_requests = 0

def run(workload, seed):
    out = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output")
    global failed_requests
    failed_requests += result["failed"]
    return {k: v["value"] for k, v in result["metrics"].items()}

sets = {w: [[], []] for w in workloads}
for s in (0, 1):
    for i in range(n):
        for w in workloads:
            seed = base_seed + s * n + i
            print(f"set {s + 1} run {i + 1}/{n} {w} seed {seed}", file=sys.stderr)
            sets[w][s].append(run(w, seed))

def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med

print(f"# Repeatability of the end-to-end metrics\n")
print(f"`benchmark/repeat.sh {n} {seconds}` on a machine with nproc = {os.cpu_count()}: "
      f"two sets of {n} runs per workload, {seconds} s windows, every run on another seed "
      f"({base_seed}..{base_seed + 2 * n - 1}). Spread = (Q3 - Q1) / median with "
      f"`statistics.quantiles(values, n=4)`; drift = how much worse set 2's median is than set 1's.\n")
print("| workload | metric | bound | set 1 median [Q1, Q3] | spread | set 2 median [Q1, Q3] | spread | drift | verdict |")
print("|---|---|---|---|---|---|---|---|---|")
bad = 0
for w in workloads:
    for m in metrics:
        name, bound = m["name"], m["bound"]
        a = summary([r[name] for r in sets[w][0]])
        b = summary([r[name] for r in sets[w][1]])
        drift = (b[0] - a[0]) / a[0] if m["better"] == "lower" else (a[0] - b[0]) / a[0]
        spread_ok = name == "setup_s" or max(a[3], b[3]) <= bound
        ok = spread_ok and drift <= bound
        bad += not ok
        cell = lambda s: f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}] | {s[3]:.1%}"
        print(f"| {w} | {name} | {bound:.0%} | {cell(a)} | {cell(b)} | {drift:+.1%} | {'ok' if ok else 'FAIL'} |")
print(f"\n{'All' if bad == 0 else 'NOT all'} gated pairs agree; `correct` was true in all "
      f"{2 * n * len(workloads)} runs and {failed_requests} requests failed in total.")
sys.exit(1 if bad or failed_requests else 0)
EOF
