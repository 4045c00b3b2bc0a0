#!/usr/bin/env bash
# Interleaved A/B of the end-to-end benchmark: this checkout (the change)
# against <rev> (the base).
#
#   scripts/ab.sh <rev>
#
# <rev> is extracted with git archive into a temporary directory, and each
# side is built by its own perfbench/run.sh into its own build directory.
# The base is built once up front and its Go build cache copied to the
# change's build directory, so only the packages that differ compile
# twice.
# For the table2, multijob and fleet workloads it runs 10 pairs of
# 2-second runs at seed 2003, swapping which side goes first on each pair,
# and prints each side's runs_per_s quartiles with the per-pair
# change/base ratios. It exits 1 if any run fails or reports correct:false
# or failed > 0, or if the change's median runs_per_s on table2 or
# multijob is below the base's divided by 1.5. fleet is checked for
# correctness only: its runs spread too widely for 10 pairs to resolve a
# 10% change, so its ratios are printed but not gated.
set -euo pipefail
if [ $# -ne 1 ]; then
	echo "usage: scripts/ab.sh <rev>" >&2
	exit 2
fi
readonly pairs=10 seconds=2 seed=2003 factor=1.5 gated="table2 multijob" checked="fleet"
root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$1^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

# perfbench exits 2 on -h once run.sh has built it; a failed build shows
# up as failed runs below.
(cd "$tmp/base" && CARGO_TARGET_DIR="$tmp/build-base" bash perfbench/run.sh -h >/dev/null 2>&1) || true
mkdir -p "$tmp/build-change"
if [ -d "$tmp/build-base/gocache" ]; then
	cp -R "$tmp/build-base/gocache" "$tmp/build-change/"
fi

# run <side> <workload>: one benchmark run, its JSON line appended to
# $tmp/<workload>.<side>. A run that prints no JSON line leaves an empty
# line, which the summary counts as failed.
run() {
	local dir=$root line
	[ "$1" = base ] && dir=$tmp/base
	line=$(cd "$dir" && CARGO_TARGET_DIR="$tmp/build-$1" bash perfbench/run.sh \
		--workload "$2" --seed $seed --seconds $seconds --trace 0 | tail -n 1) || true
	printf '%s\n' "$line" >>"$tmp/$2.$1"
}

for wl in $gated $checked; do
	for ((i = 0; i < pairs; i++)); do
		if ((i % 2 == 0)); then run base "$wl"; run change "$wl"; else run change "$wl"; run base "$wl"; fi
	done
done

python3 - "$tmp" "$rev" "$factor" "$gated" "$checked" <<'EOF'
import json, statistics, sys

tmp, rev, factor = sys.argv[1], sys.argv[2], float(sys.argv[3])
gated, checked = sys.argv[4].split(), sys.argv[5].split()
ok = True

def rates(path):
    global ok
    out = []
    for line in open(path):
        try:
            r = json.loads(line)
            good = r["correct"] and r["failed"] == 0
            out.append(r["metrics"]["runs_per_s"]["value"])
        except (ValueError, KeyError, TypeError):
            good = False
            out.append(float("nan"))
        if not good:
            ok = False
            print(f"{path}: failed or incorrect run: {line.strip()!r}")
    return out

print(f"runs_per_s, change (this checkout) vs base ({rev[:12]}); ratio = change / base")
print(f"{'workload':<10} {'side':<7} {'q1':>10} {'median':>10} {'q3':>10}")
for wl in gated + checked:
    sides = {s: rates(f"{tmp}/{wl}.{s}") for s in ("base", "change")}
    med = {}
    for s, xs in sides.items():
        q1, med[s], q3 = statistics.quantiles(xs, n=4, method="inclusive")
        print(f"{wl:<10} {s:<7} {q1:>10.0f} {med[s]:>10.0f} {q3:>10.0f}")
    ratios = [c / b for b, c in zip(sides["base"], sides["change"])]
    wins = sum(r > 1 for r in ratios)
    note = "" if wl in gated else "  (correctness only, not gated)"
    print(f"{wl:<10} ratio   min {min(ratios):.3f}  median {statistics.median(ratios):.3f}  change wins {wins}/{len(ratios)}{note}")
    if wl in gated and not med["change"] >= med["base"] / factor:
        ok = False
        print(f"{wl}: change median {med['change']:.0f} runs/s is below base {med['base']:.0f} / {factor}")
sys.exit(0 if ok else 1)
EOF
