#!/usr/bin/env bash
# Microbenchmark gate: runs the hot-path benchmarks of a parent revision
# and of the working tree on this machine, in alternating rounds, then
# compares the two sides with benchdiff (min ns/op per side; fail above
# +25%, warn above +10%; min allocs/op fails above the parent's max
# allocs/op by more than 1% + 0.5; B/op is printed beside, not gated,
# and so are the work counts whose ranges over runs moved).
#
# Usage, from the repository root:
#
#   bash cmd/benchdiff/gate.sh PARENT_REV [SUMMARY_FILE]
#
# Each side's test binaries are built once. Every round runs each package
# on both sides, the parent first in odd rounds and the change first in
# even ones, so drift in the machine's speed lands on both sides alike.
# Build output and the two bench logs go to a temporary directory; the
# logs are copied to bench-parent.txt and bench-change.txt in the
# repository root for upload.
set -euo pipefail

parent=$1
summary=${2:-}
rounds=5
pkgs=(internal/core internal/screen internal/graph internal/graphio internal/stats internal/monitor internal/vicinity internal/server)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
root=$(pwd)
mkdir "$work/parent-src"
git archive "$parent" | tar -x -C "$work/parent-src"

for side in parent change; do
	src=$root
	[ "$side" = parent ] && src=$work/parent-src
	mkdir "$work/$side"
	for p in "${pkgs[@]}"; do
		(cd "$src" && go test -c -o "$work/$side/${p//\//_}.test" "./$p")
	done
done

run() { # side package
	local src=$root
	[ "$1" = parent ] && src=$work/parent-src
	(cd "$src/$2" && "$work/$1/${2//\//_}.test" -test.run='^$' -test.bench=. -test.benchmem \
		-test.benchtime=1s -test.timeout=10m) >>"$work/$1.txt"
}

for ((r = 1; r <= rounds; r++)); do
	for p in "${pkgs[@]}"; do
		if ((r % 2)); then
			run parent "$p"
			run change "$p"
		else
			run change "$p"
			run parent "$p"
		fi
	done
done

cp "$work/parent.txt" bench-parent.txt
cp "$work/change.txt" bench-change.txt
go run ./cmd/benchdiff ${summary:+-summary "$summary"} bench-parent.txt bench-change.txt
