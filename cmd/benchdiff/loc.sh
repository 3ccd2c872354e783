#!/usr/bin/env bash
# Counts the Go lines a change adds and deletes against a parent
# revision, excluding cmd/tescperf (the benchmark), and prints three
# figures:
#
#   non-test  net lines of non-test Go files
#   test      net lines of _test.go files and Go files under testdata/
#   moved     lines of files renamed from non-test to test (negative:
#             from test to non-test), less the lines the rename changed
#
# A file renamed across the boundary counts whole: its old lines leave
# one side and its new lines join the other, so moving code into a
# test file lowers the non-test figure, and `moved` says how much of
# that drop is a move rather than a deletion. Renames are git's (diff
# -M, 50% similarity); code moved between two files that both stay is
# counted as deleted on one side and added on the other.
#
# Usage, from the repository root:
#
#   bash cmd/benchdiff/loc.sh PARENT_REV
#
# The working tree is compared, untracked files included, through a
# temporary index; the repository's own index is not touched.
set -euo pipefail

parent=$1
idx=$(mktemp)
trap 'rm -f "$idx"' EXIT
export GIT_INDEX_FILE=$idx
git read-tree HEAD
git add -A

git diff --cached -M --numstat -z "$parent" -- '*.go' ':(exclude)cmd/tescperf' |
	awk -v parent="$parent" '
	function istest(p) { return p ~ /_test\.go$/ || p ~ /(^|\/)testdata\// }
	function oldlines(p,   cmd, n) {
		cmd = "git show \"" parent ":" p "\" | wc -l"
		cmd | getline n
		close(cmd)
		return n + 0
	}
	function count(a, d, old, new,   n) {
		if (a == "-") return # binary
		if (istest(old) == istest(new)) {
			if (istest(new)) { tadd += a; tdel += d } else { add += a; del += d }
			return
		}
		n = oldlines(old)
		if (istest(new)) {
			del += n; tadd += n - d + a; moved += n - d
		} else {
			tdel += n; add += n - d + a; moved -= n - d
		}
	}
	BEGIN { RS = "\0" }
	state == 1 { old = $0; state = 2; next }
	state == 2 { count(a, d, old, $0); state = 0; next }
	{
		split($0, f, "\t")
		a = f[1]; d = f[2]
		if (f[3] == "") { state = 1; next } # a rename: old and new paths follow
		count(a, d, f[3], f[3])
	}
	END {
		printf "non-test  %+d  (+%d -%d)\n", add - del, add, del
		printf "test      %+d  (+%d -%d)\n", tadd - tdel, tadd, tdel
		printf "moved     %+d\n", moved
	}'
