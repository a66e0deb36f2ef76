#!/bin/sh
# check_init_heap.sh — the CI start-up heap guard: builds cmd/btsim, runs
# it once under GODEBUG=inittrace=1 and fails if any repro package's init
# allocates more than 4096 heap bytes. Package init runs before every
# btsim/btexp/btsimd process and every test binary, so a table built
# over a whole input space at init (PERM5 once took 512 KiB there) is
# paid on every start. The check reads bytes, not time, so it is
# deterministic. Run from the repository root.
set -eu

limit=4096
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

go build -o "$dir/btsim" ./cmd/btsim
GODEBUG=inittrace=1 "$dir/btsim" >/dev/null 2>"$dir/trace"

# A line reads: init repro/internal/hop @0.4 ms, 0.04 ms clock, 0 bytes, 0 allocs
awk -v limit="$limit" '
/^init repro\// {
	n++
	print
	if ($(NF-3) > limit) {
		print "  ^ init allocates " $(NF-3) " heap bytes, more than " limit
		bad = 1
	}
}
END {
	if (n == 0) {
		print "no init repro/... lines in the init trace"
		exit 1
	}
	exit bad
}' "$dir/trace"
