#!/bin/sh
# Check that reproduce prints the same at any job count: run it with
# AREGION_JOBS=1 and with AREGION_JOBS=4 and fail unless the two
# stdouts are byte-identical. parallel::runGrid promises this, and
# every figure and table depends on it.
#
# Usage: tools/check_job_counts.sh <reproduce-binary>
set -eu

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
AREGION_JOBS=1 "$1" > "$dir/jobs1"
AREGION_JOBS=4 "$1" > "$dir/jobs4"
if ! cmp -s "$dir/jobs1" "$dir/jobs4"; then
    echo "reproduce stdout differs between AREGION_JOBS=1 and 4:"
    diff "$dir/jobs1" "$dir/jobs4" | head -n 40
    exit 1
fi
