#!/bin/sh
# Check EXPERIMENTS.md against the code: run reproduce and fail when
# any fenced block of the document does not appear verbatim in its
# stdout (trailing blanks aside, which editors strip). The fenced
# blocks are tables copied from reproduce, so a change that moves one
# of their numbers makes the document stale here.
#
# Usage: tools/check_experiments.sh <reproduce-binary> <EXPERIMENTS.md>
set -eu

out="$(mktemp)"
trap 'rm -f "$out"' EXIT
"$1" > "$out"

awk -v printed="$out" '
BEGIN {
    while ((getline line < printed) > 0) {
        sub(/[ \t]+$/, "", line)
        text = text line "\n"
    }
}
/^```/ {
    if (inside && !index(text, block)) {
        print FILENAME ":" start ": fenced block not in reproduce output"
        stale = 1
    }
    inside = !inside
    block = ""
    start = NR
    next
}
inside {
    sub(/[ \t]+$/, "")
    block = block $0 "\n"
}
END { exit stale }
' "$2"
