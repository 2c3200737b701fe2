#!/bin/sh
# Check that the working tree prints the same outputs as a revision, bit for bit.
#
#     scripts/same_outputs.sh <rev>
#
# Extracts <rev> with git archive into a temporary directory, runs each
# side's own scripts/dump_outputs.py with its own src/ on the path, and
# compares the two dumps with cmp. Exit 0 when they are identical; otherwise
# cmp's first difference and a diff excerpt are printed and the exit is 1.
# Takes about twice the time of one dump (about 20 s on a 2-CPU machine).
set -eu
rev=${1:?usage: scripts/same_outputs.sh <rev>}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev"
(cd "$tmp/rev" && PYTHONPATH=src python3 scripts/dump_outputs.py > "$tmp/rev.txt")
(cd "$root" && PYTHONPATH=src python3 scripts/dump_outputs.py > "$tmp/tree.txt")
if cmp "$tmp/rev.txt" "$tmp/tree.txt"; then
    echo "outputs identical to $rev ($(wc -l < "$tmp/tree.txt") lines)"
else
    diff "$tmp/rev.txt" "$tmp/tree.txt" | head -40
    exit 1
fi
