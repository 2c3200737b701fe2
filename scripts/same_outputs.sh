#!/bin/sh
# Check that the working tree prints the same outputs as a revision, bit for bit.
#
#     scripts/same_outputs.sh <rev>
#
# Extracts <rev> with git archive into a temporary directory, runs each
# side's own scripts/dump_outputs.py with its own src/ on the path, and
# compares the two dumps with cmp. Exit 0 when they are identical; otherwise
# cmp's first difference is printed, then one line per differing output line:
# its key (the case name, or the CLI run and line number) and the largest
# relative change among its numbers, with that number's field name (or its
# place in the line), and the exit is 1.
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
    exit 0
fi
python3 - "$tmp/rev.txt" "$tmp/tree.txt" <<'EOF'
import difflib
import re
import sys

# a number, with the field name before it when it has one (name=x or "name": x)
NUMBER = re.compile(r'(?:([A-Za-z_]\w*)=|"(\w+)": )?([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)')


def keyed(path):
    """(key, line) per dump line: the case name, or the CLI run and the line's place in it."""
    out, run, k = [], "", 0
    for line in open(path).read().splitlines():
        if line.startswith("$ ddmemory "):
            run, k = line[2:], 0
            out.append((run, line))
        elif run:
            k += 1
            out.append((f"{run} [line {k}]", line))
        else:
            out.append((line.split(": ", 1)[0], line))
    return out


def change(old, new):
    """Largest relative change between the numbers of two lines, or why they do not pair."""
    x, y = NUMBER.findall(old), NUMBER.findall(new)
    if len(x) != len(y):
        return "changed form"
    worst, where = 0.0, ""
    for k, ((name, key, s), (_, _, t)) in enumerate(zip(x, y), 1):
        a, b = float(s), float(t)
        scale = max(abs(a), abs(b))
        if s != t and scale and abs(a - b) / scale > worst:
            worst, where = abs(a - b) / scale, name or key or f"number {k}"
    return f"max rel change {worst:.2g} at {where}" if where else "changed text"


old, new = keyed(sys.argv[1]), keyed(sys.argv[2])
matcher = difflib.SequenceMatcher(None, [k for k, _ in old], [k for k, _ in new], autojunk=False)
for tag, i0, i1, j0, j1 in matcher.get_opcodes():
    if tag == "equal":
        for (key, a), (_, b) in zip(old[i0:i1], new[j0:j1]):
            if a != b:
                print(f"{key}: {change(a, b)}")
    else:
        for key, _ in old[i0:i1]:
            print(f"{key}: only in the revision")
        for key, _ in new[j0:j1]:
            print(f"{key}: only in the working tree")
EOF
exit 1
