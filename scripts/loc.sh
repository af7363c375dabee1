#!/usr/bin/env bash
# Non-test code lines per source file: the one line-count rule a
# simplicity change is measured by, so that both trees of a comparison
# are counted the same way.
#
#   scripts/loc.sh            # the working tree
#   scripts/loc.sh <ref>      # a `git archive` export of <ref>
#   scripts/loc.sh HEAD~1 | grep -E 'reactor.rs|crates/serve/src$'
#
# A counted line is a non-blank line under crates/*/src that is not a
# `//` comment (doc comments included) and does not lie inside an item
# marked `#[cfg(test)]` (a test module, a test-only function or import,
# with its attributes). Prints one `<count> <file>` line per file, then
# one `<count> <dir>` subtotal per crate's src directory, then `<count>
# total`. A ref is exported under $TMPDIR the way scripts/pairs.sh
# exports a parent, and removed on exit; nothing is registered in .git.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

[ $# -le 1 ] || { echo "usage: scripts/loc.sh [<ref>]" >&2; exit 2; }
tree="$root"
if [ $# -eq 1 ]; then
    commit="$(git -C "$root" rev-parse --verify --quiet "$1^{commit}")" || {
        echo "error: $1 is not a commit" >&2
        exit 2
    }
    tree="$(mktemp -d "${TMPDIR:-/tmp}/opass-loc.XXXXXX")"
    trap 'rm -rf "$tree"' EXIT
    git -C "$root" archive "$commit" crates | tar -x -C "$tree"
fi

cd "$tree"
python3 - <<'EOF'
import glob, re

def code(line):
    """The line with string/char literals blanked and any `//` comment cut,
    for brace and semicolon counting."""
    out, i, n = [], 0, len(line)
    while i < n:
        c = line[i]
        if line.startswith("//", i):
            break
        if c == '"':
            i += 1
            while i < n and line[i] != '"':
                i += 2 if line[i] == "\\" else 1
            i += 1
            continue
        m = re.match(r"'(\\.|[^\\'])'", line[i:])
        if m:
            i += len(m.group(0))
            continue
        out.append(c)
        i += 1
    return "".join(out)

def count(path):
    total, skipping, depth, opened = 0, False, 0, False
    for line in open(path, encoding="utf-8"):
        s = line.strip()
        if not skipping and s.startswith("#[cfg(test)]"):
            skipping, depth, opened = True, 0, False
        if skipping:
            c = code(s)
            depth += c.count("{") - c.count("}")
            opened |= "{" in c
            attribute = s.startswith("#[") and not opened
            if not attribute and ((opened and depth == 0) or (not opened and c.rstrip().endswith(";"))):
                skipping = False
            continue
        if s and not s.startswith("//"):
            total += 1
    return total

per_dir, grand = {}, 0
for path in sorted(glob.glob("crates/*/src/**/*.rs", recursive=True)):
    n = count(path)
    print(f"{n:7d} {path}")
    d = "/".join(path.split("/")[:3])
    per_dir[d] = per_dir.get(d, 0) + n
    grand += n
for d, n in sorted(per_dir.items()):
    print(f"{n:7d} {d}")
print(f"{grand:7d} total")
EOF
