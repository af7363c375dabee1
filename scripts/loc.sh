#!/usr/bin/env bash
# Non-test code lines per source file: the one line-count rule a
# simplicity change is measured by, so that both trees of a comparison
# are counted the same way.
#
#   scripts/loc.sh              # the working tree
#   scripts/loc.sh <ref>        # a `git archive` export of <ref>
#   scripts/loc.sh --diff <ref> # <ref> against the working tree
#   scripts/loc.sh HEAD~1 | grep -E 'reactor.rs|crates/serve/src$'
#
# A counted line is a non-blank line under crates/*/src that is not a
# `//` comment (doc comments included) and does not lie inside an item
# marked `#[cfg(test)]` (a test module, a test-only function or import,
# with its attributes). A file declared by a `#[cfg(test)] mod x;` line
# is test code as a whole, and so is every file below it; each such file
# prints 0. Prints one `<count> <file>` line per file, then
# one `<count> <dir>` subtotal per crate's src directory, then `<count>
# total`. With `--diff`, each row is `<before> <after> <delta> <name>`:
# one per file whose count differs (a file missing on one side counts
# 0 there), then every crate's subtotal and the total. A ref is exported
# under $TMPDIR the way scripts/pairs.sh exports a parent, and removed
# on exit; nothing is registered in .git.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

usage() { echo "usage: scripts/loc.sh [<ref> | --diff <ref>]" >&2; exit 2; }
trees=("$root")
case "$#:${1:-}" in
    0:) ;;
    1:--diff) usage ;;
    1:*) ref="$1"; trees=() ;;
    2:--diff) ref="$2" ;;
    *) usage ;;
esac
if [ -n "${ref:-}" ]; then
    commit="$(git -C "$root" rev-parse --verify --quiet "$ref^{commit}")" || {
        echo "error: $ref is not a commit" >&2
        exit 2
    }
    export="$(mktemp -d "${TMPDIR:-/tmp}/opass-loc.XXXXXX")"
    trap 'rm -rf "$export"' EXIT
    git -C "$root" archive "$commit" crates | tar -x -C "$export"
    trees=("$export" "${trees[@]}")
fi

python3 - "${trees[@]}" <<'EOF'
import glob, os, re, sys

def code(line, open_quote):
    """The line with string/char literals blanked and any `//` comment cut,
    for brace and semicolon counting. A string literal may span lines:
    `open_quote` is the closing quote of the one open at the line's start
    (`"`, or `"#..` for a raw string; None if none is), and the second
    value returned is the one open at its end."""
    out, i, n = [], 0, len(line)
    while i < n:
        if open_quote == '"':
            if line[i] == '"':
                open_quote = None
            i += 2 if line[i] == "\\" else 1
            continue
        if open_quote:
            if line.startswith(open_quote, i):
                i += len(open_quote)
                open_quote = None
            else:
                i += 1
            continue
        if line.startswith("//", i):
            break
        m = re.match(r'r(#*)"', line[i:])
        if m:
            open_quote = '"' + m.group(1)
            i += len(m.group(0))
            continue
        if line[i] == '"':
            open_quote = '"'
            i += 1
            continue
        m = re.match(r"'(\\.|[^\\'])'", line[i:])
        if m:
            i += len(m.group(0))
            continue
        out.append(line[i])
        i += 1
    return "".join(out), open_quote

def count(path):
    """Counted lines of `path`, and the names of the modules it declares
    under `#[cfg(test)]` in other files (`#[cfg(test)] mod x;`)."""
    total, skipping, depth, opened, test_mods = 0, False, 0, False, []
    open_quote = None
    for line in open(path, encoding="utf-8"):
        s = line.strip()
        in_string = open_quote is not None
        c, open_quote = code(s, open_quote)
        if not skipping and not in_string and s.startswith("#[cfg(test)]"):
            skipping, depth, opened = True, 0, False
        if skipping:
            m = re.match(r"(pub(\([\w:]+\))?\s+)?mod\s+(\w+)\s*;", s)
            if m and not in_string:
                test_mods.append(m.group(3))
            depth += c.count("{") - c.count("}")
            opened |= "{" in c
            attribute = s.startswith("#[") and not opened
            if not attribute and ((opened and depth == 0) or (not opened and c.rstrip().endswith(";"))):
                skipping = False
            continue
        if s and (in_string or not s.startswith("//")):
            total += 1
    return total, test_mods

def count_tree(tree):
    """Counted lines per file of the tree at `tree`, by path below it."""
    os.chdir(tree)
    paths = sorted(glob.glob("crates/*/src/**/*.rs", recursive=True))
    counted = {path: count(path) for path in paths}
    # A module file lives beside its declaring file (`lib.rs`, `main.rs`,
    # `mod.rs`) or in the directory named after it (`engine.rs` -> `engine/`).
    test_roots = []
    for path, (_, mods) in counted.items():
        stem, base = path[: -len(".rs")], path.rsplit("/", 1)[-1]
        parent = path.rsplit("/", 1)[0] if base in ("lib.rs", "main.rs", "mod.rs") else stem
        test_roots += [f"{parent}/{m}" for m in mods]

    def is_test_file(path):
        return any(path == root + ".rs" or path.startswith(root + "/") for root in test_roots)

    return {path: 0 if is_test_file(path) else counted[path][0] for path in paths}

def totals(files):
    """Per-crate subtotals and the total of per-file counts."""
    per_dir = {}
    for path, n in files.items():
        d = "/".join(path.split("/")[:3])
        per_dir[d] = per_dir.get(d, 0) + n
    return sorted(per_dir.items()) + [("total", sum(files.values()))]

counts = [count_tree(tree) for tree in sys.argv[1:]]
if len(counts) == 1:
    files = counts[0]
    for name, n in sorted(files.items()) + totals(files):
        print(f"{n:7d} {name}")
else:
    before, after = counts
    rows = [(f, before.get(f, 0), after.get(f, 0)) for f in sorted(before.keys() | after.keys())]
    rows = [row for row in rows if row[1] != row[2]]
    old, new = dict(totals(before)), dict(totals(after))
    rows += [(d, old.get(d, 0), new.get(d, 0)) for d in sorted(old.keys() | new.keys()) if d != "total"]
    rows.append(("total", old["total"], new["total"]))
    for name, b, a in rows:
        print(f"{b:7d} {a:7d} {a - b:+7d} {name}")
EOF
