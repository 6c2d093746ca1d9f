#!/usr/bin/env python3
"""Count each crate's non-test lines of Rust, by two rules.

A counted line is non-blank and does not start with `//` (so doc comments
are not counted). The files are `crates/*/src/**/*.rs`.

- new: counted lines outside every `#[cfg(test)]` item. The item is the
  one the attribute annotates: through the `}` closing its first `{`, or
  through its `;` if it has no body.
- old: counted lines above the first `#[cfg(test)]` of each file. This
  misses any code written after a file's first test item.

Usage: python3 scripts/nontest_lines.py [REPO_ROOT]
Prints one row per crate and a total. Report only; it exits 0.
"""

import glob
import os
import re
import sys

CFG_TEST = re.compile(r"#\s*\[\s*cfg\s*\(\s*test\s*\)\s*\]")


def mask(src):
    """`src` with comments and string / char literals blanked to spaces,
    newlines kept, so structure can be scanned without being fooled."""
    out = list(src)
    i, n = 0, len(src)

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = src[i]
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif src.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if src.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif src.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            blank(i, j)
            i = j
        elif (m := re.compile(r'b?r(#*)"').match(src, i)) and (
            i == 0 or not (src[i - 1].isalnum() or src[i - 1] == "_")
        ):
            close = '"' + m.group(1)
            j = src.find(close, m.end())
            j = n if j < 0 else j + len(close)
            blank(i, j)
            i = j
        elif c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            blank(i, j + 1)
            i = j + 1
        elif c == "'":
            # A char literal ('a', '\n', '\u{1F600}'), or a lifetime ('a).
            if i + 1 < n and src[i + 1] == "\\":
                j = src.find("'", i + 2)
                j = n if j < 0 else j
                blank(i, j + 1)
                i = j + 1
            elif i + 2 < n and src[i + 2] == "'":
                blank(i, i + 3)
                i += 3
            else:
                i += 1
        else:
            i += 1
    return "".join(out)


ITEM = re.compile(
    r"(?:pub(?:\s*\([^)]*\))?\s+)?(?:(?:unsafe|async|extern(?:\s+\"C\")?)\s+)*"
    r"(?:fn|impl|mod|struct|enum|trait|use|const|static|type|union|macro_rules!)\b"
)


def item_end(code, start):
    """Offset just past what the attribute at `start` annotates: an item
    ends at the `}` closing its first `{` or at its `;`; a field, variant,
    arm or statement also at its `,`, or before the bracket that closes
    its enclosing list."""
    depth, i, n = 0, start, len(code)
    # The attribute itself, and any attributes after it.
    while True:
        while i < n and code[i].isspace():
            i += 1
        if not code.startswith("#", i):
            break
        j = code.find("[", i)
        d = 0
        while j < n:
            d += {"[": 1, "]": -1}.get(code[j], 0)
            j += 1
            if d == 0:
                break
        i = j
    # Commas at depth 0 split an item's generics, not the item.
    item = ITEM.match(code, i) is not None
    while i < n:
        c = code[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            if depth == 0:
                return i
            depth -= 1
            if depth == 0 and c == "}":
                return i + 1
        elif depth == 0 and (c == ";" or (c == "," and not item)):
            return i + 1
        i += 1
    return n


def counted(line):
    s = line.strip()
    return bool(s) and not s.startswith("//")


def count_file(path):
    src = open(path, encoding="utf-8").read()
    lines = src.split("\n")
    code = mask(src)
    excluded = [False] * len(lines)
    first = None
    for m in CFG_TEST.finditer(code):
        if first is None:
            first = code.count("\n", 0, m.start())
        end = item_end(code, m.start())
        a, b = code.count("\n", 0, m.start()), code.count("\n", 0, end)
        for k in range(a, b + 1):
            excluded[k] = True
    new = sum(1 for k, l in enumerate(lines) if counted(l) and not excluded[k])
    old = sum(1 for l in lines[: len(lines) if first is None else first] if counted(l))
    return new, old


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    rows = []
    for crate in sorted(glob.glob(os.path.join(root, "crates", "*", ""))):
        files = glob.glob(os.path.join(crate, "src", "**", "*.rs"), recursive=True)
        new = old = 0
        for f in files:
            n, o = count_file(f)
            new, old = new + n, old + o
        rows.append((os.path.basename(os.path.dirname(crate)), new, old))
    width = max(len(r[0]) for r in rows)
    print(f"{'crate':<{width}}  {'outside cfg(test) items':>23}  {'above first cfg(test)':>21}  {'missed':>6}")
    for name, new, old in rows + [("total", sum(r[1] for r in rows), sum(r[2] for r in rows))]:
        print(f"{name:<{width}}  {new:>23}  {old:>21}  {new - old:>6}")


if __name__ == "__main__":
    main()
