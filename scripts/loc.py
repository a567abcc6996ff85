#!/usr/bin/env python3
"""Non-test Rust line counts of two revisions, by crate: what a change adds or deletes.

Run from anywhere inside the repository:

    python3 scripts/loc.py BASE [CANDIDATE]

BASE and CANDIDATE are anything `git rev-parse` accepts; CANDIDATE defaults to
the working tree (tracked and untracked files that git does not ignore).
Revisions are read through `git` without a checkout.

Counted: non-blank lines of the `.rs` files under `crates/`, `src/` and
`examples/`, except

- files below a directory named `tests` or `benches`;
- every item annotated `#[cfg(test)]`, from the attribute to the item's
  matching close brace, or to the `;` of an item with no body. Braces inside
  strings, raw strings, char literals and comments do not count toward that
  match.

A line holding any code (string literals included) counts as code; a line
holding only comments counts as a doc line when one of them is a doc comment
(`///`, `//!`, `/** */`, `/*! */`) and as a plain comment otherwise. A file
belongs to the crate of its nearest `Cargo.toml`; `src/` and `examples/` are
the root package, shown as `(root)`. One row per crate prints base, candidate
and delta, each split into total, code, doc and comment lines, then a total
row.
"""

import os
import re
import subprocess
import sys

ROOTS = ("crates/", "src/", "examples/")
EXCLUDED_DIRS = {"tests", "benches"}
USAGE = "usage: python3 scripts/loc.py BASE [CANDIDATE]"

CODE, STRING, DOC, COMMENT = 0, 1, 2, 3
CFG_TEST = re.compile(r"#\s*\[\s*cfg\s*\(\s*test\s*\)\s*\]")
RAW_STRING = re.compile(r'b?r(#*)"')
OPENERS, CLOSERS = "([{", ")]}"


# ---- counting (pure) ----


def is_ident(char):
    return char.isalnum() or char == "_"


def classify(text):
    """The lexical class of every character: code, string or char literal,
    doc comment or plain comment."""
    n = len(text)
    kinds = bytearray(n)
    i = 0
    while i < n:
        char = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if char == "/" and nxt == "/":
            end = text.find("\n", i)
            end = n if end < 0 else end
            doc = text.startswith("//!", i) or (text.startswith("///", i) and not text.startswith("////", i))
            kinds[i:end] = bytes([DOC if doc else COMMENT]) * (end - i)
            i = end
            continue
        if char == "/" and nxt == "*":
            doc = text.startswith("/*!", i) or (
                text.startswith("/**", i) and not text.startswith("/***", i) and not text.startswith("/**/", i)
            )
            depth, end = 1, i + 2
            while end < n and depth:
                if text.startswith("/*", end):
                    depth, end = depth + 1, end + 2
                elif text.startswith("*/", end):
                    depth, end = depth - 1, end + 2
                else:
                    end += 1
            kinds[i:end] = bytes([DOC if doc else COMMENT]) * (end - i)
            i = end
            continue
        raw = RAW_STRING.match(text, i) if char in "br" and (i == 0 or not is_ident(text[i - 1])) else None
        if raw:
            close = '"' + raw.group(1)
            end = text.find(close, raw.end())
            end = n if end < 0 else end + len(close)
            kinds[i:end] = bytes([STRING]) * (end - i)
            i = end
            continue
        if char == '"':
            end = i + 1
            while end < n and text[end] != '"':
                end += 2 if text[end] == "\\" else 1
            end = min(end + 1, n)
            kinds[i:end] = bytes([STRING]) * (end - i)
            i = end
            continue
        if char == "'":
            # A char literal ('x', '\n', '\u{7f}') or a lifetime/label ('a).
            if nxt == "\\":
                end = text.find("'", i + 3)
                end = n if end < 0 else end + 1
            elif i + 2 < n and text[i + 2] == "'":
                end = i + 3
            else:
                i += 1
                continue
            kinds[i:end] = bytes([STRING]) * (end - i)
            i = end
            continue
        i += 1
    return kinds


def item_end(text, kinds, start):
    """Index just past the item that starts at `start`: its matching close
    brace (and a `;` right after it), or its `;` when it has no body."""
    depth = 0
    i, n = start, len(text)
    while i < n:
        if kinds[i] == CODE:
            char = text[i]
            if char in OPENERS:
                depth += 1
            elif char in CLOSERS:
                depth -= 1
                if depth == 0 and char == "}":
                    after = i + 1
                    while after < n and text[after].isspace():
                        after += 1
                    return after + 1 if after < n and text[after] == ";" and kinds[after] == CODE else i + 1
            elif char == ";" and depth == 0:
                return i + 1
        i += 1
    return n


def test_ranges(text, kinds):
    """The `(start, end)` character ranges of the `#[cfg(test)]` items."""
    ranges = []
    for match in CFG_TEST.finditer(text):
        start = match.start()
        if kinds[start] != CODE or (ranges and start < ranges[-1][1]):
            continue
        ranges.append((start, item_end(text, kinds, match.end())))
    return ranges


def count(text):
    """`(code, doc, comment)` non-blank line counts outside `#[cfg(test)]` items."""
    kinds = classify(text)
    removed = bytearray(len(text))
    for start, end in test_ranges(text, kinds):
        removed[start:end] = b"\x01" * (end - start)
    totals = [0, 0, 0]
    line_start = 0
    for line in text.split("\n"):
        seen = set()
        for offset, char in enumerate(line):
            at = line_start + offset
            if not char.isspace() and not removed[at]:
                seen.add(kinds[at])
        line_start += len(line) + 1
        if CODE in seen or STRING in seen:
            totals[0] += 1
        elif DOC in seen:
            totals[1] += 1
        elif COMMENT in seen:
            totals[2] += 1
    return tuple(totals)


def counted(path):
    """Whether `path` is a workspace source file outside tests and benches."""
    parts = path.split("/")
    return path.endswith(".rs") and path.startswith(ROOTS) and not EXCLUDED_DIRS.intersection(parts[:-1])


def crate_of(path, manifest_dirs):
    """The directory of the nearest `Cargo.toml` above `path` (`""` for the root)."""
    parts = path.split("/")[:-1]
    while parts:
        directory = "/".join(parts)
        if directory in manifest_dirs:
            return directory
        parts.pop()
    return ""


def tally(files):
    """`{crate directory: [code, doc, comment]}` over `{path: source}`."""
    manifest_dirs = {os.path.dirname(path) for path in files if os.path.basename(path) == "Cargo.toml"}
    crates = {}
    for path, text in files.items():
        if not counted(path):
            continue
        sums = crates.setdefault(crate_of(path, manifest_dirs), [0, 0, 0])
        for k, lines in enumerate(count(text)):
            sums[k] += lines
    return crates


def crate_name(directory):
    if not directory:
        return "(root)"
    return directory[len("crates/") :] if directory.startswith("crates/") else directory


def render(base, candidate):
    """The table: one row per crate, then the total row."""
    names = sorted(set(base) | set(candidate), key=crate_name)
    header = f"{'crate':<16}|{'base':>7}{'code':>7}{'doc':>7}{'cmt':>6} |{'cand':>7}{'code':>7}{'doc':>7}{'cmt':>6} |"
    header += f"{'delta':>7}{'code':>7}{'doc':>7}{'cmt':>6}"
    lines = [header, "-" * len(header)]

    def row(name, b, c):
        d = [y - x for x, y in zip(b, c)]
        plain = lambda v: f"{sum(v):>7}{v[0]:>7}{v[1]:>7}{v[2]:>6}"  # noqa: E731
        signed = f"{sum(d):>+7}{d[0]:>+7}{d[1]:>+7}{d[2]:>+6}"
        return f"{name:<16}|{plain(b)} |{plain(c)} |{signed}"

    zero = [0, 0, 0]
    for name in names:
        lines.append(row(crate_name(name), base.get(name, zero), candidate.get(name, zero)))
    lines.append("-" * len(header))
    total = lambda side: [sum(v[k] for v in side.values()) for k in range(3)]  # noqa: E731
    lines.append(row("total", total(base), total(candidate)))
    return "\n".join(lines)


# ---- reading revisions ----


def git(*args, data=None):
    return subprocess.run(["git", *args], input=data, capture_output=True, check=True).stdout


def wanted(path):
    return counted(path) or (os.path.basename(path) == "Cargo.toml" and path.startswith(ROOTS))


def revision_files(revision):
    """`{path: source}` of the counted files (and manifests) at a revision."""
    paths = [p for p in git("ls-tree", "-r", "-z", "--name-only", revision).decode().split("\0") if wanted(p)]
    blob = git("cat-file", "--batch", data="".join(f"{revision}:{p}\n" for p in paths).encode())
    files, at = {}, 0
    for path in paths:
        newline = blob.index(b"\n", at)
        size = int(blob[at:newline].split()[2])
        files[path] = blob[newline + 1 : newline + 1 + size].decode("utf-8", errors="replace")
        at = newline + 1 + size + 1
    return files


def worktree_files(top):
    """`{path: source}` of the counted files (and manifests) in the working tree."""
    listed = git("-C", top, "ls-files", "-z", "-co", "--exclude-standard").decode().split("\0")
    files = {}
    for path in filter(wanted, listed):
        full = os.path.join(top, path)
        if os.path.isfile(full):
            with open(full, encoding="utf-8", errors="replace") as source:
                files[path] = source.read()
    return files


def main(argv):
    if len(argv) not in (1, 2):
        print(USAGE, file=sys.stderr)
        return 2
    top = git("rev-parse", "--show-toplevel").decode().strip()
    os.chdir(top)
    base_rev = git("rev-parse", "--verify", argv[0] + "^{commit}").decode().strip()
    base = tally(revision_files(base_rev))
    if len(argv) == 2:
        candidate_rev = git("rev-parse", "--verify", argv[1] + "^{commit}").decode().strip()
        candidate, label = tally(revision_files(candidate_rev)), candidate_rev[:12]
    else:
        candidate, label = tally(worktree_files(top)), "working tree"
    print(f"non-blank Rust lines outside tests/, benches/ and #[cfg(test)] items; base {base_rev[:12]}, candidate {label}")
    print(render(base, candidate))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
