#!/usr/bin/env python3
"""Fails if src/ declares a std::unordered_map or std::unordered_set without a reason.

Every line under src/ that names std::unordered_map<...> or std::unordered_set<...> (other than
an #include) must carry an `// order-free:` comment, on the line itself or in the comment block
directly above it, saying why the container's iteration order cannot reach a report, trace,
journal or CLI output. Hash-table order depends on the standard library, so output that
followed it would differ between builds.

Usage: python3 tools/check_unordered.py [root]   (root defaults to the repository root)
"""

import pathlib
import re
import sys

DECLARATION = re.compile(r"std::unordered_(map|set)\s*<")
REASON = "// order-free:"


def has_reason(lines, index):
    if REASON in lines[index]:
        return True
    above = index - 1
    while above >= 0 and lines[above].strip().startswith("//"):
        if REASON in lines[above]:
            return True
        above -= 1
    return False


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else pathlib.Path(__file__).parent.parent)
    missing = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.lstrip().startswith("#include") or not DECLARATION.search(line):
                continue
            if not has_reason(lines, i):
                missing.append(f"{path.relative_to(root)}:{i + 1}: {line.strip()}")
    if missing:
        print(f"unordered containers without an '{REASON}' reason:")
        print("\n".join(missing))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
