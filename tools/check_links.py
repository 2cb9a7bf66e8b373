#!/usr/bin/env python
"""Fail on dead intra-repo links in README and docs (CI gate).

Scans the project's root documents (``_ROOT_DOCS``) and the ``docs/``
markdown files for inline links and validates the local ones: relative
file targets must exist (anchors are stripped; ``#section`` fragments are
not resolved against headings), and bare in-repo file
mentions like ``docs/foo.md`` inside backticks are checked too. External
links (http/https/mailto) are ignored — CI must not depend on the network.
Other root markdown files are not documentation and are not scanned: a
change request, say, names the files the change deletes.

Usage::

    python tools/check_links.py [root]

Exit status 1 lists every dead link with its file and line number.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# [text](target) — target captured up to the first unescaped ')'
_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# `docs/foo.md` / `benchmarks/bench_x.py` style inline-code file mentions
_CODE_PATH = re.compile(r"`([A-Za-z0-9_./-]+\.(?:md|py|json|yml|toml|svg))`")
_EXTERNAL = ("http://", "https://", "mailto:", "chrome://")
_ROOT_DOCS = (
    "CHANGES.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "PAPER.md",
    "PAPERS.md",
    "README.md",
    "ROADMAP.md",
    "SNIPPETS.md",
)


def _iter_markdown(root: Path):
    yield from (root / name for name in _ROOT_DOCS if (root / name).exists())
    yield from sorted((root / "docs").glob("*.md"))


def _targets(text: str):
    """Yield ``(line_number, target, from_code_span)`` candidates."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _MD_LINK.finditer(line):
            yield lineno, match.group(1), False
        for match in _CODE_PATH.finditer(line):
            yield lineno, match.group(1), True


def check(root: Path) -> list[str]:
    problems = []
    for md in _iter_markdown(root):
        text = md.read_text(encoding="utf-8")
        for lineno, target, from_code in _targets(text):
            if target.startswith(_EXTERNAL):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue  # pure intra-document anchor
            if from_code and "/" not in path:
                continue  # `foo.py` without a directory is prose, not a link
            bases = [md.parent, root]
            if from_code:
                # docs shorthand: `core/schedule.py` means src/repro/core/...
                bases += [root / "src", root / "src" / "repro"]
            if not any((base / path).exists() for base in bases):
                problems.append(
                    f"{md.relative_to(root)}:{lineno}: dead link -> {target}"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    problems = check(root)
    if problems:
        print(f"{len(problems)} dead intra-repo link(s):", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    count = sum(1 for _ in _iter_markdown(root))
    print(f"link check: {count} markdown files OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
