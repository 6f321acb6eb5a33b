#!/usr/bin/env python
"""Check that the `repro serve` flags and docs/how_to_run.md §4 agree.

Two directions, both against the live parser (``repro.cli.build_parser``):

* every ``repro serve`` option appears in §4 ("Serving quickstart"),
  in a flag table or a command example;
* every ```--flag``` in one of §4's tables is a real ``serve`` option,
  so a renamed or deleted flag cannot linger in the docs.

    python tools/check_cli_docs.py

Exit status 0 when both hold, 1 otherwise (one line per problem).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC = REPO_ROOT / "docs" / "how_to_run.md"
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import build_parser  # noqa: E402

_FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def serve_options() -> set[str]:
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        option
        for action in subparsers.choices["serve"]._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


def section_four(text: str) -> str:
    start = text.index("\n## 4.")
    return text[start : text.index("\n## 5.", start)]


def main() -> int:
    section = section_four(DOC.read_text(encoding="utf-8"))
    mentioned = set(_FLAG_RE.findall(section))
    tabled = {
        flag
        for line in section.splitlines()
        if line.startswith("|")
        for span in re.findall(r"`([^`]+)`", line)
        for flag in _FLAG_RE.findall(span)
    }
    options = serve_options()
    problems = [
        f"{DOC.relative_to(REPO_ROOT)} §4: `repro serve {flag}` is undocumented"
        for flag in sorted(options - mentioned)
    ] + [
        f"{DOC.relative_to(REPO_ROOT)} §4: table lists `{flag}`, which "
        "`repro serve` does not accept"
        for flag in sorted(tabled - options)
    ]
    if problems:
        print("\n".join(problems))
        return 1
    print(f"repro serve flags and docs agree ({len(options)} options)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
