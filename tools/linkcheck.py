"""Offline markdown link checker for the repository's documentation.

Walks README.md and docs/*.md and verifies, without any network:

* relative links point at files (or directories) that exist;
* fragment links — ``#anchor`` and ``file.md#anchor`` — resolve to a
  heading in the target document, using GitHub's slug rules
  (lowercase, punctuation stripped, spaces to hyphens, ``-2`` suffixes
  for duplicates);
* reference-style definitions are not left dangling;
* inline code spans that name a repo path — at least one ``/``, then a
  file name ending ``.py``, ``.md``, ``.json``, ``.txt``, ``.yml`` or
  ``.toml``, or a trailing ``/``, optionally followed by ``::name`` —
  exist under the repository root, ``src/`` or ``src/repro/``.

External links (``http://``, ``https://``, ``mailto:``) are skipped:
CI must not depend on the weather of the public internet.  Links and
code spans inside fenced code blocks are ignored — those are example
output, not navigation.

Usage::

    python tools/linkcheck.py [FILE.md ...]

With no arguments, checks README.md plus every ``docs/*.md`` relative
to the repository root (the parent of this script's directory).
Exits 1 listing every broken link or path, 0 when all resolve.
"""

from __future__ import annotations

import pathlib
import re
import sys
from typing import Dict, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _label(path: pathlib.Path) -> str:
    try:
        return str(path.relative_to(ROOT))
    except ValueError:
        return str(path)

_LINK = re.compile(r"(?<!\!)\[[^\]^\[]*\]\(([^()\s]+(?:\([^()]*\))?)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$")
_FENCE = re.compile(r"^(```|~~~)")
_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")
_CODE_SPAN = re.compile(r"`([^`]+)`")
_REPO_PATH = re.compile(
    r"([\w.-]+/(?:[\w.-]+/)*(?:[\w.-]+\.(?:py|md|json|txt|yml|toml))?)"
    r"(?:::\w+)?")
_PATH_BASES = (ROOT, ROOT / "src", ROOT / "src" / "repro")


def github_slug(heading: str, seen: Dict[str, int]) -> str:
    """GitHub's anchor slug for a heading line's text."""
    text = re.sub(r"[`*_]", "", heading.strip())
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # unwrap links
    slug = re.sub(r"[^\w\- ]", "", text.lower(), flags=re.UNICODE)
    slug = slug.replace(" ", "-")
    count = seen.get(slug, 0)
    seen[slug] = count + 1
    return f"{slug}-{count}" if count else slug


def _strip_fences(lines: List[str]) -> List[str]:
    kept, in_fence = [], False
    for line in lines:
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        kept.append("" if in_fence else line)
    return kept


def anchors_of(path: pathlib.Path) -> Set[str]:
    seen: Dict[str, int] = {}
    anchors: Set[str] = set()
    for line in _strip_fences(path.read_text(encoding="utf-8").splitlines()):
        match = _HEADING.match(line)
        if match:
            anchors.add(github_slug(match.group(1), seen))
    return anchors


def links_of(path: pathlib.Path) -> List[Tuple[int, str]]:
    found: List[Tuple[int, str]] = []
    lines = _strip_fences(path.read_text(encoding="utf-8").splitlines())
    for number, line in enumerate(lines, start=1):
        for match in _LINK.finditer(line):
            found.append((number, match.group(1)))
    return found


def repo_paths_of(path: pathlib.Path) -> List[Tuple[int, str]]:
    """(line, path) for each inline code span that names a repo path."""
    found: List[Tuple[int, str]] = []
    lines = _strip_fences(path.read_text(encoding="utf-8").splitlines())
    for number, line in enumerate(lines, start=1):
        for span in _CODE_SPAN.finditer(line):
            match = _REPO_PATH.fullmatch(span.group(1).strip())
            if match:
                found.append((number, match.group(1)))
    return found


def check_file(path: pathlib.Path, anchor_cache: Dict[pathlib.Path, Set[str]]
               ) -> List[str]:
    problems: List[str] = []
    for line, named in repo_paths_of(path):
        if not any((base / named).exists() for base in _PATH_BASES):
            problems.append(f"{_label(path)}:{line}: missing path {named!r}")
    for line, target in links_of(path):
        if target.startswith(_EXTERNAL):
            continue
        base, _, fragment = target.partition("#")
        dest = (path.parent / base).resolve() if base else path.resolve()
        where = f"{_label(path)}:{line}"
        if not dest.exists():
            problems.append(f"{where}: broken path {target!r}")
            continue
        if fragment:
            if dest.suffix != ".md":
                problems.append(
                    f"{where}: fragment on non-markdown target {target!r}")
                continue
            if dest not in anchor_cache:
                anchor_cache[dest] = anchors_of(dest)
            if fragment not in anchor_cache[dest]:
                problems.append(
                    f"{where}: no heading for anchor {target!r}")
    return problems


def main(argv: List[str]) -> int:
    if argv:
        files = [pathlib.Path(arg).resolve() for arg in argv]
    else:
        files = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))
    anchor_cache: Dict[pathlib.Path, Set[str]] = {}
    problems: List[str] = []
    for path in files:
        problems.extend(check_file(path, anchor_cache))
    for problem in problems:
        print(problem)
    checked = ", ".join(_label(f) for f in files)
    if problems:
        print(f"\nlinkcheck: {len(problems)} broken link(s) or path(s) in "
              f"{checked}")
        return 1
    print(f"linkcheck: all links and paths resolve in {checked}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
