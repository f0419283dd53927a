#!/usr/bin/env python3
"""Metric-name lint for src/.

Every metric registered against obs::MetricsRegistry appears in the
source as a string literal "quasaq_...". This checker enforces the
conventions documented in docs/OBSERVABILITY.md:

  * Names follow  quasaq_<subsystem>_<noun...>_<unit>  with at least
    one noun segment and a unit drawn from the closed set below, so
    dashboards can tell a counter of bytes from a ratio gauge by name
    alone.
  * Each name literal appears exactly once in src/. The single
    occurrence is the registration site; a second occurrence means
    either a copy-pasted registration (two subsystems fighting over
    one series) or a stringly-typed lookup that will silently drift
    when the registration is renamed.
  * The names src/ registers and the names the "Metric catalog"
    section of docs/OBSERVABILITY.md lists (first column of its tables)
    are the same set: a registered series the catalog does not explain,
    or a catalog row for a series nothing registers, fails the check.

Test code (tests/, bench/) is deliberately out of scope: tests mint
throwaway names like quasaq_stress_* that never reach an exposition.

Exit codes: 0 clean, 1 violations found, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import defaultdict
from pathlib import Path

# Closed unit vocabulary. "total" for counters, "ratio"/"count" for
# gauges and dimensionless histograms, the rest are physical units.
UNITS = ("total", "ratio", "seconds", "ms", "kb", "kbps", "count")

NAME_RE = re.compile(
    r"^quasaq_[a-z][a-z0-9]*(?:_[a-z][a-z0-9]*)+_(?:%s)$"
    % "|".join(UNITS))

LITERAL_RE = re.compile(r'"(quasaq_[A-Za-z0-9_]+)"')

CATALOG_NAME_RE = re.compile(r"`(quasaq_[A-Za-z0-9_]+)`")


def check_files(files: dict[str, str]) -> list[str]:
    """files: relative path (e.g. 'core/system.cc') -> file contents.

    Returns a list of human-readable violation strings.
    """
    occurrences: dict[str, list[str]] = defaultdict(list)
    for path, text in sorted(files.items()):
        for name in LITERAL_RE.findall(text):
            occurrences[name].append(path)

    violations = []
    for name, paths in sorted(occurrences.items()):
        if not NAME_RE.match(name):
            violations.append(
                f"{paths[0]}: metric '{name}' does not match "
                f"quasaq_<subsystem>_<noun>_<unit> with unit in "
                f"{{{', '.join(UNITS)}}}")
        if len(paths) > 1:
            violations.append(
                f"metric '{name}' registered/used {len(paths)} times "
                f"({', '.join(paths)}); each name literal must appear "
                f"exactly once in src/")
    return violations


def registered_names(files: dict[str, str]) -> set[str]:
    names = set()
    for text in files.values():
        names.update(LITERAL_RE.findall(text))
    return names


def catalog_names(catalog: str) -> set[str]:
    """Names in the first column of the tables under "## Metric catalog"
    (up to the next level-2 heading)."""
    names = set()
    in_catalog = False
    for line in catalog.splitlines():
        if line.startswith("## "):
            in_catalog = line.strip() == "## Metric catalog"
            continue
        if in_catalog and line.startswith("|"):
            first_cell = line.split("|")[1]
            names.update(CATALOG_NAME_RE.findall(first_cell))
    return names


def check_catalog(files: dict[str, str], catalog: str) -> list[str]:
    """Returns one violation per name registered in src/ but missing
    from the catalog, and per catalog name src/ does not register."""
    registered = registered_names(files)
    listed = catalog_names(catalog)
    violations = [
        f"metric '{name}' is registered in src/ but missing from the "
        f"docs/OBSERVABILITY.md metric catalog"
        for name in sorted(registered - listed)]
    violations += [
        f"metric '{name}' is listed in the docs/OBSERVABILITY.md metric "
        f"catalog but not registered in src/"
        for name in sorted(listed - registered)]
    return violations


def load_tree(src_root: Path) -> dict[str, str]:
    files = {}
    for path in sorted(src_root.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        files[str(path.relative_to(src_root))] = path.read_text(
            encoding="utf-8")
    return files


def self_test() -> int:
    """Synthetic trees: the checker must flag duplicates, bad units and
    malformed names, and accept a conforming tree."""
    duplicate = {
        "cache/a.cc": '"quasaq_cache_hits_total"\n',
        "core/b.cc": 'reg.GetCounter("quasaq_cache_hits_total", "x");\n',
    }
    bad_unit = {
        # "bytes" is not in the unit vocabulary (we standardize on kb).
        "net/a.cc": '"quasaq_net_sent_bytes"\n',
    }
    malformed = {
        # No noun segment between subsystem and unit.
        "net/a.cc": '"quasaq_total"\n',
        # Uppercase is out.
        "net/b.cc": '"quasaq_net_Frames_total"\n',
    }
    clean = {
        "cache/a.cc": ('"quasaq_cache_hits_total"\n'
                       '"quasaq_cache_used_kb"\n'),
        "core/b.cc": '"quasaq_session_duration_seconds"\n',
    }
    catalog = (
        "# Observability\n\n## Metric catalog\n\n"
        "| name | type | meaning |\n|---|---|---|\n"
        "| `quasaq_cache_hits_total` / `quasaq_cache_used_kb` | counter | "
        "see `quasaq_other_mentioned_total` |\n"
        "| `quasaq_session_duration_seconds` | histogram | length |\n\n"
        "## Trace span hierarchy\n\n"
        "| `quasaq_outside_catalog_total` | not a catalog row |\n")
    unlisted = dict(clean)
    unlisted["net/c.cc"] = '"quasaq_net_frames_total"\n'
    stale = dict(clean)
    del stale["core/b.cc"]
    failures = []
    if len(check_files(duplicate)) != 1:
        failures.append("duplicate registration not flagged")
    if len(check_files(bad_unit)) != 1:
        failures.append("unknown unit not flagged")
    if len(check_files(malformed)) != 2:
        failures.append("malformed names not flagged")
    if check_files(clean):
        failures.append("conforming tree wrongly flagged")
    if len(check_catalog(unlisted, catalog)) != 1:
        failures.append("registered name missing from the catalog not "
                        "flagged")
    if len(check_catalog(stale, catalog)) != 1:
        failures.append("catalog name nothing registers not flagged")
    if check_catalog(clean, catalog):
        failures.append("matching catalog wrongly flagged")
    for f in failures:
        print(f"self-test FAILED: {f}", file=sys.stderr)
    if not failures:
        print("self-test ok: duplicates, bad units, malformed names and "
              "catalog drift in either direction are flagged, conforming "
              "names pass")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", default=None,
                        help="src/ root to scan (default: <repo>/src)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the checker itself on synthetic trees")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    repo = Path(__file__).resolve().parent.parent
    src_root = Path(args.src) if args.src else repo / "src"
    if not src_root.is_dir():
        print(f"error: src root not found: {src_root}", file=sys.stderr)
        return 2
    catalog_path = repo / "docs" / "OBSERVABILITY.md"

    files = load_tree(src_root)
    violations = check_files(files) + check_catalog(
        files, catalog_path.read_text(encoding="utf-8"))
    for v in violations:
        print(v, file=sys.stderr)
    if violations:
        print(f"\n{len(violations)} metric violation(s); the "
              "convention is documented in docs/OBSERVABILITY.md",
              file=sys.stderr)
        return 1
    print(f"metrics ok: {len(registered_names(files))} metric names are "
          "unique, follow quasaq_<subsystem>_<noun>_<unit> and match the "
          "catalog")
    return 0


if __name__ == "__main__":
    sys.exit(main())
