#!/usr/bin/env python
"""Run the REPRO contract linter over the source tree.

The linter (:mod:`repro.analysis.contracts`) enforces the project's
rng-provenance, one-draw, keying, determinism, pickling, worker-purity,
rng-isolation and event-loop contracts as AST rules REPRO001–REPRO008, and
with REPRO010 keeps ``src/`` free of definitions only ``tests/`` reach
(REPRO009 is reserved).  Exit status is 0 when the tree is clean, 1 when any
violation is found; each violation prints as ``path:line:col: RULE message``
so editors and CI annotate it directly.

Examples::

    python scripts/lint_contracts.py                  # lint src/repro
    python scripts/lint_contracts.py src/repro/qx     # one subtree
    python scripts/lint_contracts.py --select REPRO001,REPRO007
    python scripts/lint_contracts.py --list-rules

Suppress a finding with a ``# contract: ignore[RULE]`` comment on the
offending line (or on a ``def``/``class`` line to cover the body); see
``docs/analysis.md``.
"""

from __future__ import annotations

import argparse
import sys

from _bootstrap import ensure_importable  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ensure_importable()
    from _bootstrap import REPO_ROOT
    import os

    from repro.analysis.contracts import RULES, lint_paths, rule_catalogue

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        nargs="*",
        default=[os.path.join(REPO_ROOT, "src", "repro")],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule IDs to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for entry in rule_catalogue():
            print(f"{entry['id']}  {entry['title']}")
            print(f"    scope: {entry['scope']}")
            print(f"    {entry['rationale']}")
        return 0

    rules = RULES
    if args.select:
        wanted = {rule_id.strip() for rule_id in args.select.split(",") if rule_id.strip()}
        unknown = wanted - {rule.rule_id for rule in RULES}
        if unknown:
            print(f"unknown rule IDs: {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        rules = [rule for rule in RULES if rule.rule_id in wanted]

    violations, checked = lint_paths(list(args.paths), rules=rules)
    for violation in violations:
        print(violation.format())
    if violations:
        print(
            f"\n{len(violations)} contract violation(s) in {checked} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"contracts clean: {checked} file(s), {len(rules)} rule(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
