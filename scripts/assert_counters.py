#!/usr/bin/env python3
"""Assert counter invariants over sweep reports and store stats.

CI's equivalence legs used to scrape report JSON with inline
``python - <<'PY'`` heredocs pasted into every workflow step.  This
script is the checked-in replacement: each leg states its expected
counters as flags and the workflow stays declarative.

Accepted inputs (autodetected):

* a sweep report (``repro sweep --out``) or a ``repro lint --corpus``
  report: namespaces come from the ``artifact_store.namespaces``
  block, front-end counters from
  ``design_frontend.namespaces.testbench``, static-lint counters
  (``--lint``) from ``lint.namespaces.lint``, ``rows`` resolves to
  ``len(results)``;
* ``repro store stats --json`` output: namespaces merge the
  ``counters`` block (hits/misses/puts) with ``by_namespace``
  (entries/bytes).

Values in ``--expect``/``--frontend`` may be an integer literal, the
word ``rows`` (the report's result-row count), or a cross-report
reference ``@FILE:NS:FIELD`` (e.g. ``@cold.json:scenario-rows:puts``) so a
warm leg can assert its hits equal the cold leg's puts without
hard-coding grid sizes.

Examples::

    # warm leg: every grid point served from the store, nothing
    # recomputed below it
    python scripts/assert_counters.py warm.json --enabled \\
        --expect scenario-rows:hits=@cold.json:scenario-rows:puts \\
        --expect scenario-rows:misses=0 --expect scenario-rows:puts=0 \\
        --absent corpus --absent models --frontend elaborations=0 \\
        --rows-match cold.json --failed-rows 0

    # store stats: entry count matches what the cold sweep published
    python scripts/assert_counters.py stats.json \\
        --expect scenario-rows:entries=@cold.json:scenario-rows:puts
"""

from __future__ import annotations

import argparse
import json
import sys


def load_report(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    if not isinstance(report, dict):
        raise SystemExit(f"{path}: expected a JSON object")
    return report


def namespace_counters(report: dict) -> dict:
    """Per-namespace counter dicts from either accepted input shape."""
    if "artifact_store" in report:  # sweep report
        return dict(report["artifact_store"].get("namespaces", {}))
    if "by_namespace" in report:  # repro store stats --json
        merged: dict[str, dict] = {}
        for ns, sizes in report.get("by_namespace", {}).items():
            merged[ns] = dict(sizes)
        for ns, counts in report.get("counters", {}).items():
            merged.setdefault(ns, {}).update(counts)
        return merged
    raise SystemExit(
        "input is neither a sweep report (artifact_store block) nor "
        "store-stats JSON (by_namespace block)")


def frontend_counters(report: dict) -> dict:
    block = report.get("design_frontend", {})
    return dict(block.get("namespaces", {}).get("testbench", {}))


def lint_counters(report: dict) -> dict:
    block = report.get("lint", {})
    return dict(block.get("namespaces", {}).get("lint", {}))


def row_count(report: dict, path: str) -> int:
    if "results" not in report:
        raise SystemExit(f"{path}: no 'results' block, cannot use 'rows'")
    return len(report["results"])


def resolve_value(raw: str, report: dict, report_path: str) -> int:
    """``VALUE`` grammar: int literal | ``rows`` | ``@FILE:NS:FIELD``."""
    if raw == "rows":
        return row_count(report, report_path)
    if raw.startswith("@"):
        try:
            ref_path, ns, field = raw[1:].rsplit(":", 2)
        except ValueError:
            raise SystemExit(
                f"bad reference {raw!r}: want @FILE:NS:FIELD") from None
        other = namespace_counters(load_report(ref_path))
        return int(other.get(ns, {}).get(field, 0))
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(
            f"bad value {raw!r}: want an integer, 'rows', or "
            f"@FILE:NS:FIELD") from None


def split_expect(spec: str) -> tuple[str, str, str]:
    lhs, sep, raw = spec.partition("=")
    if not sep:
        raise SystemExit(f"bad --expect {spec!r}: want NS:FIELD=VALUE")
    ns, sep, field = lhs.partition(":")
    if not sep or not ns or not field:
        raise SystemExit(f"bad --expect {spec!r}: want NS:FIELD=VALUE")
    return ns, field, raw


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("report", help="sweep report or store-stats JSON")
    parser.add_argument(
        "--expect", action="append", default=[], metavar="NS:FIELD=VALUE",
        help="namespace counter must equal VALUE (int | rows | "
             "@FILE:NS:FIELD); missing counters read as 0")
    parser.add_argument(
        "--absent", action="append", default=[], metavar="NS",
        help="namespace must be untouched (absent or all-zero counters)")
    parser.add_argument(
        "--frontend", action="append", default=[], metavar="FIELD=VALUE",
        help="design front-end counter (elaborations / lowerings) "
             "must equal VALUE")
    parser.add_argument(
        "--lint", action="append", default=[], metavar="FIELD=VALUE",
        help="static-lint counter (runs / report_hits / "
             "findings.<rule>) must equal VALUE")
    parser.add_argument(
        "--rows-match", metavar="OTHER.json",
        help="result rows must be byte-identical (canonical JSON) to "
             "OTHER.json's rows")
    parser.add_argument(
        "--failed-rows", type=int, metavar="N",
        help="report's failed_rows must equal N")
    parser.add_argument(
        "--enabled", action="store_true",
        help="the report's artifact_store block must say enabled")
    args = parser.parse_args(argv)

    report = load_report(args.report)
    failures: list[str] = []

    if args.enabled:
        if not report.get("artifact_store", {}).get("enabled", False):
            failures.append("artifact store is not enabled in the report")

    counters = namespace_counters(report)
    for spec in args.expect:
        ns, field, raw = split_expect(spec)
        want = resolve_value(raw, report, args.report)
        got = int(counters.get(ns, {}).get(field, 0))
        if got != want:
            failures.append(
                f"{ns}:{field} = {got}, expected {want} "
                f"(from {spec!r}; namespace counters: "
                f"{counters.get(ns, {})})")

    for ns in args.absent:
        bucket = counters.get(ns, {})
        active = {k: v for k, v in bucket.items() if v}
        if active:
            failures.append(f"namespace {ns!r} saw activity: {active}")

    if args.frontend:
        frontend = frontend_counters(report)
        for spec in args.frontend:
            field, sep, raw = spec.partition("=")
            if not sep or not field:
                raise SystemExit(
                    f"bad --frontend {spec!r}: want FIELD=VALUE")
            want = resolve_value(raw, report, args.report)
            got = int(frontend.get(field, 0))
            if got != want:
                failures.append(
                    f"frontend {field} = {got}, expected {want} "
                    f"(counters: {frontend})")

    if args.lint:
        lint = lint_counters(report)
        for spec in args.lint:
            field, sep, raw = spec.partition("=")
            if not sep or not field:
                raise SystemExit(
                    f"bad --lint {spec!r}: want FIELD=VALUE")
            want = resolve_value(raw, report, args.report)
            got = int(lint.get(field, 0))
            if got != want:
                failures.append(
                    f"lint {field} = {got}, expected {want} "
                    f"(counters: {lint})")

    if args.failed_rows is not None:
        got = report.get("failed_rows")
        if got != args.failed_rows:
            failures.append(
                f"failed_rows = {got}, expected {args.failed_rows}")

    if args.rows_match:
        mine = json.dumps(report.get("results"), sort_keys=True)
        other = json.dumps(
            load_report(args.rows_match).get("results"), sort_keys=True)
        if mine != other:
            failures.append(
                f"result rows diverge from {args.rows_match}")

    if failures:
        for failure in failures:
            print(f"FAIL [{args.report}]: {failure}", file=sys.stderr)
        return 1
    print(f"OK [{args.report}]: "
          f"{len(args.expect) + len(args.absent) + len(args.frontend) + len(args.lint)} "
          f"counter assertions passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
