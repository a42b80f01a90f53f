"""Command-line harness.

    progmoney run <scenario.scn> --seed N --out DIR   # observation log,
                                                      # ledger export, report
    progmoney audit <ledger.txt>                      # exit 0 iff clean
    progmoney check <policy.pol> [...]                # parse + check
    progmoney report <run dir>                        # recompute from artifacts

Exit codes: 0 ok, 1 scenario/policy parse error, or an input path or --out
that is missing or of the wrong kind, 2 audit or reconciliation violation,
3 runtime error.  The seed is 0 when --seed is not given.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

from .policy import parse as parse_policy
from .registry import audit_export
from .report import build_report, render_report, report_for
from .scenario import ScenarioError, build_simulation, load_scenario

OBSERVATIONS_FILE = "observations.log"
LEDGER_FILE = "ledger.txt"
REPORT_FILE = "report.txt"

# a path that is missing, or a file named where a directory is wanted or
# the other way round: exit 1 naming the path, whichever command met it
_BAD_PATH = (FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError)


def _read_text(path: Path) -> str:
    """`path` decoded as UTF-8; other bytes are a ValueError naming the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from None


def _check_out(out: Path) -> None:
    """Raise the error writing the artifacts into `out` would meet, writing nothing."""
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(existing))
    for name in (OBSERVATIONS_FILE, LEDGER_FILE, REPORT_FILE):
        if (out / name).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / name))


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = load_scenario(args.scenario)
    except (ScenarioError, UnicodeDecodeError) as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return 1
    sim = build_simulation(cfg, args.seed)
    out = Path(args.out)
    _check_out(out)
    sim.run_until(cfg.until)
    out.mkdir(parents=True, exist_ok=True)
    obs_text = "\n".join(sim.observations) + "\n"
    ledger_text = sim.registry.export() + "\n"
    (out / OBSERVATIONS_FILE).write_text(obs_text, encoding="utf-8")
    (out / LEDGER_FILE).write_text(ledger_text, encoding="utf-8")
    (out / REPORT_FILE).write_text(render_report(report_for(sim)), encoding="utf-8")
    violations = sim.registry.audit()
    if violations:
        for violation in violations:
            print(f"audit: {violation}", file=sys.stderr)
        return 2
    print(f"run complete: {out / REPORT_FILE}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    try:
        text = _read_text(Path(args.ledger))
    except ValueError as exc:
        print(f"audit: {exc}", file=sys.stderr)
        return 2
    violations = audit_export(text)
    if violations:
        for violation in violations:
            print(f"audit: {violation}", file=sys.stderr)
        return 2
    print("audit ok")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    status = 0
    for path in args.policies:
        try:
            program = parse_policy(_read_text(Path(path)))
        except ValueError as exc:
            print(f"{path}: parse error: {exc}", file=sys.stderr)
            status = 1
            continue
        if program.check_errors:
            for error in program.check_errors:
                print(f"{path}: {error}", file=sys.stderr)
            status = 1
        else:
            print(f"{path}: ok ({len(program.rules)} rules)")
    return status


def _cmd_report(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    stored = run_dir / REPORT_FILE
    try:
        obs_lines = _read_text(run_dir / OBSERVATIONS_FILE).splitlines()
        ledger_lines = _read_text(run_dir / LEDGER_FILE).splitlines()
        rendered = render_report(build_report(obs_lines, ledger_lines))
        stored_text = _read_text(stored) if stored.exists() else rendered
    except ValueError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(rendered)
    if stored_text != rendered:
        print("report: recomputed report differs from stored report", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="progmoney", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a scenario file")
    run_parser.add_argument("scenario")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--out", default="out")
    run_parser.set_defaults(func=_cmd_run)

    audit_parser = sub.add_parser("audit", help="audit a ledger export")
    audit_parser.add_argument("ledger")
    audit_parser.set_defaults(func=_cmd_audit)

    check_parser = sub.add_parser("check", help="parse and check policy files")
    check_parser.add_argument("policies", nargs="+")
    check_parser.set_defaults(func=_cmd_check)

    report_parser = sub.add_parser("report", help="recompute a report from artifacts")
    report_parser.add_argument("run_dir")
    report_parser.set_defaults(func=_cmd_report)
    return parser


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except _BAD_PATH as exc:
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 1
    except Exception as exc:  # the CLI boundary reports and exits
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
