"""Command-line surface: export, mkindex, trace, and graph subcommands.

Exit codes: 0 success, 1 usage error, 2 I/O, parse or internal error, 3 when
--strict escalates unresolved references.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path
from typing import Sequence

from .engines import PlId
from .errors import ExlibrisError
from .export import (
    ExportApplyError,
    ExportOptions,
    apply_plan,
    build_library_set,
    default_loclib_root,
    discover_entries,
    plan_export,
)
from .index import DEFAULT_EXTENSIONS, mkindex, write_index
from .resolve import LibrarySet, closure, trace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ERROR = 2
EXIT_UNRESOLVED = 3

CONFIG_ENV = "EXLIBRIS_CONFIG"

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _pl_flag(text: str) -> PlId:
    name, sep, version = text.partition(":")
    if not sep or not version:
        raise argparse.ArgumentTypeError(f"expected name:v.v.v, got {text!r}")
    try:
        components = tuple(int(part) for part in version.split("."))
        return PlId(name, components)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="exlibris", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--syslib", action="append", default=[], metavar="DIR",
                        help="system library directory (repeatable)")
    common.add_argument("--homelib", action="append", default=[], metavar="DIR",
                        help="home library directory (repeatable)")
    common.add_argument("--loclib", default="lib", metavar="PATH",
                        help="local library path, relative (default: lib)")
    common.add_argument("--config", metavar="FILE",
                        help=f"key=value config file (or ${CONFIG_ENV})")
    common.add_argument("--ext", action="append", default=[], metavar=".EXT",
                        help="source extension (repeatable, default: .pl)")

    p_export = sub.add_parser("export", parents=[common],
                              help="export sources with home dependencies vendored")
    p_export.add_argument("--dest", required=True, metavar="DIR")
    p_export.add_argument("--source", action="append", required=True, default=[],
                          metavar="PATH", help="entry file or directory (repeatable)")
    p_export.add_argument("--copy", choices=["selective", "recursive"],
                          default="selective")
    p_export.add_argument("--pl", action="append", type=_pl_flag, default=[],
                          metavar="NAME:V.V.V",
                          help="target engine (repeatable; default: all engines)")
    p_export.add_argument("--strict", action="store_true",
                          help="fail with exit 3 when references stay unresolved")

    p_mkindex = sub.add_parser("mkindex", parents=[common],
                               help="write Index.pl for a library directory")
    p_mkindex.add_argument("directory", metavar="DIR")
    p_mkindex.add_argument("--clause-fallback", action="store_true",
                           help="index clause heads when nothing else declares")
    p_mkindex.add_argument("--no-subdirs", action="store_true",
                           help="do not descend into subdirectories")

    p_trace = sub.add_parser("trace", parents=[common],
                             help="show load decisions for one entry and engine")
    p_trace.add_argument("entry", metavar="FILE")
    p_trace.add_argument("--pl", action="append", type=_pl_flag, default=[],
                         metavar="NAME:V.V.V")

    p_graph = sub.add_parser("graph", parents=[common],
                             help="emit the dependency graph in DOT format")
    p_graph.add_argument("--source", action="append", required=True, default=[],
                         metavar="PATH")
    p_graph.add_argument("--pl", action="append", type=_pl_flag, default=[],
                         metavar="NAME:V.V.V")

    return parser


def _load_config(path: str | None) -> dict[str, list[str]]:
    if path is None:
        path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    values: dict[str, list[str]] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ExlibrisError(f"{path}: expected key=value, got {raw!r}")
        values.setdefault(key.strip(), []).append(value.strip())
    return values


def _settings(args) -> tuple[list[str], list[str], tuple[str, ...]]:
    """Flag values win; the config file supplies defaults."""
    config = _load_config(args.config)
    syslibs = args.syslib or config.get("syslib", [])
    homelibs = args.homelib or config.get("homelib", [])
    extensions = args.ext
    if not extensions:
        extensions = [
            ext for value in config.get("extensions", []) for ext in value.split(",")
        ]
    return syslibs, homelibs, tuple(extensions) or DEFAULT_EXTENSIONS


def _print_report(report) -> None:
    for line in report.lines:
        print(line)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _cmd_export(args) -> int:
    syslibs, homelibs, extensions = _settings(args)
    opts = ExportOptions(
        dest=Path(args.dest),
        sources=tuple(Path(s) for s in args.source),
        copy=args.copy,
        syslibs=tuple(Path(s) for s in syslibs),
        homelibs=tuple(Path(s) for s in homelibs),
        loclib=args.loclib,
        pls=tuple(args.pl) or None,
    )
    libs = build_library_set(opts, extensions)
    plan = plan_export(opts, libs)
    if args.strict and plan.report.unresolved:
        for warning in plan.report.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        print("strict mode: unresolved references, nothing exported", file=sys.stderr)
        return EXIT_UNRESOLVED
    report = apply_plan(plan)
    _print_report(report)
    return EXIT_OK


def _cmd_mkindex(args) -> int:
    _, _, extensions = _settings(args)
    index = mkindex(
        Path(args.directory),
        follow_subdirs=not args.no_subdirs,
        clause_fallback=args.clause_fallback,
        extensions=extensions,
    )
    path = write_index(index)
    print(f"wrote {path} ({len(index.entries)} entries)")
    return EXIT_OK


def _cmd_trace(args) -> int:
    if len(args.pl) != 1:
        return _usage_error("trace needs exactly one --pl")
    syslibs, homelibs, extensions = _settings(args)
    entry = Path(args.entry)
    if not entry.is_file():
        raise ExlibrisError(f"entry file does not exist: {entry}")
    loclib = default_loclib_root([entry], args.loclib)
    libs = LibrarySet.build(syslibs, homelibs, loclib, extensions)
    sys.stdout.write(trace(entry, args.pl[0], libs))
    return EXIT_OK


def _usage_error(message: str) -> int:
    print(f"exlibris: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_graph(args) -> int:
    syslibs, homelibs, extensions = _settings(args)
    sources = [Path(s) for s in args.source]
    loclib = default_loclib_root(sources, args.loclib)
    libs = LibrarySet.build(syslibs, homelibs, loclib, extensions)
    entries = discover_entries(sources, args.loclib, extensions)
    clo = closure([path for path, _ in entries], libs, tuple(args.pl) or None)
    names = {str(path): rel for path, rel in entries}
    sys.stdout.write(_render_dot(clo, names))
    return EXIT_OK


def _render_dot(clo, names: dict[str, str]) -> str:
    def show(node: str) -> str:
        if node in names:
            return names[node]
        if os.path.isabs(node):
            rel = os.path.relpath(node)
            return node if rel.startswith("..") else rel
        return node

    def esc(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    shown = sorted(
        (show(edge.src), show(edge.dst), edge.label) for edge in clo.edges
    )
    nodes = sorted({src for src, _, _ in shown} | {dst for _, dst, _ in shown})
    lines = ["digraph exlibris {"]
    lines.extend(f'  "{esc(node)}";' for node in nodes)
    lines.extend(
        f'  "{esc(src)}" -> "{esc(dst)}" [label="{esc(label)}"];'
        for src, dst, label in shown
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "export": _cmd_export,
    "mkindex": _cmd_mkindex,
    "trace": _cmd_trace,
    "graph": _cmd_graph,
}


def main(argv: Sequence[str] | None = None) -> int:
    args_list = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = _build_parser().parse_args(args_list)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ExportApplyError as exc:
        for line in exc.report.lines:
            print(line)
        print(f"exlibris: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        return _usage_error(str(exc))
    except (ExlibrisError, OSError, UnicodeDecodeError) as exc:
        print(f"exlibris: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # Anything else is a defect.  The interpreter would exit 1, which
        # means a usage error here, so report one line and exit 2; the
        # traceback goes to debug logging.
        logger.debug("internal error", exc_info=True)
        print(f"exlibris: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
