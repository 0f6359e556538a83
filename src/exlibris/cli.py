"""Command-line surface: export, mkindex, trace, and graph subcommands.

Exit codes: 0 success, 1 usage error, 2 I/O, parse or internal error, 3 when
--strict escalates unresolved references or answers the export changes.
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
    check_loclib,
    default_loclib_root,
    discover_entries,
    plan_export,
    read_sources,
)
from .fsio import read_text
from .index import DEFAULT_EXTENSIONS, mkindex, suffix, write_index
from .resolve import LibrarySet, closure, trace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ERROR = 2
EXIT_UNRESOLVED = 3

CONFIG_ENV = "EXLIBRIS_CONFIG"
CONFIG_KEYS = ("syslib", "homelib", "extensions")

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _pl_flag(text: str) -> PlId:
    name, sep, version = text.partition(":")
    parts = version.split(".")
    if not sep or not all(part.isascii() and part.isdigit() for part in parts):
        raise argparse.ArgumentTypeError(f"expected name:v.v.v, got {text!r}")
    try:
        return PlId(name, tuple(int(part) for part in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="exlibris", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, required=True)

    def libraries(pl_help: str) -> argparse.ArgumentParser:  # every command but mkindex
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument("--pl", action="append", type=_pl_flag, default=[],
                            metavar="NAME:V.V.V", help=pl_help)
        parent.add_argument("--syslib", action="append", default=[], metavar="DIR",
                            help="system library directory (repeatable)")
        parent.add_argument("--homelib", action="append", default=[], metavar="DIR",
                            help="home library directory (repeatable)")
        parent.add_argument("--loclib", default="lib", metavar="PATH",
                            help="local library path, relative (default: lib)")
        return parent

    any_engines = libraries("target engine (repeatable; default: all engines)")
    one_engine = libraries("target engine (exactly one required)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help=f"key=value config file (or ${CONFIG_ENV})")
    common.add_argument("--ext", action="append", default=[], metavar=".EXT",
                        help="source extension (repeatable, default: .pl)")

    p_export = sub.add_parser("export", parents=[any_engines, common],
                              help="export sources with home dependencies vendored")
    p_export.add_argument("--dest", required=True, metavar="DIR")
    p_export.add_argument("--source", action="append", required=True, default=[],
                          metavar="PATH", help="entry file or directory (repeatable)")
    p_export.add_argument("--copy", choices=["selective", "recursive"],
                          default="selective")
    p_export.add_argument("--strict", action="store_true",
                          help="fail with exit 3, writing nothing, when references stay "
                          "unresolved or the export changes how one resolves")

    p_mkindex = sub.add_parser("mkindex", parents=[common],
                               help="write Index.pl for a library directory")
    p_mkindex.add_argument("directory", metavar="DIR")
    p_mkindex.add_argument("--clause-fallback", action="store_true",
                           help="index clause heads when nothing else declares")
    p_mkindex.add_argument("--no-subdirs", action="store_true",
                           help="do not descend into subdirectories")

    p_trace = sub.add_parser("trace", parents=[one_engine, common],
                             help="show load decisions for one entry and engine")
    p_trace.add_argument("entry", metavar="FILE")

    p_graph = sub.add_parser("graph", parents=[any_engines, common],
                             help="emit the dependency graph in DOT format")
    p_graph.add_argument("--source", action="append", required=True, default=[],
                         metavar="PATH")

    return parser


def _load_config(path: str | None) -> dict[str, list[str]]:
    if path is None:
        path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    values: dict[str, list[str]] = {}
    for lineno, raw in enumerate(read_text(path).removeprefix("\ufeff").splitlines(), 1):
        if "\0" in raw:
            raise ExlibrisError(f"{path}:{lineno}: NUL byte in config line")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ExlibrisError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key not in CONFIG_KEYS:
            raise ExlibrisError(f"{path}:{lineno}: unknown config key {key!r}")
        values.setdefault(key, []).append(value)
    return values


def _settings(args) -> tuple[dict[str, list[str]], tuple[str, ...]]:
    """The config file's values and the extensions; flag values win over
    the config file.  An extension that is not one file suffix, such as
    `.pro`, is a usage error."""
    config = _load_config(args.config)
    extensions = args.ext or [
        ext.strip() for value in config.get("extensions", []) for ext in value.split(",")
    ]
    for ext in extensions:
        if len(ext) < 2 or suffix(f"x{ext}") != ext:
            raise SystemExit(_usage_error(f"extension must be a suffix like '.pl', got {ext!r}"))
    return config, tuple(extensions) or DEFAULT_EXTENSIONS


def _libraries(args, sources: Sequence[str]) -> tuple[list[tuple[str, str]], LibrarySet, str]:
    """The setup of export, graph and trace: the sources, read once; the
    command's LibrarySet, with the development-side local library found next
    to them; and the checked --loclib."""
    config, extensions = _settings(args)
    try:
        loclib = check_loclib(args.loclib)
    except ValueError as exc:
        raise SystemExit(_usage_error(str(exc))) from exc
    pairs = read_sources(sources)
    libs = LibrarySet.build(
        args.syslib or config.get("syslib", []),
        args.homelib or config.get("homelib", []),
        default_loclib_root(pairs, loclib),
        extensions,
    )
    return pairs, libs, loclib


def _print_report(report) -> None:
    for line in report.lines:
        print(line)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _cmd_export(args) -> int:
    sources, libs, loclib = _libraries(args, args.source)
    opts = ExportOptions(
        dest=Path(args.dest),
        sources=sources,
        copy=args.copy,
        loclib=loclib,
        pls=tuple(args.pl) or None,
    )
    plan = plan_export(opts, libs)
    if args.strict and (plan.report.unresolved or plan.report.changed):
        _print_report(plan.report)
        why = "unresolved references" if plan.report.unresolved else "the export changes answers"
        print(f"strict mode: {why}, nothing exported", file=sys.stderr)
        return EXIT_UNRESOLVED
    report = apply_plan(plan)
    _print_report(report)
    return EXIT_OK


def _cmd_mkindex(args) -> int:
    _, extensions = _settings(args)
    index = mkindex(
        Path(args.directory),
        follow_subdirs=not args.no_subdirs,
        clause_fallback=args.clause_fallback,
        extensions=extensions,
    )
    path = write_index(index)
    print(f"wrote {path} ({len(index.rows)} entries)")
    return EXIT_OK


def _cmd_trace(args) -> int:
    if len(args.pl) != 1:
        return _usage_error("trace needs exactly one --pl")
    entry = Path(args.entry)
    if not entry.is_file():
        raise ExlibrisError(f"entry is not a file: {entry}")
    _, libs, _ = _libraries(args, [entry])
    sys.stdout.write(trace(entry, args.pl[0], libs))
    return EXIT_OK


def _usage_error(message: str) -> int:
    print(f"exlibris: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_graph(args) -> int:
    sources, libs, loclib = _libraries(args, args.source)
    entries = discover_entries(sources, loclib, libs.extensions)
    clo = closure([path for path, _ in entries], libs, tuple(args.pl) or None)
    sys.stdout.write(_render_dot(clo, dict(entries)))
    return EXIT_OK


def _render_dot(clo, names: dict[str, str]) -> str:
    def show(node: str) -> str:
        if node in names:
            return names[node]
        if os.path.isabs(node):
            rel = os.path.relpath(node)
            return node if rel.partition("/")[0] == ".." else rel  # not `..x.pl`
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
        _print_report(exc.report)
        print(f"exlibris: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ExlibrisError, OSError) as exc:
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
