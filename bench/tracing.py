"""Spans and counts at the module boundaries of `exlibris`, from outside.

`install` replaces each listed public function, wherever an `exlibris`
module binds it, with a wrapper that records a span: name, start, end,
parent span and operation id.  Calls between modules go through those
bindings, so they are seen; `src/` is not changed.  Spans stay in memory
and are turned into per-layer metrics, and written out, at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import pathlib
import time
from collections import Counter
from dataclasses import dataclass, field

# (module, attribute) pairs wrapped wherever `exlibris` binds them; an
# attribute that a later version no longer has is skipped.
FUNCTIONS = (
    ("terms", "read_terms"),
    ("terms", "splice"),
    ("directives", "extract"),
    ("engines", "matches"),
    ("index", "mkindex"),
    ("index", "parse_index"),
    ("index", "render_index"),
    ("index", "write_index"),
    ("index", "source_path"),
    ("resolve", "closure"),
    ("resolve", "trace"),
    ("resolve", "resolve_functor"),
    ("resolve", "resolve_functor_all"),
    ("resolve", "resolve_file_ref"),
    ("export", "plan_export"),
    ("export", "apply_plan"),
    ("fsio", "read_text"),
    ("fsio", "write_text"),
)
CLASSMETHODS = (("resolve", "Library", "load"), ("resolve", "LibrarySet", "build"))
MODULES = ("terms", "engines", "directives", "index", "fsio", "resolve", "export", "cli")
# Every Path.is_file / Path.exists call is one stat of the file system.
STAT_METHODS = ("is_file", "exists")


@dataclass
class Span:
    op: int
    name: str
    start: float
    end: float
    parent: int
    outermost: bool  # no span of the same name encloses it
    children_s: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    active: Counter = field(default_factory=Counter)
    enabled: bool = False
    op: int = -1
    stat_calls: Counter = field(default_factory=Counter)  # op -> file stats
    paths: dict = field(default_factory=dict)  # (op, name) -> set of paths
    chars: Counter = field(default_factory=Counter)  # op -> characters parsed
    entries: Counter = field(default_factory=Counter)  # op -> index entries loaded

    def wrap(self, name: str, fn):
        tracer = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = Span(tracer.op, name, 0.0, 0.0, parent, tracer.active[name] == 0)
            tracer.spans.append(span)
            tracer.stack.append(index)
            tracer.active[name] += 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.active[name] -= 1
                tracer.stack.pop()
                if parent >= 0:
                    tracer.spans[parent].children_s += span.end - span.start
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    def count_stat(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.stat_calls[tracer.op] += 1
            return fn(*args, **kwargs)

        return wrapper

    def note_path(self, name: str, path) -> None:
        self.paths.setdefault((self.op, name), set()).add(str(path))

    def write(self, path: pathlib.Path) -> None:
        """All spans as gzipped JSON lines: op, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps([s.op, s.name, s.start, s.end, s.parent]) + "\n")


def _first_arg(args, kwargs, key):
    return args[0] if args else kwargs.get(key)


def _observe_read_terms(tracer: Tracer, args, kwargs, result) -> None:
    text = _first_arg(args, kwargs, "text") or ""
    tracer.chars[tracer.op] += len(text)
    path = args[1] if len(args) > 1 else kwargs.get("path")
    tracer.note_path("terms.read_terms", path)


def _observe_read_text(tracer: Tracer, args, kwargs, result) -> None:
    tracer.note_path("fsio.read_text", _first_arg(args, kwargs, "path"))


def _observe_load(tracer: Tracer, args, kwargs, result) -> None:
    tracer.entries[tracer.op] += len(result.index.entries)


_OBSERVERS = {
    "terms.read_terms": _observe_read_terms,
    "fsio.read_text": _observe_read_text,
    "resolve.Library.load": _observe_load,
}


def install(tracer: Tracer):
    """Wrap every listed function; returns a callable that undoes it."""
    modules = {name: importlib.import_module(f"exlibris.{name}") for name in MODULES}
    modules["exlibris"] = importlib.import_module("exlibris")
    undo = []
    for mod_name, attr in FUNCTIONS:
        original = getattr(modules[mod_name], attr, None)
        if original is None:
            continue
        wrapper = tracer.wrap(f"{mod_name}.{attr}", original)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))
    for mod_name, cls_name, attr in CLASSMETHODS:
        cls = getattr(modules[mod_name], cls_name, None)
        original = cls.__dict__.get(attr) if cls is not None else None
        if not isinstance(original, classmethod):
            continue
        name = f"{mod_name}.{cls_name}.{attr}"
        setattr(cls, attr, classmethod(tracer.wrap(name, original.__func__)))
        undo.append((cls, attr, original))
    for attr in STAT_METHODS:
        original = getattr(pathlib.Path, attr)
        setattr(pathlib.Path, attr, tracer.count_stat(original))
        undo.append((pathlib.Path, attr, original))

    def uninstall():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall


def layer_metrics(tracer: Tracer, ops: list[int], export_ops: dict[int, str]) -> dict:
    """Per-layer figures over the given operations (one traced cycle).

    Times are inclusive (outermost spans only, so recursion is not counted
    twice) unless named `_self_s`, which subtract the time of child spans.
    `export_ops` maps each export operation to its standard output.
    Returns name -> (value, unit).
    """
    wanted = set(ops)
    calls: Counter = Counter()
    total: Counter = Counter()
    self_s: Counter = Counter()
    for s in tracer.spans:
        if s.op not in wanted:
            continue
        calls[s.name] += 1
        duration = s.end - s.start
        self_s[s.name] += duration - s.children_s
        if s.outermost:
            total[s.name] += duration

    def per_file(name: str) -> float:
        distinct = sum(len(tracer.paths.get((op, name), ())) for op in ops)
        return calls[name] / distinct if distinct else 0.0

    read_s = total["terms.read_terms"]
    chars = sum(tracer.chars[op] for op in ops)
    copies = rewrites = 0
    for op in ops:
        for line in export_ops.get(op, "").splitlines():
            copies += line.startswith("copy ")
            rewrites += line.startswith("rewrite ")
    return {
        "engines.matches_calls": (calls["engines.matches"], "count"),
        "resolve.closure_self_s": (self_s["resolve.closure"], "s"),
        "resolve.trace_self_s": (self_s["resolve.trace"], "s"),
        "terms.read_terms_s": (read_s, "s"),
        "terms.read_terms_calls": (calls["terms.read_terms"], "count"),
        "terms.chars_per_s": (chars / read_s if read_s else 0.0, "chars/s"),
        "directives.extract_s": (total["directives.extract"], "s"),
        "directives.extract_calls": (calls["directives.extract"], "count"),
        "terms.parses_per_file": (per_file("terms.read_terms"), "ratio"),
        "fsio.reads_per_file": (per_file("fsio.read_text"), "ratio"),
        "index.parse_index_s": (total["index.parse_index"], "s"),
        "index.entries_loaded": (sum(tracer.entries[op] for op in ops), "count"),
        "resolve.library_load_s": (total["resolve.Library.load"], "s"),
        "fs.stat_calls": (sum(tracer.stat_calls[op] for op in ops), "count"),
        "index.source_path_calls": (calls["index.source_path"], "count"),
        "resolve.file_ref_s": (total["resolve.resolve_file_ref"], "s"),
        "export.plan_s": (total["export.plan_export"], "s"),
        "export.plan_self_s": (self_s["export.plan_export"], "s"),
        "export.apply_s": (total["export.apply_plan"], "s"),
        "export.copies": (copies, "count"),
        "export.rewrites": (rewrites, "count"),
        "terms.splice_s": (total["terms.splice"], "s"),
        "index.render_index_s": (total["index.render_index"], "s"),
        "fsio.write_text_calls": (calls["fsio.write_text"], "count"),
        "index.mkindex_s": (total["index.mkindex"], "s"),
        "cli.other_s": (self_s["cli.main"], "s"),
    }
