"""Seeded synthetic worlds and the oracle that predicts every command's output.

A world is a directory holding a small system library (`SysLib`, never
indexed on disk), a home library (`HomeLib`, with or without `Index.pl`)
and a project (`proj/`) of entry files.  The generator keeps its own record
of what each file declares, and the oracle derives the expected results
from that record with the rules the README states: the search order is
system libraries, then home libraries; within a library the first index
entry whose condition matches the engine wins; the closure follows
`requires` per target and guarded loads whose guard can match a target;
home files reached are vendored, system files never are.  Nothing here
imports `exlibris`.

Sources keep to the seed reader's syntax: atoms, variables, integers,
lists and compounds, with no `is`, `\\+`, strings or floats.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

INDEX_HEADER = "% generated by exlibris mkindex"
INDEX_NAME = "Index.pl"
SYS_FILES = 40

# Concrete target engines of every export with targets, as `--pl` flags and
# as (name, version) pairs for the oracle's own matcher.
TARGET_FLAGS = ("swi:5.0.7", "sicstus:3.9.0", "yap:4.3.23")
TARGETS = (("swi", (5, 0, 7)), ("sicstus", (3, 9, 0)), ("yap", (4, 3, 23)))
TRACE_FLAG = "swi:5.0.7"
TRACE_ENGINE = TARGETS[0]

# Condition text -> whether an engine satisfies it.  Only `any` holds for
# every engine and every one of them holds for some engine, so the
# all-engines reading needs no satisfiability reasoning beyond that.
CONDITIONS = {
    "any": lambda name, version: True,
    "swi(_)": lambda name, version: name == "swi",
    "not(swi(_))": lambda name, version: name != "swi",
    "sicstus(3:_:_)": lambda name, version: name == "sicstus" and version[:1] == (3,),
    "[swi(_),yap(_)]": lambda name, version: name in ("swi", "yap"),
    "bprolog(_)": lambda name, version: name == "bprolog",
    "not(bprolog(_))": lambda name, version: name != "bprolog",
}
ALWAYS = "any"
DEFINE_CONDS = ("any", "swi(_)", "not(swi(_))", "sicstus(3:_:_)", "[swi(_),yap(_)]")
DEFINE_WEIGHTS = (40, 10, 20, 15, 15)
# Matches none of TARGETS, so exports with targets prune it.
PRUNABLE = "bprolog(_)"


def cond_holds(cond: str, engine) -> bool:
    return CONDITIONS[cond](*engine)


@dataclass(frozen=True)
class Shape:
    """Sizes and mix of one workload's world."""

    home_files: int
    preds_per_file: int
    clauses_per_pred: int
    requires_per_file: int
    guarded_load_share: float
    shared_name_share: float
    builtin_share: float
    entries: int
    requires_per_entry: int
    index_on_disk: bool
    export_targets: bool
    mkindex_dir: str


@dataclass
class FileDecl:
    """What one generated file declares, as the oracle reads it."""

    rel: str  # library-relative, no extension; entries: file name
    defines: list[tuple[str, str]] = field(default_factory=list)  # (cond, name)
    module: str | None = None  # module/2 name, or "built_in" via defines_module
    requires: list[str] = field(default_factory=list)
    loads: list[tuple[str, str]] = field(default_factory=list)  # (guard, home rel)
    pruned: list[str] = field(default_factory=list)  # lines removed on export
    replaced: list[tuple[str, str]] = field(default_factory=list)  # (line, new)


_PLAIN_ATOM = re.compile(r"[a-z][A-Za-z0-9_]*")


@dataclass(frozen=True)
class IndexRow:
    name: str
    cond: str
    module: str
    file: str

    def render(self) -> str:
        file = self.file if _PLAIN_ATOM.fullmatch(self.file) else f"'{self.file}'"
        return f"index( {self.name}, 2, {self.cond}, {self.module}, {file} )."


@dataclass
class World:
    shape: Shape
    files: dict[str, str]  # world-relative path -> text
    sys_files: list[FileDecl]
    home_files: list[FileDecl]
    entries: list[FileDecl]
    memo: dict = field(default_factory=dict, repr=False)  # oracle results

    def _memo(self, key, compute):
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def materialize(self, root: Path) -> None:
        for rel, text in self.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)

    # --- indexes ---------------------------------------------------------

    def index_rows(self, lib: str) -> list[IndexRow]:
        """Index order: files in path order, then a stable sort on name."""
        decls = self.sys_files if lib == "SysLib" else self.home_files

        def compute():
            rows = []
            for decl in sorted(decls, key=lambda d: d.rel):
                module = decl.module or "user"
                rows.extend(IndexRow(name, cond, module, decl.rel) for cond, name in decl.defines)
            return sorted(rows, key=lambda r: r.name)

        return self._memo(("rows", lib), compute)

    def index_text(self, lib: str, rows: list[IndexRow] | None = None) -> str:
        rows = self.index_rows(lib) if rows is None else rows
        return "\n".join([INDEX_HEADER] + [r.render() for r in rows]) + "\n"

    def _by_name(self) -> list[tuple[str, dict[str, list[IndexRow]]]]:
        def compute():
            libs = []
            for lib in ("SysLib", "HomeLib"):
                table: dict[str, list[IndexRow]] = {}
                for row in self.index_rows(lib):
                    table.setdefault(row.name, []).append(row)
                libs.append((lib, table))
            return libs

        return self._memo("by_name", compute)

    # --- the oracle ------------------------------------------------------

    def closure(self, engines) -> "Reach":
        """Home files reached from all entries, and the unresolved references.

        engines=None reads every engine at once: a functor reaches each
        index entry, in search order, up to the first whose condition is
        `any`.  A home file that declares a built-in the search picks is
        reached too, so export vendors it (as in the README's worked
        example).
        """
        return self._memo(("closure", engines), lambda: _walk(self, engines, self.entries, True))

    def trace_reach(self, entry: FileDecl) -> "Reach":
        """What `trace` loads from one entry: built-ins are not entered."""
        return self._memo(("trace", entry.rel),
                          lambda: _walk(self, [TRACE_ENGINE], [entry], False))


@dataclass
class Reach:
    home: set[str]
    unresolved: set[tuple[str, str, object]]
    unresolved_lines: int  # one per unresolved requirement of each visited file


def _walk(world: World, engines, starts: list[FileDecl], follow_builtins: bool) -> Reach:
    libs = world._by_name()
    home_by_rel = {d.rel: d for d in world.home_files}
    home: set[str] = set()
    unresolved: set[tuple[str, str, object]] = set()
    lines = 0
    queue = [("entry:" + d.rel, d) for d in starts]
    seen = {key for key, _ in queue}

    def reach_home(rel: str):
        home.add(rel)
        key = "home:" + rel
        if key not in seen:
            seen.add(key)
            queue.append((key, home_by_rel[rel]))

    while queue:
        src, decl = queue.pop()
        for name in decl.requires:
            if engines is None:
                hits = []
                for lib, table in libs:
                    for row in table.get(name, ()):
                        hits.append((lib, row))
                        if row.cond == ALWAYS:
                            break
                    if hits and hits[-1][1].cond == ALWAYS:
                        break
                if not hits:
                    unresolved.add((src, name, None))
                for lib, row in hits:
                    if lib == "HomeLib":
                        reach_home(row.file)
                continue
            for engine in engines:
                hit = _first_match(libs, name, engine)
                if hit is None:
                    unresolved.add((src, name, engine))
                    lines += 1
                    continue
                lib, row = hit
                if lib == "HomeLib" and (follow_builtins or row.module != "built_in"):
                    reach_home(row.file)
        for guard, rel in decl.loads:
            if engines is None or any(cond_holds(guard, e) for e in engines):
                reach_home(rel)
    return Reach(home, unresolved, lines)


def _first_match(libs, name: str, engine):
    for lib, table in libs:
        for row in table.get(name, ()):
            if cond_holds(row.cond, engine):
                return lib, row
    return None


# --- the generator -----------------------------------------------------------


def _pick_cond(rng: random.Random) -> str:
    return rng.choices(DEFINE_CONDS, DEFINE_WEIGHTS)[0]


def _clauses(rng: random.Random, name: str, count: int, callees: list[str]) -> list[str]:
    out = []
    for k in range(count):
        form = k % 3
        if form == 0 or not callees:
            out.append(f"{name}(a{k}, [b{k}, c{k}]).")
        elif form == 1:
            q, r = rng.choice(callees), rng.choice(callees)
            out.append(f"{name}(X, Y) :- {q}(X, Z), {r}(Z, Y).")
        else:
            q = rng.choice(callees)
            out.append(f"{name}([H|T], [H|R]) :- {q}(T, R), {name}(T, R).")
    return out


def _require_line(names: list[str]) -> str:
    return ":- requires( [" + ", ".join(f"{n}/2" for n in names) + "] )."


def _library(rel: str) -> str:
    return f"library('{rel}')"


def generate(shape: Shape, seed: int) -> World:
    rng = random.Random(seed)
    files: dict[str, str] = {}

    # System library: module files, indexed on the fly (no Index.pl).
    sys_files = []
    for i in range(SYS_FILES):
        rel = f"sys{i:02d}"
        names = [f"s{i:02d}_{k}" for k in range(3)]
        decl = FileDecl(rel, [(ALWAYS, n) for n in names], module=f"sys{i:02d}")
        sys_files.append(decl)
        body = [f":- module( sys{i:02d}, [" + ", ".join(f"{n}/2" for n in names) + "] )."]
        for n in names:
            body += _clauses(rng, n, 2, [])
        files[f"SysLib/{rel}.pl"] = "\n".join(body) + "\n"
    sys_names = [n for d in sys_files for _, n in d.defines]

    # Home library: each file defines fresh names and, with some share,
    # redefines names of earlier files under other conditions.
    home_files: list[FileDecl] = []
    defined: list[str] = []
    for i in range(shape.home_files):
        decl = FileDecl(f"d{i // 100:02d}/m{i:04d}")
        taken: set[str] = set()
        for _ in range(shape.preds_per_file):
            if defined and rng.random() < shape.shared_name_share:
                name = rng.choice(defined)
                if name in taken:
                    continue
            else:
                name = f"p{len(defined)}"
                defined.append(name)
            taken.add(name)
            decl.defines.append((_pick_cond(rng), name))
        home_files.append(decl)
    missing = [f"x{k}" for k in range(max(4, len(defined) // 50))]

    def pick_required(count: int) -> list[str]:
        out: list[str] = []
        while len(out) < count:
            roll = rng.random()
            pool = missing if roll < 0.03 else sys_names if roll < 0.13 else defined
            name = rng.choice(pool)
            if name not in out:
                out.append(name)
        return out

    for decl in home_files:
        if shape.requires_per_file:
            decl.requires = pick_required(shape.requires_per_file)
        if shape.guarded_load_share and rng.random() < shape.guarded_load_share:
            decl.loads.append((_pick_cond(rng), rng.choice(home_files).rel))

    # Built-in declarations for some names under swi, as a compat file that
    # sorts before every dNN/ directory.
    builtin_names = sorted(
        set(rng.sample(defined, int(len(defined) * shape.builtin_share))),
        key=lambda n: int(n[1:]),
    )
    if builtin_names:
        compat = FileDecl("compat/swi_builtins", [("swi(_)", n) for n in builtin_names],
                          module="built_in")
        home_files.insert(0, compat)
        files["HomeLib/compat/swi_builtins.pl"] = (
            "% Predicates this engine ships natively.\n"
            ":- defines_module( built_in ).\n"
            ":- defines( swi(_), [" + ", ".join(f"{n}/2" for n in builtin_names) + "] ).\n"
        )

    for decl in home_files:
        if decl.module == "built_in":
            continue
        lines = [f"% home file {decl.rel}"]
        for cond, name in decl.defines:
            if cond == ALWAYS:
                lines.append(f":- defines( [{name}/2] ).")
            else:
                lines.append(f":- defines( {cond}, [{name}/2] ).")
        if decl.requires:
            lines.append(_require_line(decl.requires))
        for guard, rel in decl.loads:
            lines.append(f":- if_pl( {guard}, ensure_loaded( {_library(rel)} ) ).")
        callees = decl.requires or [n for _, n in decl.defines]
        for _, name in decl.defines:
            lines += _clauses(rng, name, shape.clauses_per_pred, callees)
        files[f"HomeLib/{decl.rel}.pl"] = "\n".join(lines) + "\n"

    entries = []
    for i in range(shape.entries):
        decl = FileDecl(f"e{i:03d}.pl")
        # Each entry needs one predicate no library defines.
        decl.requires = pick_required(shape.requires_per_entry - 1)
        decl.requires.insert(rng.randrange(shape.requires_per_entry), rng.choice([m for m in missing if m not in decl.requires]))
        lines = [f"% entry {i}"]
        drop = ":- library_directory( 'HomeLib' )."
        lines.append(drop)
        decl.pruned.append(drop)
        lines.append(_require_line(decl.requires))
        guarded = rng.choice(home_files).rel
        pruned = f":- if_pl( {PRUNABLE}, ensure_loaded( {_library(guarded)} ) )."
        lines.append(pruned)
        decl.loads.append((PRUNABLE, guarded))
        if shape.export_targets:
            decl.pruned.append(pruned)
        if i % 2 == 0:
            then_rel, else_rel = rng.choice(home_files).rel, rng.choice(home_files).rel
            line = (f":- if_pl( {PRUNABLE}, ensure_loaded( {_library(then_rel)} ), "
                    f"consult( {_library(else_rel)} ) ).")
            lines.append(line)
            decl.loads += [(PRUNABLE, then_rel), ("not(bprolog(_))", else_rel)]
            if shape.export_targets:
                decl.replaced.append((line, f":- consult( {_library(else_rel)} )."))
        calls = ", ".join(f"{n}(A{k}, A{k + 1})" for k, n in enumerate(decl.requires[:4]))
        lines.append(f"main_{i} :- {calls}.")
        files[f"proj/{decl.rel}"] = "\n".join(lines) + "\n"
        entries.append(decl)

    if shape.index_on_disk:
        world = World(shape, files, sys_files, home_files, entries)
        files[f"HomeLib/{INDEX_NAME}"] = world.index_text("HomeLib")
    return World(shape, files, sys_files, home_files, entries)


# --- expected outputs ----------------------------------------------------------


def expected_entry(world: World, decl: FileDecl) -> str:
    """An exported entry: local library declared on top, pruned lines gone."""
    text = world.files[f"proj/{decl.rel}"]
    for line in decl.pruned:
        text = text.replace(line + "\n", "", 1)
    for line, new in decl.replaced:
        text = text.replace(line, new, 1)
    return ":- library_directory( 'lib' ).\n" + text


def expected_export(world: World, engines) -> tuple[dict[str, str], int]:
    """Every file of the exported tree with its text, and the warning count."""
    reach = world.closure(engines)
    out = {decl.rel: expected_entry(world, decl) for decl in world.entries}
    for rel in reach.home:
        out[f"lib/{rel}.pl"] = world.files[f"HomeLib/{rel}.pl"]
    rows = [r for r in world.index_rows("HomeLib") if r.file in reach.home]
    if rows:
        out[f"lib/{INDEX_NAME}"] = world.index_text("HomeLib", rows)
    return out, len(reach.unresolved)


_DOT_NODE = re.compile(r'^  "home:([^"]+)";$', re.M)
_DOT_UNRESOLVED = re.compile(r'-> "unresolved"')
_TRACE_LOAD = re.compile(r": load home (\S+)")


def check_export(world: World, engines, dest: Path, stderr: str) -> list[str]:
    expected, warnings = expected_export(world, engines)
    problems = []
    actual = {
        p.relative_to(dest).as_posix(): p for p in dest.rglob("*") if p.is_file()
    }
    if set(actual) != set(expected):
        extra = sorted(set(actual) - set(expected))[:3]
        lost = sorted(set(expected) - set(actual))[:3]
        problems.append(
            f"export file set differs: {len(actual)} vs {len(expected)} expected, "
            f"extra {extra}, missing {lost}"
        )
    for rel in sorted(set(actual) & set(expected)):
        with open(actual[rel], encoding="utf-8", newline="") as handle:
            if handle.read() != expected[rel]:
                problems.append(f"exported {rel} differs from the expected text")
                break
    got = stderr.count("warning: unresolved ")
    if got != warnings:
        problems.append(f"export warned {got} unresolved, oracle expects {warnings}")
    return problems


def check_graph(world: World, stdout: str) -> list[str]:
    reach = world.closure(None)
    nodes = set(_DOT_NODE.findall(stdout))
    problems = []
    if nodes != reach.home:
        problems.append(f"graph has {len(nodes)} home nodes, oracle expects {len(reach.home)}")
    pairs = {(src, name) for src, name, _ in reach.unresolved}
    got = len(_DOT_UNRESOLVED.findall(stdout))
    if got != len(pairs):
        problems.append(f"graph has {got} unresolved edges, oracle expects {len(pairs)}")
    return problems


def check_trace(world: World, stdout: str) -> list[str]:
    reach = world.trace_reach(world.entries[0])
    loaded = set(_TRACE_LOAD.findall(stdout))
    problems = []
    if loaded != reach.home:
        problems.append(f"trace loads {len(loaded)} home files, oracle expects {len(reach.home)}")
    got = sum(1 for line in stdout.splitlines() if line.endswith(": unresolved"))
    if got != reach.unresolved_lines:
        problems.append(f"trace has {got} unresolved lines, oracle expects {reach.unresolved_lines}")
    return problems
