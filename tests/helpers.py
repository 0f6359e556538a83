"""Shared test machinery: seeded generators and independent oracles.

The oracles here are deliberately written against documented behaviour,
not against the implementation: a structural standard-order comparator for
version chains, a lexicographic version compare, a brute-force condition
evaluator, and an exhaustive reachability enumerator for closures.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from exlibris import directives as directives_module
from exlibris.directives import Declaration, extract
from exlibris.engines import (
    ALWAYS,
    Always,
    Constrained,
    Disjunction,
    EnginePattern,
    IfPls,
    Negation,
    PlId,
    parse_if_pls,
    render_cond,
)
from exlibris.errors import ExlibrisError
from exlibris.index import IndexEntry, LibraryIndex, _read_rows
from exlibris import terms as terms_module
from exlibris.terms import (
    Atom,
    Compound,
    Integer,
    SourceTerm,
    Term,
    Variable,
    make_list,
    parse_statements,
    read_term,
    split_statements,
)

SWI = PlId("swi", (5, 0, 7))
SICSTUS = PlId("sicstus", (3, 9, 0))

# Six concrete engines covering name clashes, close versions, and a
# two-component version for prefix edge cases.
ENGINE_UNIVERSE = (
    PlId("swi", (5, 0, 5)),
    PlId("swi", (5, 0, 7)),
    PlId("sicstus", (3, 8, 5)),
    PlId("sicstus", (3, 9, 0)),
    PlId("yap", (4, 3, 23)),
    PlId("yap", (4, 3)),
)

ENGINE_NAMES = ("swi", "sicstus", "yap", "other")


# --- whole-text readers --------------------------------------------------------


def read_terms(text: str, path: str | None = None) -> list[SourceTerm]:
    """Every clause and directive of a file, in file order.  Raises
    TermSyntaxError as `split_statements` does, then as `parse_statements`."""
    return parse_statements(text, split_statements(text, path), path)


def read_index(text: str, path: str | None = None) -> tuple[IndexEntry, ...]:
    """The entries of an index text, in file order, as `parse_index` reads them."""
    return LibraryIndex(Path(), rows=_read_rows(text, path)).entries


# --- standard term order, used as the version-comparison oracle ------------

_ORDER_RANK = {Variable: 0, Integer: 1, Atom: 2, Compound: 3}


def term_order(a: Term, b: Term) -> int:
    """Standard order of terms: Var < Integer < Atom < Compound; compounds
    compare by arity, then name, then arguments left to right."""
    ra, rb = _ORDER_RANK[type(a)], _ORDER_RANK[type(b)]
    if ra != rb:
        return -1 if ra < rb else 1
    if isinstance(a, Variable):
        return _cmp(a.name, b.name)
    if isinstance(a, Integer):
        return _cmp(a.value, b.value)
    if isinstance(a, Atom):
        return _cmp(a.name, b.name)
    if a.arity != b.arity:
        return -1 if a.arity < b.arity else 1
    if a.name != b.name:
        return _cmp(a.name, b.name)
    for x, y in zip(a.args, b.args):
        c = term_order(x, y)
        if c != 0:
            return c
    return 0


def _cmp(a, b) -> int:
    return (a > b) - (a < b)


def version_chain(version) -> Term:
    """The right-nested `:` chain a version decodes from."""
    parts = [Integer(v) for v in version]
    term = parts[-1]
    for part in reversed(parts[:-1]):
        term = Compound(":", (part, term))
    return term


def lex_compare(a, b) -> int:
    """Independent lexicographic compare with the prefix-sorts-first rule."""
    for x, y in zip(a, b):
        if x != y:
            return -1 if x < y else 1
    if len(a) == len(b):
        return 0
    return -1 if len(a) < len(b) else 1


# --- brute-force condition evaluation ---------------------------------------


def brute_matches(cond: IfPls, engine: PlId) -> bool:
    """Condition semantics transcribed directly from their documentation."""
    if isinstance(cond, Always):
        return True
    if isinstance(cond, EnginePattern):
        if engine.name != cond.name:
            return False
        for pos, want in enumerate(cond.pattern):
            if want is None:
                continue
            have = engine.version[pos] if pos < len(engine.version) else None
            if have != want:
                return False
        return True
    if isinstance(cond, Negation):
        return not brute_matches(cond.inner, engine)
    if isinstance(cond, Disjunction):
        return any(brute_matches(item, engine) for item in cond.items)
    if isinstance(cond, Constrained):
        if engine.name != cond.name:
            return False
        for version, op in cond.conds:
            c = lex_compare(engine.version, version)
            ok = {
                "=": c == 0,
                "\\=": c != 0,
                "<": c < 0,
                "=<": c <= 0,
                ">": c > 0,
                ">=": c >= 0,
            }[op]
            if not ok:
                return False
        return True
    raise TypeError(cond)


def syntactic_verdict(cond: IfPls) -> bool | None:
    """The documented all-engines rule, judged on the condition's form alone:
    True when it holds for every engine, False when for none, else None."""

    def always(c: IfPls) -> bool:
        if isinstance(c, Always):
            return True
        if isinstance(c, Disjunction):
            return any(always(item) for item in c.items)
        return isinstance(c, Negation) and never(c.inner)

    def never(c: IfPls) -> bool:
        if isinstance(c, Negation):
            return always(c.inner)
        return isinstance(c, Disjunction) and all(never(item) for item in c.items)

    return True if always(cond) else False if never(cond) else None


# --- seeded generators -------------------------------------------------------

ATOM_POOL = (
    "a",
    "b",
    "foo",
    "bar_1",
    "not",
    "all",
    "[]",
    "lists",
    "hello world",
    "it's",
    "a\\b",
    "Upper",
    "123",
    "meta/maplist",
    "=",
    ">=",
    ",",
)

VAR_POOL = ("X", "Y", "_", "_G1", "Acc")

FUNCTOR_POOL = ("f", "g", "pair", "not", "/", ":", ",", ";", ":-", "-", "p")


def gen_term(rng: random.Random, depth: int) -> Term:
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        kind = rng.randrange(3)
        if kind == 0:
            return Atom(rng.choice(ATOM_POOL))
        if kind == 1:
            return Integer(rng.choice((-17, -1, 0, 1, 2, 9, 30, 1200)))
        return Variable(rng.choice(VAR_POOL))
    if roll < 0.55:
        items = [gen_term(rng, depth - 1) for _ in range(rng.randrange(0, 4))]
        if items and rng.random() < 0.3:
            return make_list(items[:-1], items[-1])
        return make_list(items)
    name = rng.choice(FUNCTOR_POOL)
    arity = rng.randrange(1, 4)
    return Compound(name, tuple(gen_term(rng, depth - 1) for _ in range(arity)))


def gen_version(rng: random.Random, max_len: int = 4, max_component: int = 30):
    return tuple(
        rng.randrange(0, max_component + 1) for _ in range(rng.randrange(1, max_len + 1))
    )


def gen_cond(rng: random.Random, depth: int) -> tuple[str, IfPls]:
    """A condition as source text together with its expected decoding."""
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if rng.random() < 0.5:
            return rng.choice(["all", "any"]), ALWAYS
        name = rng.choice(ENGINE_NAMES)
        pattern = tuple(
            None if rng.random() < 0.4 else rng.choice((0, 3, 4, 5, 7, 8, 9, 23, 5))
            for _ in range(rng.randrange(1, 4))
        )
        chain = ":".join("_" if c is None else str(c) for c in pattern)
        return f"{name}({chain})", EnginePattern(name, pattern)
    if roll < 0.45:
        text, inner = gen_cond(rng, depth - 1)
        return f"not({text})", Negation(inner)
    if roll < 0.65:
        name = rng.choice(ENGINE_NAMES)
        pairs = []
        texts = []
        for _ in range(rng.randrange(1, 3)):
            version = gen_version(rng, max_len=3, max_component=9)
            op = rng.choice(("=", "\\=", "<", "=<", ">", ">="))
            pairs.append((version, op))
            texts.append(f"({':'.join(str(v) for v in version)},{op})")
        return f"({name},[{','.join(texts)}])", Constrained(name, tuple(pairs))
    parts = [gen_cond(rng, depth - 1) for _ in range(rng.randrange(1, 4))]
    return (
        f"[{','.join(text for text, _ in parts)}]",
        Disjunction(tuple(cond for _, cond in parts)),
    )


def gen_engines(rng: random.Random, max_engines: int = 4) -> list[PlId]:
    count = rng.randrange(1, max_engines + 1)
    picked = rng.sample(list(ENGINE_UNIVERSE), count)
    return picked


# --- miniature dependency worlds ---------------------------------------------


@dataclass
class World:
    """A miniature on-disk scenario: libraries, entries, target engines."""

    files: dict[str, str] = field(default_factory=dict)
    syslibs: list[str] = field(default_factory=list)
    homelibs: list[str] = field(default_factory=list)
    loclib: str | None = None
    entries: list[str] = field(default_factory=list)
    engines: list[PlId] = field(default_factory=list)

    def materialize(self, root: Path) -> None:
        for rel, text in self.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


_WORLD_FUNCTORS = (("f", 1), ("g", 2), ("h", 0), ("k", 3))


def gen_world(rng: random.Random) -> World:
    world = World(engines=gen_engines(rng))
    libs = [("sys0", "sys")]
    if rng.random() < 0.4:
        libs.append(("sys1", "sys"))
    libs.append(("home0", "home"))
    if rng.random() < 0.5:
        libs.append(("home1", "home"))
    if rng.random() < 0.7:
        libs.append(("loc", "loc"))

    lib_files: dict[str, list[str]] = {}
    for lib_name, role in libs:
        if role == "sys":
            world.syslibs.append(lib_name)
        elif role == "home":
            world.homelibs.append(lib_name)
        else:
            world.loclib = lib_name
        index_lines = []
        files = []
        for i in range(rng.randrange(1, 4)):
            rel = f"m{i}" if rng.random() < 0.6 else f"sub/m{i}"
            files.append(rel)
            body = []
            for name, arity in rng.sample(_WORLD_FUNCTORS, rng.randrange(0, 3)):
                cond_text, _ = gen_cond(rng, 1)
                module = "built_in" if rng.random() < 0.2 else "user"
                index_lines.append(
                    f"index( {name}, {arity}, {cond_text}, {module}, '{rel}' ).\n"
                )
            if rng.random() < 0.4:
                name, arity = rng.choice(_WORLD_FUNCTORS)
                body.append(f":- requires( [{name}/{arity}] ).\n")
            if rng.random() < 0.2 and files[:-1]:
                import posixpath

                target = rng.choice(files[:-1])
                relref = posixpath.relpath(target, posixpath.dirname(rel) or ".")
                body.append(f":- may_load( '{relref}' ).\n")
            body.append(f"{rel.split('/')[-1]}_stub.\n")
            world.files[f"{lib_name}/{rel}.pl"] = "".join(body)
        if rng.random() < 0.15:
            name, arity = rng.choice(_WORLD_FUNCTORS)
            cond_text, _ = gen_cond(rng, 1)
            index_lines.append(
                f"index( {name}, {arity}, {cond_text}, user, 'ghost' ).\n"
            )
        world.files[f"{lib_name}/Index.pl"] = "".join(index_lines)
        lib_files[lib_name] = files

    # project entries, with occasional sibling files loaded by relative path
    sibling = None
    if rng.random() < 0.5:
        sibling = "proj/extra"
        body = []
        if rng.random() < 0.6:
            name, arity = rng.choice(_WORLD_FUNCTORS)
            body.append(f":- requires( [{name}/{arity}] ).\n")
        body.append("extra_stub.\n")
        world.files[f"{sibling}.pl"] = "".join(body)
    for i in range(rng.randrange(1, 3)):
        rel = f"proj/entry{i}.pl"
        body = []
        wanted = rng.sample(_WORLD_FUNCTORS, rng.randrange(0, 3))
        if wanted:
            functors = ",".join(f"{n}/{a}" for n, a in wanted)
            body.append(f":- requires( [{functors}] ).\n")
        if sibling and rng.random() < 0.6:
            body.append(":- may_load( extra ).\n")
        if rng.random() < 0.5:
            cond_text, _ = gen_cond(rng, 1)
            target = rng.choice(lib_files[rng.choice([n for n, _ in libs])])
            call = f"ensure_loaded(library('{target}'))"
            if rng.random() < 0.4:
                body.append(f":- if_pl( {cond_text}, {call}, true ).\n")
            else:
                body.append(f":- if_pl( {cond_text}, {call} ).\n")
        body.append(f"entry{i}_stub.\n")
        world.files[rel] = "".join(body)
        world.entries.append(rel)
    return world


# --- exhaustive closure oracle ----------------------------------------------


def oracle_closure(root: Path, world: World, libs, targets):
    """Reachability by exhaustive enumeration over every (file, engine) pair.

    Re-derives everything from first principles: its own index lookup with
    brute_matches, its own file-ref resolution, and a fixpoint loop instead
    of a worklist.  Only file parsing is shared with the implementation.
    """
    from exlibris.directives import Load, MayLoad, Requirement, extract

    ordered_libs = ([libs.loclib] if libs.loclib else []) + list(libs.syslibs) + list(
        libs.homelibs
    )

    def lib_name(lib):
        """`home` for the first home library, `home2`, `home3`... for later ones."""
        n = [other.root for other in ordered_libs if other.kind == lib.kind].index(lib.root) + 1
        return lib.kind if n == 1 else f"{lib.kind}{n}"

    def naive_resolve(functor, engine):
        for lib in ordered_libs:
            for entry in lib.index.entries:
                if entry.functor != functor:
                    continue
                if not brute_matches(entry.cond, engine):
                    continue
                path = lib.root / (entry.file + ".pl")
                if not path.is_file():
                    return ("unresolved", None, None)
                if entry.module == "built_in":
                    return ("built-in", lib, entry.file)
                return ("load", lib, entry.file)
        return ("unresolved", None, None)

    def naive_ref(ref, base_dir):
        import os

        if ref.kind == "library":
            for lib in ordered_libs:
                path = lib.root / (ref.path + ".pl")
                if path.is_file():
                    return lib, path, ref.path
            return None
        raw = Path(os.path.abspath(base_dir / ref.path))
        for candidate in ([raw] if raw.suffix else []) + [
            raw.parent / (raw.name + ".pl")
        ]:
            if candidate.is_file():
                for lib in ordered_libs:
                    if candidate.is_relative_to(lib.root):
                        rel = candidate.relative_to(lib.root).with_suffix("").as_posix()
                        return lib, candidate, rel
                return None, candidate, None
        return None

    import os

    home, local, project, unresolved = set(), set(), set(), set()
    resolution = {}
    reached: set[str] = {os.path.abspath(root / e) for e in world.entries}
    display = {os.path.abspath(root / e): os.path.abspath(root / e) for e in world.entries}

    changed = True
    while changed:
        changed = False
        for path_str in sorted(reached):
            path = Path(path_str)
            facts = extract(read_terms(path.read_text(encoding="utf-8"), path_str))
            src = display[path_str]

            def note(lib, file_rel, abs_path):
                nonlocal changed
                key = str(abs_path)
                if lib is None:
                    project.add(key)
                elif lib.kind == "home":
                    home.add((str(lib.root), file_rel))
                elif lib.kind == "local":
                    local.add(file_rel)
                else:
                    return  # system: recorded but never walked
                if key not in reached:
                    reached.add(key)
                    display[key] = (
                        f"{lib_name(lib)}:{file_rel}" if lib is not None else key
                    )
                    changed = True

            for req in (d for d in facts.deps if isinstance(d, Requirement)):
                for engine in targets:
                    verdict, lib, file_rel = naive_resolve(req.functor, engine)
                    resolution[(req.functor, engine)] = (verdict, file_rel)
                    if verdict == "unresolved":
                        unresolved.add((src, str(req.functor), engine))
                    else:
                        note(lib, file_rel, lib.root / (file_rel + ".pl"))
            for load in (d for d in facts.deps if isinstance(d, Load)):
                if not any(brute_matches(load.guard, e) for e in targets):
                    continue
                hit = naive_ref(load.ref, path.parent)
                if hit is None:
                    unresolved.add((src, str(load.ref), None))
                else:
                    note(hit[0], hit[2], hit[1])
            for item in (d for d in facts.deps if isinstance(d, MayLoad)):
                hit = naive_ref(item.ref, path.parent)
                if hit is None:
                    unresolved.add((src, str(item.ref), None))
                else:
                    note(hit[0], hit[2], hit[1])
    return home, local, project, unresolved, resolution


# --- declaration files ---------------------------------------------------------


def parsed_directives(
    text: str, path: str | None = None, skip=(), conds=None, clauses=None
) -> list[SourceTerm]:
    """The statements `directives.read_directives` keeps, each parsed: the
    reference its declaration pattern must agree with.  It skips a `:-`
    statement by the reader's own rule, and given a `clauses` list, appends
    each statement not starting with `:-` to it; `conds` it takes only to
    stand in for the reader."""
    statements = split_statements(text, path)
    if clauses is not None:
        clauses.extend(s for s in statements if s[2] != ":-")
    kept = [
        (start, end, first) for start, end, first in statements
        if first == "library_directory" or first == ":-" and not (
            text[start] == ":" and terms_module._TOKEN.match(text, start + 2)["word"] in skip
        )
    ]
    return parse_statements(text, kept, path)


_DECLARATION = re.compile(directives_module._DECLARATION)


def rebuilt(text: str, statements: list[SourceTerm]) -> list[SourceTerm]:
    """The statements `read_directives` gives for `text`, each `Declaration`
    it decoded from its match rebuilt as the parser's term: its functors as
    a list of `Name/Arity` terms, after the condition or module name its
    statement writes, if any, read back from the text once checked to be
    the one the declaration holds."""
    out = []
    for statement in statements:
        declared = statement.term
        if isinstance(declared, Declaration):
            functors = [Compound("/", (Atom(f.name), Integer(f.arity))) for f in declared.functors]
            first = _DECLARATION.match(text, statement.span.start)[2]
            if first is None:  # a `requires/1` or a `defines/1`
                assert declared.arg == ALWAYS, declared
            elif declared.name == "module":
                assert Atom(declared.arg) == read_term(first), declared
            else:
                assert declared.arg == parse_if_pls(read_term(first)), declared
            args = [read_term(first)] if first is not None else []
            term = Compound(":-", (Compound(declared.name, (*args, make_list(functors))),))
            statement = SourceTerm(term, statement.span)
        out.append(statement)
    return out


def read_outcome(read, text: str, path: str) -> tuple:
    """The statements `read` gives for a file, each declaration it decoded
    rebuilt as the parser's term (`rebuilt`), and their facts, or its error."""
    try:
        statements = read(text, path)
        return rebuilt(text, statements), extract(statements, path)
    except ExlibrisError as exc:
        return "error", str(exc)


# Item names: words the declaration pattern takes, and names it leaves to
# the parser (operator atoms, quoted atoms, a variable).
DECLARED_NAMES = ("p", "q_1", "r2", "p", "q_1", "ä", "not", "dynamic", "'q x'", "Upper")
MODULE_NAMES = ("m", "lists_ext", "m", "not", "'m x'", "M", "[]")
# Ways to write a declaration `:- Name(Args).`: as generated libraries do,
# compactly, and spellings the pattern leaves to the parser.
DECLARATION_SPELLINGS = (
    ":- {0}( {1} ).",
    ":- {0}({1}).",
    ":- {0}( {1}).",
    ":- {0}(  {1} ).",
    ":- {0}( {1} ) .",
    ":-{0}( {1} ).",
    ":- /* c */ {0}({1}).",
    ":- '{0}'( {1} ).",
)


def gen_declaration(rng: random.Random) -> str:
    """A `:- defines`, `:- module` or `:- requires` statement, most often
    spelled as the declaration pattern takes it, else in one of the ways it
    leaves to the parser, with a condition or name that may be written
    otherwise, or a `requires/2`, which the parser reads."""
    items = []
    for _ in range(rng.randrange(0, 4)):
        name = rng.choice(DECLARED_NAMES) if rng.random() < 0.3 else rng.choice(DECLARED_NAMES[:4])
        items.append(f"{name}{rng.choice(['/', '/', '//'])}{rng.choice([0, 1, 2, 12])}")
    glue = rng.choice([", ", ", ", ",", ",\n    ", ", /* c */ "])
    listed = f"[{glue.join(items)}]"
    roll = rng.random()
    if roll < 0.2:
        name, args = "defines", listed
    elif roll < 0.55:
        cond_text, cond = gen_cond(rng, 2)
        canonical = render_cond(cond, 999)
        # unbracketed, a pair condition is two arguments, and any other misreads
        written = rng.choice([cond_text, canonical, canonical, canonical.removeprefix("(")[:-1]])
        name, args = ("requires" if roll < 0.25 else "defines"), f"{written}, {listed}"
    elif roll < 0.75:
        name, args = "module", f"{rng.choice(MODULE_NAMES)}, {listed}"
    else:
        name, args = "requires", listed
    spelling = 0 if rng.random() < 0.4 else rng.randrange(len(DECLARATION_SPELLINGS))
    return DECLARATION_SPELLINGS[spelling].format(name, args)


OTHER_STATEMENTS = (
    "p(X) :- q(X), r(X, 1).",
    "q(a, [b, c]).",
    ":- requires( [p/1, q/2] ).",
    ":- defines_module( m ).",
    ":- dynamic seen/1.",
    "library_directory( 'lib' ).",
    ":- module(m).",
    ":- defines( swi(_), [p/1] ) /* c */ .",
)


def gen_declarations(rng: random.Random) -> str:
    """A library file whose declarations interleave with other statements."""
    statements = [
        gen_declaration(rng) if rng.random() < 0.6 else rng.choice(OTHER_STATEMENTS)
        for _ in range(rng.randrange(1, 8))
    ]
    return "".join(f"{statement}\n" for statement in statements)
