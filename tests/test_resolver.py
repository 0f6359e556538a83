"""Per-engine resolution, closure, and trace, checked against oracles."""

from __future__ import annotations

import errno
import random
import tempfile
from collections import Counter
from pathlib import Path, PurePath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHAIN_LENGTH, build_worked_example
from helpers import ENGINE_UNIVERSE, SICSTUS, SWI, World, gen_world, oracle_closure
import exlibris.fsio as fsio_module
import exlibris.resolve as resolve_module
from exlibris.directives import FunctorRef
from exlibris.engines import ALWAYS, parse_if_pls
from exlibris.index import IndexEntry, LibraryIndex
from exlibris.resolve import (
    BuiltIn,
    Library,
    LibrarySet,
    LoadFile,
    Unresolved,
    closure,
    resolve_functor,
    trace,
)
from exlibris.terms import atom_text, read_term

SEEDS = st.integers(min_value=0, max_value=2**32)

# Hand-evaluated before the resolver existed, directly from the three
# fixture indexes: search order local -> system -> home, first entry whose
# condition matches the engine wins, module built_in means no load.
RESOLUTION_TABLE = {
    ("member/2", "swi"): ("built-in", "home", "compat/swi/built_ins"),
    ("member/2", "sicstus"): ("load", "system", "lists"),
    ("maplist/3", "swi"): ("load", "local", "meta/maplist"),
    ("maplist/3", "sicstus"): ("load", "local", "meta/maplist"),
    ("flatten/2", "swi"): ("built-in", "home", "compat/swi/built_ins"),
    ("flatten/2", "sicstus"): ("load", "home", "list/flatten"),
}

TRACE_SWI = (
    "member/2: built-in (home compat/swi/built_ins)\n"
    "maplist/3: load local meta/maplist\n"
    "flatten/2: built-in (home compat/swi/built_ins)\n"
)

TRACE_SICSTUS = (
    "member/2: load system lists\n"
    "maplist/3: load local meta/maplist\n"
    "flatten/2: load home list/flatten\n"
)


def worked_libs(root: Path) -> LibrarySet:
    return LibrarySet.build(
        syslibs=[root / "SysLib"],
        homelibs=[root / "HomeLib"],
        loclib=root / "proj" / "lib",
    )


def counting_probes(monkeypatch) -> Counter:
    """Count the `is_file` probes `exlibris.resolve` makes, per path."""
    probes = Counter()
    is_file = resolve_module.is_file
    monkeypatch.setattr(
        resolve_module, "is_file", lambda path: probes.update([path]) or is_file(path)
    )
    return probes


def simplify(target):
    if isinstance(target, Unresolved):
        return ("unresolved", None)
    if isinstance(target, BuiltIn):
        return ("built-in", target.file)
    return ("load", target.file)


class TestResolveFunctor:
    @pytest.mark.parametrize("key,expected", sorted(RESOLUTION_TABLE.items()))
    def test_hand_table(self, tmp_path, key, expected):
        build_worked_example(tmp_path)
        libs = worked_libs(tmp_path)
        functor_text, engine_name = key
        name, arity = functor_text.split("/")
        engine = SWI if engine_name == "swi" else SICSTUS
        target = resolve_functor(FunctorRef(name, int(arity)), engine, libs)
        verdict, kind, file = expected
        if verdict == "built-in":
            assert isinstance(target, BuiltIn)
        else:
            assert isinstance(target, LoadFile)
        assert (target.kind, target.file) == (kind, file)

    def test_unknown_functor_is_unresolved(self, tmp_path):
        build_worked_example(tmp_path)
        libs = worked_libs(tmp_path)
        assert isinstance(
            resolve_functor(FunctorRef("nonsense", 7), SWI, libs), Unresolved
        )

    def test_matching_entry_with_missing_file_is_unresolved(self, tmp_path):
        (tmp_path / "lib").mkdir()
        (tmp_path / "lib" / "Index.pl").write_text(
            "index( f, 1, any, user, ghost ).\n", encoding="utf-8"
        )
        libs = LibrarySet.build(syslibs=[tmp_path / "lib"])
        assert isinstance(resolve_functor(FunctorRef("f", 1), SWI, libs), Unresolved)


class TestClosure:
    def test_both_targets_vendor_flatten_and_built_ins(self, tmp_path):
        build_worked_example(tmp_path)
        libs = worked_libs(tmp_path)
        clo = closure([tmp_path / "proj" / "file1.pl"], libs, [SWI, SICSTUS])
        home_root = str(libs.homelibs[0].root)
        assert clo.home_files == {
            (home_root, "list/flatten"),
            (home_root, "compat/swi/built_ins"),
        }
        assert "meta/maplist" in clo.local_files
        assert clo.unresolved == ()

    def test_source_store_is_not_a_parameter_and_not_printed(self, tmp_path):
        build_worked_example(tmp_path)
        libs = worked_libs(tmp_path)
        entry = tmp_path / "proj" / "file1.pl"
        closure([entry], libs, [SWI])
        text = entry.read_text(encoding="utf-8")
        assert libs.sources[str(entry)][0] == text
        assert text not in repr(libs)
        with pytest.raises(TypeError):
            LibrarySet(sources={})

    def test_single_target_narrows_home_files(self, tmp_path):
        build_worked_example(tmp_path)
        libs = worked_libs(tmp_path)
        clo = closure([tmp_path / "proj" / "file1.pl"], libs, [SICSTUS])
        home_root = str(libs.homelibs[0].root)
        assert clo.home_files == {(home_root, "list/flatten")}

    def test_all_engines_covers_both(self, tmp_path):
        build_worked_example(tmp_path)
        libs = worked_libs(tmp_path)
        clo = closure([tmp_path / "proj" / "file1.pl"], libs, None)
        assert {rel for _, rel in clo.home_files} == {
            "list/flatten",
            "compat/swi/built_ins",
        }

    def test_entry_without_directives(self, tmp_path):
        build_worked_example(tmp_path)
        empty = tmp_path / "proj" / "empty.pl"
        empty.write_text("p.\n", encoding="utf-8")
        libs = worked_libs(tmp_path)
        clo = closure([empty], libs, [SWI])
        assert clo.home_files == frozenset()
        assert clo.unresolved == ()

    def test_unresolved_accumulates_without_failing(self, tmp_path):
        build_worked_example(tmp_path)
        entry = tmp_path / "proj" / "needy.pl"
        entry.write_text(":- requires([nothing/9]).\n", encoding="utf-8")
        libs = worked_libs(tmp_path)
        clo = closure([entry], libs, [SWI])
        assert [(u.subject, u.engine) for u in clo.unresolved] == [("nothing/9", SWI)]

    def test_vendored_files_are_walked_transitively(self, tmp_path):
        build_worked_example(tmp_path)
        # make the home flatten file itself require member/2
        flatten = tmp_path / "HomeLib" / "list" / "flatten.pl"
        flatten.write_text(
            ":- defines( not(swi(_)), [flatten/2] ).\n"
            ":- requires( [member/2] ).\n"
            "flatten([], []).\n",
            encoding="utf-8",
        )
        libs = worked_libs(tmp_path)
        clo = closure([tmp_path / "proj" / "file1.pl"], libs, [SICSTUS])
        assert (FunctorRef("member", 2), SICSTUS) in clo.resolution

    def test_relative_loads_reach_project_files(self, tmp_path):
        build_worked_example(tmp_path)
        entry = tmp_path / "proj" / "main.pl"
        entry.write_text(":- may_load(extra).\n", encoding="utf-8")
        extra = tmp_path / "proj" / "extra.pl"
        extra.write_text(":- requires([flatten/2]).\n", encoding="utf-8")
        libs = worked_libs(tmp_path)
        clo = closure([entry], libs, [SICSTUS])
        assert str(extra) in clo.project_files
        home_root = str(libs.homelibs[0].root)
        assert (home_root, "list/flatten") in clo.home_files

    def test_dangling_file_ref_reported(self, tmp_path):
        build_worked_example(tmp_path)
        entry = tmp_path / "proj" / "dangling.pl"
        entry.write_text(":- may_load(ghost).\n", encoding="utf-8")
        libs = worked_libs(tmp_path)
        clo = closure([entry], libs, [SWI])
        assert [(u.subject, u.engine) for u in clo.unresolved] == [("ghost", None)]

    def test_guard_failing_for_all_targets_not_followed(self, tmp_path):
        build_worked_example(tmp_path)
        entry = tmp_path / "proj" / "guarded.pl"
        entry.write_text(
            ":- if_pl(yap(_), ensure_loaded(library('list/flatten'))).\n",
            encoding="utf-8",
        )
        libs = worked_libs(tmp_path)
        clo = closure([entry], libs, [SWI])
        assert clo.home_files == frozenset()


class TestTrace:
    def test_swi_narrative(self, tmp_path):
        build_worked_example(tmp_path)
        libs = worked_libs(tmp_path)
        assert trace(tmp_path / "proj" / "file1.pl", SWI, libs) == TRACE_SWI

    def test_sicstus_narrative(self, tmp_path):
        build_worked_example(tmp_path)
        libs = worked_libs(tmp_path)
        assert trace(tmp_path / "proj" / "file1.pl", SICSTUS, libs) == TRACE_SICSTUS

    def test_self_loading_file_visited_once(self, tmp_path):
        entry = tmp_path / "self.pl"
        entry.write_text(":- may_load(self).\n", encoding="utf-8")
        libs = LibrarySet.build()
        report = trace(entry, SWI, libs)
        assert report == "self: load file self.pl (already loaded)\n"

    def test_guard_skip_line(self, tmp_path):
        build_worked_example(tmp_path)
        entry = tmp_path / "proj" / "guarded.pl"
        entry.write_text(":- if_pl(yap(_), consult(x)).\n", encoding="utf-8")
        libs = worked_libs(tmp_path)
        assert trace(entry, SWI, libs) == "x: skip (guard yap(_) failed)\n"

    def test_recursion_into_loaded_library_files_is_indented(self, tmp_path):
        (tmp_path / "home").mkdir()
        (tmp_path / "home" / "Index.pl").write_text(
            "index( f, 1, any, user, m0 ).\n", encoding="utf-8"
        )
        (tmp_path / "home" / "m0.pl").write_text(
            ":- may_load(m1).\nf(_).\n", encoding="utf-8"
        )
        (tmp_path / "home" / "m1.pl").write_text("m1_stub.\n", encoding="utf-8")
        entry = tmp_path / "entry.pl"
        entry.write_text(":- requires([f/1]).\n", encoding="utf-8")
        libs = LibrarySet.build(homelibs=[tmp_path / "home"])
        assert trace(entry, SWI, libs) == (
            "f/1: load home m0\n"
            "  m1: load home m1\n"
        )

    def test_byte_stable_across_runs(self, tmp_path):
        build_worked_example(tmp_path)
        libs = worked_libs(tmp_path)
        first = trace(tmp_path / "proj" / "file1.pl", SWI, libs)
        second = trace(tmp_path / "proj" / "file1.pl", SWI, worked_libs(tmp_path))
        assert first == second


class TestRelativeLoads:
    """A relative load gets its extension before any normalising, as an
    index field does; only the directory part is normalised.  A name whose
    last segment has a suffix is first tried as written."""

    @pytest.fixture
    def proj(self, tmp_path):
        for rel in (
            "proj.pl", "proj/sub.pl", "proj/sub/.pl", "proj/a.pl", "proj/g.txt", "other/x.pl",
            "top.pl",
        ):
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text("p.\n", encoding="utf-8")
        return tmp_path / "proj"

    def trace_of(self, proj, name):
        (proj / "m.pl").write_text(f":- ensure_loaded({atom_text(name)}).\n", encoding="utf-8")
        return trace(proj / "m.pl", SWI, LibrarySet.build())

    @pytest.mark.parametrize("name", ["", "."])
    def test_empty_or_dot_names_no_file_outside(self, proj, name):
        assert self.trace_of(proj, name) == f"{name}: missing\n"

    def test_trailing_slash_names_the_dotfile_inside(self, proj):
        assert self.trace_of(proj, "sub/") == "sub/: load file sub/.pl\n"

    @pytest.mark.parametrize("name", ["a.pl/", "a.pl/."])
    def test_a_suffix_before_a_trailing_segment_names_no_file(self, proj, name):
        assert self.trace_of(proj, name) == f"{name}: missing\n"

    @pytest.mark.parametrize("name", ["a.pl", "./a.pl", "sub/../a.pl", "g.txt"])
    def test_a_name_with_a_suffix_loads_as_written(self, proj, name):
        assert self.trace_of(proj, name) == f"{name}: load file {Path(name).name}\n"

    def test_absolute_and_parent_names_are_unchanged(self, proj):
        top = str(proj.parent / "top")
        assert self.trace_of(proj, top) == f"{top}: load file ../top.pl\n"
        assert self.trace_of(proj, "../other/x") == "../other/x: load file ../other/x.pl\n"


class TestDeepChain:
    def test_trace_follows_the_whole_chain(self, load_chain):
        lines = trace(load_chain, SWI, LibrarySet.build()).splitlines()
        last = CHAIN_LENGTH - 1
        assert len(lines) == last
        assert lines[-1] == "  " * (last - 1) + f"f{last}: load file f{last}.pl"

    def test_closure_reaches_every_file(self, load_chain):
        clo = closure([load_chain], LibrarySet.build(), [SWI])
        assert len(clo.project_files) == CHAIN_LENGTH - 1
        assert clo.unresolved == ()


def _world_libs(root: Path, world) -> LibrarySet:
    return LibrarySet.build(
        syslibs=[root / name for name in world.syslibs],
        homelibs=[root / name for name in world.homelibs],
        loclib=root / world.loclib if world.loclib else None,
    )


def _closure_key(clo):
    return (
        clo.home_files,
        clo.local_files,
        clo.project_files,
        {(u.source, u.subject, u.engine) for u in clo.unresolved},
        {k: tuple(simplify(t) for t in v) for k, v in clo.resolution.items()},
    )


class TestClosureProperties:
    @settings(max_examples=60, deadline=None)
    @given(SEEDS)
    def test_matches_exhaustive_enumeration(self, seed):
        world = gen_world(random.Random(seed))
        with tempfile.TemporaryDirectory() as raw:
            root = Path(raw)
            world.materialize(root)
            libs = _world_libs(root, world)
            entries = [root / e for e in world.entries]
            clo = closure(entries, libs, world.engines)
            home, local, project, unresolved, resolution = oracle_closure(
                root, world, libs, world.engines
            )
            assert clo.home_files == home
            assert clo.local_files == local
            assert clo.project_files == project
            assert {(u.source, u.subject, u.engine) for u in clo.unresolved} == unresolved
            simplified = {
                key: simplify(targets[0]) for key, targets in clo.resolution.items()
            }
            assert simplified == resolution

    @settings(max_examples=40, deadline=None)
    @given(SEEDS)
    def test_deterministic_under_entry_reordering(self, seed):
        world = gen_world(random.Random(seed))
        with tempfile.TemporaryDirectory() as raw:
            root = Path(raw)
            world.materialize(root)
            libs = _world_libs(root, world)
            entries = [root / e for e in world.entries]
            forward = closure(entries, libs, world.engines)
            backward = closure(list(reversed(entries)), libs, world.engines)
            assert _closure_key(forward) == _closure_key(backward)

    @settings(max_examples=40, deadline=None)
    @given(SEEDS)
    def test_adding_a_target_engine_never_shrinks_home_files(self, seed):
        world = gen_world(random.Random(seed))
        with tempfile.TemporaryDirectory() as raw:
            root = Path(raw)
            world.materialize(root)
            libs = _world_libs(root, world)
            entries = [root / e for e in world.entries]
            smaller = closure(entries, libs, world.engines[:-1] or world.engines)
            larger = closure(entries, libs, world.engines)
            assert smaller.home_files <= larger.home_files
            assert smaller.local_files <= larger.local_files

    @settings(max_examples=40, deadline=None)
    @given(SEEDS)
    def test_no_system_file_in_home_files(self, seed):
        world = gen_world(random.Random(seed))
        with tempfile.TemporaryDirectory() as raw:
            root = Path(raw)
            world.materialize(root)
            libs = _world_libs(root, world)
            clo = closure([root / e for e in world.entries], libs, world.engines)
            system_roots = {str(lib.root) for lib in libs.syslibs}
            assert all(home_root not in system_roots for home_root, _ in clo.home_files)


# Hand-written index lines: (functor, condition, module, file, satisfiable,
# always true).  Each functor's entries are scattered among the others'; f/1
# has several entries for swi and candidates after an always-true one, and
# `ghost` names no file on disk.
LOOKUP_LIBS = {
    "loc": [
        ("h/0", "sicstus(_)", "user", "h_loc", True, False),
        ("k/3", "any", "user", "ghost", True, True),
        ("f/1", "not(any)", "user", "f_never_loc", False, False),
    ],
    "sys0": [
        ("k/3", "swi(_)", "user", "k_sys", True, False),
        ("f/1", "[yap(4:3:_)]", "user", "f_yap_sys", True, False),
        ("g/2", "not(swi(_))", "user", "g_sys", True, False),
        ("f/1", "swi(5:0:5)", "user", "ghost", True, False),
    ],
    "home0": [
        ("g/2", "any", "user", "g_any", True, True),
        ("f/1", "sicstus(3:_:_)", "user", "f_sics", True, False),
        ("h/0", "yap(_)", "user", "h_yap", True, False),
        ("f/1", "swi(5:0:_)", "built_in", "sub/f_swi_builtin", True, False),
        ("g/2", "swi(_)", "user", "g_late", True, False),
        ("f/1", "swi(_)", "user", "f_swi", True, False),
        ("f/1", "not(any)", "user", "f_never", False, False),
        ("h/0", "any", "user", "h_any", True, True),
        ("f/1", "all", "user", "f_any", True, True),
        ("f/1", "yap(_)", "user", "f_after_any", True, False),
        ("h/0", "swi(_)", "user", "h_late", True, False),
    ],
}
LOOKUP_FUNCTORS = ("f/1", "g/2", "h/0", "k/3", "m/2")


def _lookup_world(rng: random.Random):
    """The hand-written libraries with each index's lines shuffled."""
    world = World(
        syslibs=["sys0"], homelibs=["home0"], loclib="loc",
        entries=["proj/main.pl", "proj/other.pl"], engines=list(ENGINE_UNIVERSE),
    )
    order = {}
    for lib, lines in LOOKUP_LIBS.items():
        lines = rng.sample(lines, len(lines))
        order[lib] = lines
        world.files[f"{lib}/Index.pl"] = "".join(
            f"index( {f.split('/')[0]}, {f.split('/')[1]}, {cond}, {module}, '{file}' ).\n"
            for f, cond, module, file, _, _ in lines
        )
        for _, _, _, file, _, _ in lines:
            if file != "ghost":
                world.files[f"{lib}/{file}.pl"] = f"{file.split('/')[-1]}_stub.\n"
    requires = f":- requires( [{','.join(LOOKUP_FUNCTORS)}] ).\n"
    world.files["proj/main.pl"] = requires + "main_stub.\n"
    world.files["proj/other.pl"] = requires + "other_stub.\n"
    return world, order


def _all_engines_candidates(order, functor: str):
    """The engine-None rule over the hand annotations, in search order."""
    found = []
    for lib in ("loc", "sys0", "home0"):
        for f, _, module, file, satisfiable, always in order[lib]:
            if f != functor or not satisfiable:
                continue
            if file == "ghost":
                found.append(("unresolved", None))
            else:
                found.append(("built-in" if module == "built_in" else "load", file))
            if always:
                return found
    return found or [("unresolved", None)]


class TestLookupOrder:
    @settings(max_examples=30, deadline=None)
    @given(SEEDS)
    def test_scattered_entries_agree_with_the_linear_oracle(self, seed):
        world, order = _lookup_world(random.Random(seed))
        with tempfile.TemporaryDirectory() as raw:
            root = Path(raw)
            world.materialize(root)
            libs = _world_libs(root, world)
            entries = [root / e for e in world.entries]
            home, local, project, unresolved, resolution = oracle_closure(
                root, world, libs, world.engines
            )
            clo = closure(entries, libs, world.engines)
            assert (clo.home_files, clo.local_files, clo.project_files) == (
                home, local, project
            )
            assert {(u.source, u.subject, u.engine) for u in clo.unresolved} == unresolved
            everything = closure(entries, libs, None)
            for text in LOOKUP_FUNCTORS:
                name, arity = text.split("/")
                functor = FunctorRef(name, int(arity))
                candidates = [simplify(t) for t in everything.resolution[(functor, None)]]
                assert candidates == _all_engines_candidates(order, text)
                for engine in world.engines:
                    expected = resolution[(functor, engine)]
                    assert simplify(resolve_functor(functor, engine, libs)) == expected
                    assert simplify(clo.resolution[(functor, engine)][0]) == expected
                    assert expected in candidates


class TestIsFile:
    """The walk's probe answers as `Path.is_file` does, but a name too long
    for the file system names no file; other errors raise."""

    def test_answers_as_path_is_file(self, tmp_path):
        (tmp_path / "f.pl").write_text("f.\n", encoding="utf-8")
        (tmp_path / "d").mkdir()
        (tmp_path / "link.pl").symlink_to(tmp_path / "f.pl")
        (tmp_path / "gone.pl").symlink_to(tmp_path / "missing.pl")
        (tmp_path / "loop.pl").symlink_to(tmp_path / "loop.pl")
        answers = {"f.pl": True, "link.pl": True, "d": False, "gone.pl": False, "loop.pl": False,
                   "missing.pl": False, "f.pl/x": False, "a\0b": False}
        for name, expected in answers.items():
            assert fsio_module.is_file(str(tmp_path / name)) is expected, name
            assert (tmp_path / name).is_file() is expected, name
        assert fsio_module.is_file(str(tmp_path / ("a" * 300))) is False

    def test_other_errors_raise(self, monkeypatch):
        def failing(path):
            raise OSError(errno.EIO, "input/output error", path)

        monkeypatch.setattr(fsio_module.os, "stat", failing)
        with pytest.raises(OSError, match="input/output error"):
            fsio_module.is_file("a.pl")


class TestLookupCost:
    def test_closure_lookups_do_not_grow_with_the_index(self, tmp_path, monkeypatch):
        """~5000 unrelated entries cost a closure no condition checks and
        no functor comparisons; repeated requirements cost one lookup and
        render each hit's label once."""
        home = tmp_path / "HomeLib"
        wanted = {
            FunctorRef("p", 1): [("swi(_)", "p_swi"), ("any", "p_any")],
            FunctorRef("q", 2): [("sicstus(_)", "q_sics"), ("not(swi(_))", "q_other")],
        }
        unrelated = [
            IndexEntry(FunctorRef(f"u{i}", 2), ALWAYS, "user", f"u{i}") for i in range(5000)
        ]
        home.mkdir()
        required = []
        for functor, rows in wanted.items():
            for cond, file in rows:
                (home / f"{file}.pl").write_text(f"{file}_stub.\n", encoding="utf-8")
                required.append(IndexEntry(functor, parse_if_pls(read_term(cond)), "user", file))
        # p, q, p, q, each after another quarter of the unrelated entries
        entries = []
        for quarter, entry in enumerate(required[0::2] + required[1::2]):
            entries.extend(unrelated[quarter * 1250:(quarter + 1) * 1250])
            entries.append(entry)
        libs = LibrarySet(homelibs=(Library("home", home, LibraryIndex(home, tuple(entries))),))
        sources = []
        for i in range(4):
            source = tmp_path / "proj" / f"e{i}.pl"
            source.parent.mkdir(exist_ok=True)
            source.write_text(":- requires( [p/1, q/2] ).\n", encoding="utf-8")
            sources.append(source)

        calls = Counter()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in ("matches", "render_cond"):
            monkeypatch.setattr(resolve_module, name, counting(name, getattr(resolve_module, name)))
        monkeypatch.setattr(FunctorRef, "__eq__", counting("eq", FunctorRef.__eq__))
        targets = (SWI, SICSTUS)

        clo = closure(sources, libs, targets)
        assert calls["matches"] <= len(required) * len(targets)
        assert calls["render_cond"] == 3  # one per decision with a hit
        assert {(f.name, e.name): simplify(t) for (f, e), (t,) in clo.resolution.items()} == {
            ("p", "swi"): ("load", "p_swi"),
            ("p", "sicstus"): ("load", "p_any"),
            ("q", "swi"): ("unresolved", None),
            ("q", "sicstus"): ("load", "q_sics"),
        }
        # A linear scan compares the functor with every entry of the index.
        assert calls["eq"] < len(unrelated)

        calls.clear()
        closure(sources, libs, None)
        assert calls["matches"] <= len(required)
        assert calls["eq"] < len(unrelated)

    def test_each_library_file_is_probed_once_per_walk(self, tmp_path, monkeypatch):
        """Both targets' hits for p/1, swi's for q/2, two `library(a)` loads and
        a later lookup all name file a: one probe per library set."""
        home = tmp_path / "HomeLib"
        home.mkdir()
        (home / "Index.pl").write_text(
            "index( p, 1, any, user, a ).\n"
            "index( q, 2, swi(_), user, a ).\n"
            "index( q, 2, any, user, b ).\n",
            encoding="utf-8",
        )
        for name in ("a", "b"):
            (home / f"{name}.pl").write_text(f"{name}.\n", encoding="utf-8")
        entries = [tmp_path / "e.pl", tmp_path / "f.pl"]
        entries[0].write_text(
            ":- requires( [p/1, q/2] ).\n:- ensure_loaded(library(a)).\n", encoding="utf-8"
        )
        entries[1].write_text(":- ensure_loaded(library(a)).\n", encoding="utf-8")
        libs = LibrarySet.build(homelibs=[home])

        probes = counting_probes(monkeypatch)
        clo = closure(entries, libs, (SWI, SICSTUS))
        assert clo.home_files == {(str(home), "a"), (str(home), "b")}
        assert resolve_functor(FunctorRef("p", 1), SWI, libs) == LoadFile("home", home, "a")
        assert probes == {str(home / "a.pl"): 1, str(home / "b.pl"): 1}

    def test_relative_loads_probe_each_candidate_once(self, tmp_path, monkeypatch):
        """Three files loading `helper` and one loading `helper.pl` probe
        `helper.pl` once; a name with a suffix is tried as written first."""
        for name in ("e", "f", "g"):
            (tmp_path / f"{name}.pl").write_text(":- ensure_loaded(helper).\n", encoding="utf-8")
        (tmp_path / "h.pl").write_text(":- ensure_loaded('helper.pl').\n", encoding="utf-8")
        (tmp_path / "helper.pl").write_text("helper.\n", encoding="utf-8")
        probes = counting_probes(monkeypatch)
        clo = closure([tmp_path / f"{name}.pl" for name in "efgh"], LibrarySet(), None)
        assert clo.project_files == {str(tmp_path / "helper.pl")}
        assert probes == {str(tmp_path / "helper.pl"): 1}

    def test_a_second_walk_over_one_set_joins_no_path(self, tmp_path, monkeypatch):
        """Index hits, `library(...)` loads and relative loads that the set
        has answered before build no path: a second closure over the same
        set calls no `PurePath.__truediv__` and gives the same closure."""
        home = tmp_path / "HomeLib"
        (home / "sub").mkdir(parents=True)
        (home / "Index.pl").write_text(
            "index( p, 1, any, user, a ).\n"
            "index( q, 2, swi(_), user, 'sub/./b' ).\n"
            "index( q, 2, any, user, 'sub/b' ).\n",
            encoding="utf-8",
        )
        (home / "a.pl").write_text(":- ensure_loaded(library(sub/b)).\n", encoding="utf-8")
        (home / "sub" / "b.pl").write_text(":- ensure_loaded('../a').\n", encoding="utf-8")
        entries = [tmp_path / "e.pl", tmp_path / "f.pl"]
        entries[0].write_text(
            ":- requires( [p/1, q/2] ).\n:- ensure_loaded(library(a)).\n", encoding="utf-8"
        )
        entries[1].write_text(":- ensure_loaded(e).\n", encoding="utf-8")
        libs = LibrarySet.build(homelibs=[home])
        first = closure(entries, libs, (SWI, SICSTUS))
        assert first.home_files == {(str(home), "a"), (str(home), "sub/b")}

        joins = Counter()
        truediv = PurePath.__truediv__
        monkeypatch.setattr(
            PurePath, "__truediv__", lambda path, key: joins.update([key]) or truediv(path, key)
        )
        assert closure(entries, libs, (SWI, SICSTUS)) == first
        assert joins == Counter()
