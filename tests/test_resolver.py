"""Per-engine resolution, closure, and trace, checked against oracles."""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHAIN_LENGTH, build_worked_example
from helpers import SICSTUS, SWI, gen_world, oracle_closure
from exlibris.directives import FunctorRef
from exlibris.resolve import (
    BuiltIn,
    LibrarySet,
    LoadFile,
    Unresolved,
    closure,
    resolve_functor,
    trace,
)

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
