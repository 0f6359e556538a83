"""Command-line behaviour: flags, defaults, exit codes, config, graph."""

from __future__ import annotations

import pytest

from conftest import CHAIN_LENGTH
from exlibris import cli
from exlibris.cli import EXIT_ERROR, EXIT_OK, EXIT_UNRESOLVED, EXIT_USAGE, _build_parser
from exlibris.index import parse_index, render_index
from exlibris.terms import read_terms

EXPORT_ARGS = (
    "export",
    "--dest", "out",
    "--source", "proj/file1.pl",
    "--syslib", "SysLib",
    "--homelib", "HomeLib",
    "--loclib", "lib",
)


def deep_f(depth: int) -> str:
    return "f(" * depth + "x" + ")" * depth


def write_files(root, files: dict[str, str]) -> None:
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text, encoding="utf-8")


# Two home libraries that each hold an `a.pl`, both reached from proj/m.pl.
TWO_HOMES = {
    "H1/a.pl": ":- defines([p/1]).\n:- requires([r/1]).\n",
    "H2/a.pl": ":- defines([q/1]).\n:- requires([z/0]).\n",
    "H2/b.pl": ":- defines([r/1]).\n",
    "proj/m.pl": ":- requires([p/1, q/1]).\n",
}


class TestDefaults:
    def test_documented_defaults(self):
        args = _build_parser().parse_args(
            ["export", "--dest", "d", "--source", "s"]
        )
        assert args.copy == "selective"
        assert args.loclib == "lib"
        assert args.pl == []


class TestExport:
    def test_worked_example_export(self, worked_example, run_cli):
        code, out, err = run_cli(*EXPORT_ARGS)
        assert code == EXIT_OK
        assert "rewrite file1.pl" in out
        assert (worked_example / "out" / "lib" / "Index.pl").is_file()

    def test_existing_destination_is_exit_2(self, worked_example, run_cli):
        (worked_example / "out").mkdir()
        sentinel = worked_example / "out" / "keep.txt"
        sentinel.write_text("untouched", encoding="utf-8")
        code, out, err = run_cli(*EXPORT_ARGS)
        assert code == EXIT_ERROR
        assert "must not exist" in err
        assert list((worked_example / "out").iterdir()) == [sentinel]

    def test_parse_error_is_exit_2(self, worked_example, run_cli):
        (worked_example / "proj" / "file1.pl").write_text(
            ":- requires([broken).\n", encoding="utf-8"
        )
        code, _, err = run_cli(*EXPORT_ARGS)
        assert code == EXIT_ERROR
        assert "file1.pl" in err

    def test_strict_unresolved_is_exit_3(self, worked_example, run_cli):
        (worked_example / "proj" / "file1.pl").write_text(
            ":- requires([missing/4]).\n", encoding="utf-8"
        )
        code, _, err = run_cli(*EXPORT_ARGS, "--strict")
        assert code == EXIT_UNRESOLVED
        assert "missing/4" in err
        assert not (worked_example / "out").exists()

    def test_unresolved_without_strict_warns_and_succeeds(self, worked_example, run_cli):
        (worked_example / "proj" / "file1.pl").write_text(
            ":- requires([missing/4]).\n", encoding="utf-8"
        )
        code, _, err = run_cli(*EXPORT_ARGS)
        assert code == EXIT_OK
        assert "missing/4" in err

    def test_target_engine_flags(self, worked_example, run_cli):
        code, _, _ = run_cli(*EXPORT_ARGS, "--pl", "sicstus:3.9.0")
        assert code == EXIT_OK
        assert not (worked_example / "out" / "lib" / "compat").exists()

    def test_two_library_files_for_one_destination_is_exit_2(
        self, tmp_path, run_cli, monkeypatch
    ):
        write_files(tmp_path, TWO_HOMES)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            "export", "--dest", "out", "--source", "proj", "--homelib", "H1", "--homelib", "H2"
        )
        assert (code, out) == (EXIT_ERROR, "")
        assert err == (
            f"exlibris: both {tmp_path / 'H1' / 'a.pl'} and {tmp_path / 'H2' / 'a.pl'}"
            " would be exported as lib/a.pl\n"
        )
        assert not (tmp_path / "out").exists()

    def test_file_outside_the_sources_is_a_warning_and_not_copied(
        self, tmp_path, run_cli, monkeypatch
    ):
        write_files(tmp_path, {
            "proj/m.pl": ":- ensure_loaded('../other/x').\n",
            "other/x.pl": "x.\n",
        })
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli("export", "--dest", "out", "--source", "proj/m.pl")
        assert code == EXIT_OK
        assert out == f"create {tmp_path / 'out'}\nrewrite m.pl\n"
        assert err == (
            f"warning: referenced file outside the export sources: {tmp_path / 'other' / 'x.pl'}\n"
        )
        assert sorted(p.name for p in (tmp_path / "out").rglob("*")) == ["m.pl"]

    def test_no_entry_files_is_exit_2(self, tmp_path, run_cli, monkeypatch):
        (tmp_path / "proj").mkdir()
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli("export", "--dest", "out", "--source", "proj")
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "exlibris: no entry files found in the given sources\n"
        assert not (tmp_path / "out").exists()

    def test_one_root_as_two_libraries_is_exit_2(self, worked_example, run_cli):
        code, out, err = run_cli(
            "export", "--dest", "out", "--source", "proj/file1.pl",
            "--syslib", "HomeLib", "--homelib", "HomeLib",
        )
        assert (code, out, err) == (EXIT_ERROR, "", "exlibris: library roots must be disjoint\n")
        assert not (worked_example / "out").exists()

    @pytest.mark.parametrize("libs", [
        ("--homelib", "HomeLib", "--homelib", "HomeLib/sub"),
        ("--homelib", "HomeLib/sub", "--homelib", "HomeLib"),
        ("--syslib", "HomeLib/sub", "--homelib", "HomeLib"),
    ], ids=["outer_first", "inner_first", "across_kinds"])
    def test_nested_library_roots_are_exit_2(self, worked_example, run_cli, libs):
        (worked_example / "HomeLib" / "sub").mkdir()
        code, out, err = run_cli("export", "--dest", "out", "--source", "proj/file1.pl", *libs)
        assert (code, out, err) == (EXIT_ERROR, "", "exlibris: library roots must be disjoint\n")
        assert not (worked_example / "out").exists()

    def test_failure_mid_apply_reports_completed_steps(self, worked_example, run_cli, monkeypatch):
        def fail(path, text):
            raise OSError("no space left on device")

        monkeypatch.setattr("exlibris.export.write_text", fail)
        code, out, err = run_cli(*EXPORT_ARGS)
        assert code == EXIT_ERROR
        assert out == (
            f"create {worked_example / 'out'}\n"
            f"copy {worked_example / 'HomeLib' / 'compat' / 'swi' / 'built_ins.pl'}"
            " -> lib/compat/swi/built_ins.pl\n"
            f"copy {worked_example / 'HomeLib' / 'list' / 'flatten.pl'} -> lib/list/flatten.pl\n"
            f"copy {worked_example / 'proj' / 'lib' / 'meta' / 'maplist.pl'}"
            " -> lib/meta/maplist.pl\n"
        )
        assert err == "exlibris: no space left on device\n"


    def test_library_file_loaded_with_its_own_extension(self, tmp_path, run_cli, monkeypatch):
        files = {
            "HomeLib/f.pl": ":- defines([f/1]).\n:- ensure_loaded('g.txt').\nf(1).\n",
            "HomeLib/g.txt": "g(1).\n",
            "proj/main.pl": ":- requires([f/1]).\n",
        }
        for rel, text in files.items():
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text(text, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(
            "export", "--dest", "out", "--source", "proj/main.pl", "--homelib", "HomeLib"
        )
        assert (code, err) == (EXIT_OK, "")
        for rel in ("f.pl", "g.txt"):
            assert (tmp_path / "out" / "lib" / rel).read_text(encoding="utf-8") == files[
                f"HomeLib/{rel}"
            ]

    def test_deep_else_call_is_written_and_reads_back(self, tmp_path, run_cli, monkeypatch):
        (tmp_path / "proj").mkdir()
        (tmp_path / "proj" / "m.pl").write_text(
            f":- if_pl(swi(_), ensure_loaded(x), {deep_f(2000)}).\n", encoding="utf-8"
        )
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(
            "export", "--dest", "out", "--source", "proj/m.pl", "--pl", "sicstus:3.9.0"
        )
        assert (code, err) == (EXIT_OK, "")
        text = (tmp_path / "out" / "m.pl").read_text(encoding="utf-8")
        assert text == f":- library_directory( 'lib' ).\n:- f( {deep_f(1999)} ).\n"
        assert len(read_terms(text)) == 2

    @pytest.mark.parametrize(
        "index, entry, unresolved",
        [
            ("index( p, 1, any, user, '../../evil' ).\n", ":- requires([p/1]).\n", "p/1"),
            ("", ":- ensure_loaded(library('../../evil')).\n", "library(../../evil)"),
        ],
        ids=["index_entry", "library_alias"],
    )
    def test_dot_dot_library_name_names_no_file(
        self, tmp_path, run_cli, monkeypatch, index, entry, unresolved
    ):
        work = tmp_path / "a" / "b"
        files = {
            "a/evil.pl": ":- defines([p/1]).\np(1).\n",
            "a/b/HomeLib/Index.pl": index,
            "a/b/proj/m.pl": entry,
        }
        for rel, text in files.items():
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text(text, encoding="utf-8")
        monkeypatch.chdir(work)
        args = ("export", "--dest", "out", "--source", "proj/m.pl", "--homelib", "HomeLib")
        code, _, err = run_cli(*args, "--strict")
        assert code == EXIT_UNRESOLVED
        assert f"warning: unresolved {unresolved} (from" in err
        code, out, err = run_cli(*args)
        assert code == EXIT_OK
        assert f"warning: unresolved {unresolved} (from" in err
        assert "evil" not in out
        written = {
            p.relative_to(tmp_path).as_posix()
            for p in tmp_path.rglob("*")
            if p.is_file() and not p.is_relative_to(work / "out")
        }
        assert written == set(files)

    @pytest.mark.parametrize(
        "ref",
        ["library(" + "/".join(["d"] * 2500) + ")", "a" * 300],
        ids=["library_alias", "relative"],
    )
    def test_name_too_long_for_the_file_system_is_unresolved(
        self, tmp_path, run_cli, monkeypatch, ref
    ):
        (tmp_path / "proj").mkdir()
        (tmp_path / "HomeLib").mkdir()
        (tmp_path / "proj" / "m.pl").write_text(f":- ensure_loaded({ref}).\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(
            "export", "--dest", "out", "--source", "proj/m.pl", "--homelib", "HomeLib", "--strict"
        )
        assert code == EXIT_UNRESOLVED
        assert err.startswith(f"warning: unresolved {ref} (from ")


class TestUsageErrors:
    def test_unknown_flag(self, worked_example, run_cli):
        code, _, err = run_cli("export", "--dest", "out", "--source", "x", "--bogus")
        assert code == EXIT_USAGE
        assert "usage" in err

    def test_missing_dest(self, worked_example, run_cli):
        code, _, err = run_cli("export", "--source", "x")
        assert code == EXIT_USAGE

    def test_bad_engine_flag(self, worked_example, run_cli):
        code, _, err = run_cli(*EXPORT_ARGS, "--pl", "swi-5.0.7")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["swi:1.x", "swi:-1"])
    def test_bad_engine_version(self, worked_example, run_cli, flag):
        code, out, err = run_cli("trace", "proj/file1.pl", "--pl", flag)
        assert (code, out) == (EXIT_USAGE, "")
        assert "argument --pl:" in err

    def test_no_subcommand(self, run_cli):
        code, _, err = run_cli()
        assert code == EXIT_USAGE

    def test_absolute_loclib_rejected(self, worked_example, run_cli):
        code, _, err = run_cli(*EXPORT_ARGS[:-1], "/absolute")
        assert code == EXIT_USAGE
        assert "relative" in err

    @pytest.mark.parametrize(
        "command",
        [("graph", "--source", "proj"), ("trace", "proj/file1.pl", "--pl", "swi:5.0.7")],
        ids=["graph", "trace"],
    )
    def test_graph_and_trace_reject_the_loclib_export_rejects(
        self, worked_example, run_cli, command
    ):
        loclib = str(worked_example / "proj" / "lib")  # absolute
        _, _, export_err = run_cli(*EXPORT_ARGS[:-1], loclib)
        code, out, err = run_cli(*command, "--syslib", "SysLib", "--loclib", loclib)
        assert (code, out, err) == (EXIT_USAGE, "", export_err)

    @pytest.mark.parametrize("loclib", [".", "", "./", "x/.."])
    def test_loclib_that_is_the_destination_rejected(self, worked_example, run_cli, loclib):
        """A local library at the destination's top would put vendored home
        files over the entry files of the same name."""
        code, out, err = run_cli(*EXPORT_ARGS[:-1], loclib)
        assert (code, out) == (EXIT_USAGE, "")
        assert "relative path inside the destination" in err
        assert not (worked_example / "out").exists()
        for command in (
            ("graph", "--source", "proj"), ("trace", "proj/file1.pl", "--pl", "swi:5.0.7")
        ):
            result = run_cli(*command, "--syslib", "SysLib", "--loclib", loclib)
            assert result == (EXIT_USAGE, "", err)

    def test_trace_needs_exactly_one_engine(self, worked_example, run_cli):
        code, _, err = run_cli("trace", "proj/file1.pl", "--syslib", "SysLib")
        assert code == EXIT_USAGE
        code, _, _ = run_cli(
            "trace", "proj/file1.pl",
            "--pl", "swi:5.0.7", "--pl", "yap:4.3.23",
            "--syslib", "SysLib",
        )
        assert code == EXIT_USAGE


class TestMkindex:
    @pytest.mark.parametrize(
        "flag", [("--homelib", "/nonexistent"), ("--syslib", "/nope"), ("--loclib", "/abs")]
    )
    def test_library_flags_are_usage_errors(self, worked_example, run_cli, flag):
        """mkindex reads only --ext and --config; a library flag is not ignored."""
        before = (worked_example / "HomeLib" / "Index.pl").read_bytes()
        code, out, err = run_cli("mkindex", "HomeLib", *flag)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"unrecognized arguments: {' '.join(flag)}" in err
        assert (worked_example / "HomeLib" / "Index.pl").read_bytes() == before

    def test_ext_and_config_are_accepted(self, worked_example, run_cli):
        (worked_example / "exlibris.cfg").write_text("syslib=SysLib\n", encoding="utf-8")
        code, out, _ = run_cli("mkindex", "HomeLib", "--ext", ".pl", "--config", "exlibris.cfg")
        assert (code, out) == (EXIT_OK, "wrote HomeLib/Index.pl (3 entries)\n")

    def test_writes_index(self, worked_example, run_cli):
        code, out, _ = run_cli("mkindex", "HomeLib")
        assert code == EXIT_OK
        assert "3 entries" in out
        text = (worked_example / "HomeLib" / "Index.pl").read_text(encoding="utf-8")
        assert text == (
            "% generated by exlibris mkindex\n"
            "index( flatten, 2, swi(_), built_in, 'compat/swi/built_ins' ).\n"
            "index( flatten, 2, not(swi(_)), user, 'list/flatten' ).\n"
            "index( member, 2, swi(_), built_in, 'compat/swi/built_ins' ).\n"
        )

    def test_clause_fallback_flag(self, worked_example, run_cli):
        code, out, _ = run_cli("mkindex", "SysLib", "--clause-fallback")
        assert code == EXIT_OK
        text = (worked_example / "SysLib" / "Index.pl").read_text(encoding="utf-8")
        assert "index( member, 2, any, lists, lists )." in text

    def test_unexpected_exception_is_one_line_and_exit_2(
        self, tmp_path, run_cli, monkeypatch
    ):
        def fail(*args, **kwargs):
            raise RuntimeError("no handler expects this")

        monkeypatch.setattr("exlibris.cli.mkindex", fail)
        code, _, err = run_cli("mkindex", str(tmp_path))
        assert code == EXIT_ERROR
        assert err.startswith("exlibris: internal error: ")
        assert len(err.splitlines()) == 1

    def test_deeply_nested_term_is_indexed(self, tmp_path, run_cli):
        (tmp_path / "deep.pl").write_text(
            "t(" * 3000 + "a" + ")" * 3000 + ".\n", encoding="utf-8"
        )
        code, out, _ = run_cli("mkindex", str(tmp_path), "--clause-fallback")
        assert code == EXIT_OK
        assert "1 entries" in out
        text = (tmp_path / "Index.pl").read_text(encoding="utf-8")
        assert text.splitlines()[1:] == ["index( t, 1, any, user, deep )."]

    @pytest.mark.parametrize(
        "directive",
        [
            "if_pl(swi(_), (" + ", ".join(["x"] * 3000) + "))",
            "ensure_loaded(library(" + "/".join(["d"] * 3000) + "))",
            "library_directory(" + "f(" * 3000 + "x" + ")" * 3000 + ")",
        ],
        ids=["if_pl_conjunction", "alias_path", "library_directory"],
    )
    def test_deep_directive_is_indexed(self, tmp_path, run_cli, directive):
        (tmp_path / "deep.pl").write_text(
            f":- defines(w/0).\n:- {directive}.\n", encoding="utf-8"
        )
        code, out, err = run_cli("mkindex", str(tmp_path))
        assert (code, err) == (EXIT_OK, "")
        assert "1 entries" in out

    def test_deeply_negated_condition_is_indexed_and_read_back(self, tmp_path, run_cli):
        cond = "not(" * 2000 + "swi(_)" + ")" * 2000
        (tmp_path / "a.pl").write_text(f":- defines({cond}, [p/1]).\n", encoding="utf-8")
        code, _, err = run_cli("mkindex", str(tmp_path))
        assert (code, err) == (EXIT_OK, "")
        text = (tmp_path / "Index.pl").read_text(encoding="utf-8")
        assert text.splitlines()[1:] == [f"index( p, 1, {cond}, user, a )."]
        assert render_index(parse_index(tmp_path / "Index.pl").entries) == text

    @pytest.mark.parametrize(
        "directive, message",
        [
            (f"requires({deep_f(2000)})",
             f"requires expects name/arity terms, got {deep_f(2000)}"),
            ("requires(" + "[" * 2000 + "x" + "]" * 2000 + ")",
             "requires expects name/arity terms, got " + "[" * 1999 + "x" + "]" * 1999),
            (f"defines(not({deep_f(2000)}), [p/1])",
             f"bad version component in a version pattern: {deep_f(1999)}"),
            (f"if_pl({deep_f(2000)}, ensure_loaded(x))",
             f"bad version component in a version pattern: {deep_f(1999)}"),
            (f"defines((sicstus, [({deep_f(2000)}, >=)]), [p/1])",
             f"bad version component in a version constraint: {deep_f(2000)}"),
            ("defines(swi(a), [p/0])", "bad version component in a version pattern: a"),
            ("defines([swi(_)|x], [p/0])", "condition list has a non-list tail: [swi(_)|x]"),
            ("defines((swi,[x]), [p/0])", "not a (version, op) pair: x"),
            ("defines((swi,[(1,foo)]), [p/0])", "unknown comparison: foo"),
            ("defines(('Swi',[(1,(=))]), [p/0])",
             "pair condition needs an engine name first: 'Swi',[(1,(=))]"),
            ("defines((swi,x), [p/0])",
             "pair condition needs a list of (version, op) pairs: swi,x"),
        ],
        ids=["requires", "requires_list", "defines_not", "if_pl_guard", "pair_condition",
             "bad_version", "list_tail", "not_a_pair", "unknown_op", "no_engine", "no_pairs"],
    )
    def test_deep_bad_term_is_a_located_error(self, tmp_path, run_cli, directive, message):
        (tmp_path / "a.pl").write_text(f":- {directive}.\n", encoding="utf-8")
        code, _, err = run_cli("mkindex", str(tmp_path))
        assert (code, err) == (EXIT_ERROR, f"exlibris: {tmp_path / 'a.pl'}:1: {message}\n")

    def test_non_decimal_digit_is_a_located_parse_error(self, tmp_path, run_cli):
        (tmp_path / "a.pl").write_text("p(²).\n", encoding="utf-8")
        code, _, err = run_cli("mkindex", str(tmp_path))
        assert code == EXIT_ERROR
        assert "a.pl:1:3: unexpected character '²'" in err

    @pytest.mark.parametrize(
        "name, data, message",
        [
            ("a.pl", b"p(a).\n\xff\n", ":2: cannot decode byte 0xff as UTF-8\n"),
            ("a.pl", b"p(" + b"1" * 5000 + b").\n", ":1:3: integer of 5000 digits is too long\n"),
            ("a\\b.pl", b":- module(m, [q/1]).\n", ": index file fields are relative"),
        ],
        ids=["not_utf8", "5000_digit_integer", "backslash_in_name"],
    )
    def test_bad_library_file_is_exit_2_naming_it(self, tmp_path, run_cli, name, data, message):
        (tmp_path / name).write_bytes(data)
        code, _, err = run_cli("mkindex", str(tmp_path))
        assert code == EXIT_ERROR
        assert err.startswith(f"exlibris: {tmp_path / name}{message}")


class TestParseOnce:
    def test_each_command_parses_each_file_once(self, worked_example, run_cli, monkeypatch):
        import sys

        from exlibris.terms import read_terms

        parsed = []

        def counting(text, path=None):
            parsed.append(path)
            return read_terms(text, path)

        for name, module in list(sys.modules.items()):
            if name.startswith("exlibris") and getattr(module, "read_terms", None) is read_terms:
                monkeypatch.setattr(module, "read_terms", counting)
        for index in worked_example.rglob("Index.pl"):
            index.unlink()
        libs = ("--syslib", "SysLib", "--homelib", "HomeLib")
        for args in (
            ("graph", "--source", "proj/file1.pl", *libs),
            ("export", "--dest", "out", "--source", "proj/file1.pl", *libs),
            ("trace", "proj/file1.pl", "--pl", "sicstus:3.9.0", *libs),
        ):
            parsed.clear()
            code, _, err = run_cli(*args)
            assert (code, err) == (EXIT_OK, "")
            assert any(path.endswith("flatten.pl") for path in parsed)
            assert sorted(parsed) == sorted(set(parsed)), args[0]


class TestTrace:
    def test_swi(self, worked_example, run_cli):
        code, out, _ = run_cli(
            "trace", "proj/file1.pl", "--pl", "swi:5.0.7",
            "--syslib", "SysLib", "--homelib", "HomeLib",
        )
        assert code == EXIT_OK
        assert out == (
            "member/2: built-in (home compat/swi/built_ins)\n"
            "maplist/3: load local meta/maplist\n"
            "flatten/2: built-in (home compat/swi/built_ins)\n"
        )

    def test_unresolved_and_missing_lines(self, tmp_path, run_cli, monkeypatch):
        """Each failed decision is a line, indented under the file it is in."""
        write_files(tmp_path, {
            "S/Index.pl": "index( q, 0, any, user, a ).\n",
            "S/a.pl": "q.\n",
            "proj/m.pl": ":- requires([q/0, nope/0]).\n:- ensure_loaded(library(gone)).\n"
                         ":- ensure_loaded(missing_rel).\n:- ensure_loaded(sub).\n",
            "proj/sub.pl": ":- requires([nope/0]).\n:- ensure_loaded(ghost).\n",
        })
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli("trace", "proj/m.pl", "--pl", "swi:1.0.0", "--syslib", "S")
        assert (code, err) == (EXIT_OK, "")
        assert out == (
            "q/0: load system a\n"
            "nope/0: unresolved\n"
            "library(gone): missing\n"
            "missing_rel: missing\n"
            "sub: load file sub.pl\n"
            "  nope/0: unresolved\n"
            "  ghost: missing\n"
        )

    def test_missing_entry_is_exit_2(self, worked_example, run_cli):
        code, _, err = run_cli("trace", "nope.pl", "--pl", "swi:5.0.7")
        assert code == EXIT_ERROR

    def test_reads_the_config_file_once(self, worked_example, run_cli, monkeypatch):
        (worked_example / "exlibris.cfg").write_text(
            "syslib=SysLib\nhomelib=HomeLib\n", encoding="utf-8"
        )
        reads = []
        load_config = cli._load_config

        def counted(path):
            reads.append(path)
            return load_config(path)

        monkeypatch.setattr(cli, "_load_config", counted)
        code, out, _ = run_cli(
            "trace", "proj/file1.pl", "--pl", "swi:5.0.7", "--config", "exlibris.cfg"
        )
        assert code == EXIT_OK
        assert out.startswith("member/2: built-in (home compat/swi/built_ins)\n")
        assert reads == ["exlibris.cfg"]

    def test_chain_deeper_than_the_recursion_limit(self, load_chain, run_cli, monkeypatch):
        monkeypatch.chdir(load_chain.parent)
        code, out, err = run_cli("trace", "f0.pl", "--pl", "swi:5.0.7")
        assert (code, err) == (EXIT_OK, "")
        last = CHAIN_LENGTH - 1
        assert out.splitlines()[-1] == "  " * (last - 1) + f"f{last}: load file f{last}.pl"


class TestNestedIfPl:
    """A guard grows three condition levels per nesting, so 1000 nestings
    go far past Python's default recursion limit."""

    @pytest.mark.parametrize(
        "args, out",
        [
            (("graph", "--source", "proj/m.pl"), None),
            (("trace", "proj/m.pl", "--pl", "swi:5.0.7"), "x: load file x.pl\n"),
            (("export", "--dest", "out", "--source", "proj/m.pl", "--pl", "sicstus:3.9.0"),
             None),
        ],
        ids=["graph", "trace", "export"],
    )
    def test_1000_nested_if_pl_directives(self, tmp_path, run_cli, monkeypatch, args, out):
        nested = "if_pl(swi(_), " * 1000 + "ensure_loaded(x)" + ")" * 1000
        (tmp_path / "proj").mkdir()
        (tmp_path / "proj" / "m.pl").write_text(f":- {nested}.\n", encoding="utf-8")
        (tmp_path / "proj" / "x.pl").write_text("x.\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run_cli(*args)
        assert (code, err) == (EXIT_OK, "")
        assert out is None or stdout == out


class TestGraph:
    def test_contains_expected_edges(self, worked_example, run_cli):
        code, out, _ = run_cli(
            "graph", "--source", "proj/file1.pl",
            "--syslib", "SysLib", "--homelib", "HomeLib",
        )
        assert code == EXIT_OK
        assert out.startswith("digraph exlibris {")
        assert '"file1.pl" -> "local:meta/maplist" [label="maplist/3 any"];' in out
        assert '"file1.pl" -> "system:lists" [label="member/2 sicstus(_)"];' in out
        assert (
            '"file1.pl" -> "home:compat/swi/built_ins"'
            ' [label="flatten/2 swi(_) built-in"];'
        ) in out

    def test_second_library_of_a_kind_has_its_own_names(self, tmp_path, run_cli, monkeypatch):
        write_files(tmp_path, TWO_HOMES)
        monkeypatch.chdir(tmp_path)
        libs = ("--homelib", "H1", "--homelib", "H2")
        code, out, err = run_cli("graph", "--source", "proj", *libs)
        assert (code, err) == (EXIT_OK, "")
        assert out == (
            "digraph exlibris {\n"
            '  "home2:a";\n'
            '  "home2:b";\n'
            '  "home:a";\n'
            '  "m.pl";\n'
            '  "unresolved";\n'
            '  "home2:a" -> "unresolved" [label="z/0"];\n'
            '  "home:a" -> "home2:b" [label="r/1 any"];\n'
            '  "m.pl" -> "home2:a" [label="q/1 any"];\n'
            '  "m.pl" -> "home:a" [label="p/1 any"];\n'
            "}\n"
        )
        # only H2's a.pl is reached, so export plans; its warning names that file
        (tmp_path / "proj" / "m.pl").write_text(":- requires([q/1]).\n", encoding="utf-8")
        code, out, err = run_cli("export", "--dest", "out", "--source", "proj", *libs, "--strict")
        assert (code, out) == (EXIT_UNRESOLVED, "")
        assert err == (
            "warning: unresolved z/0 (from home2:a)\n"
            "strict mode: unresolved references, nothing exported\n"
        )

    def test_byte_stable_across_runs(self, worked_example, run_cli):
        args = (
            "graph", "--source", "proj/file1.pl",
            "--syslib", "SysLib", "--homelib", "HomeLib",
        )
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second


class TestConfigFile:
    def test_config_supplies_library_defaults(self, worked_example, run_cli):
        (worked_example / "exlibris.cfg").write_text(
            "# libraries\nsyslib=SysLib\nhomelib=HomeLib\n", encoding="utf-8"
        )
        code, out, _ = run_cli(
            "export", "--dest", "out", "--source", "proj/file1.pl",
            "--config", "exlibris.cfg",
        )
        assert code == EXIT_OK
        assert (worked_example / "out" / "lib" / "list" / "flatten.pl").is_file()

    def test_environment_variable_names_config(self, worked_example, run_cli, monkeypatch):
        (worked_example / "exlibris.cfg").write_text(
            "syslib=SysLib\nhomelib=HomeLib\n", encoding="utf-8"
        )
        monkeypatch.setenv("EXLIBRIS_CONFIG", "exlibris.cfg")
        code, _, _ = run_cli("export", "--dest", "out", "--source", "proj/file1.pl")
        assert code == EXIT_OK
        assert (worked_example / "out" / "lib" / "list" / "flatten.pl").is_file()

    def test_flags_win_over_config(self, worked_example, run_cli):
        (worked_example / "exlibris.cfg").write_text(
            "homelib=DoesNotExist\n", encoding="utf-8"
        )
        code, _, _ = run_cli(*EXPORT_ARGS, "--config", "exlibris.cfg")
        assert code == EXIT_OK

    def test_non_utf8_config_is_exit_2_naming_it(self, worked_example, run_cli):
        (worked_example / "exlibris.cfg").write_bytes(b"syslib=SysLib\n\xfe\n")
        code, _, err = run_cli(*EXPORT_ARGS, "--config", "exlibris.cfg")
        assert code == EXIT_ERROR
        assert err == "exlibris: exlibris.cfg:2: cannot decode byte 0xfe as UTF-8\n"
        assert not (worked_example / "out").exists()

    def test_nul_byte_in_config_is_exit_2_naming_it(self, worked_example, run_cli):
        (worked_example / "exlibris.cfg").write_text(
            "syslib=SysLib\nhomelib=Home\0Lib\n", encoding="utf-8"
        )
        code, _, err = run_cli(*EXPORT_ARGS, "--config", "exlibris.cfg")
        assert code == EXIT_ERROR
        assert err == "exlibris: exlibris.cfg:2: NUL byte in config line\n"
        assert not (worked_example / "out").exists()

    def test_bad_config_line_is_exit_2(self, worked_example, run_cli):
        (worked_example / "exlibris.cfg").write_text("nonsense\n", encoding="utf-8")
        code, _, err = run_cli(*EXPORT_ARGS, "--config", "exlibris.cfg")
        assert code == EXIT_ERROR

    def test_bad_config_line_names_its_line(self, worked_example, run_cli):
        (worked_example / "exlibris.cfg").write_text("# libraries\nnonsense\n", encoding="utf-8")
        code, out, err = run_cli(*EXPORT_ARGS, "--config", "exlibris.cfg")
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "exlibris: exlibris.cfg:2: expected key=value, got 'nonsense'\n"
        assert not (worked_example / "out").exists()

    def test_unknown_config_key_is_exit_2_naming_its_line(self, worked_example, run_cli):
        (worked_example / "exlibris.cfg").write_text(
            "syslib=SysLib\nhomelibs=HomeLib\n", encoding="utf-8"
        )
        code, out, err = run_cli(
            "trace", "proj/file1.pl", "--pl", "swi:5.0.7", "--config", "exlibris.cfg"
        )
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "exlibris: exlibris.cfg:2: unknown config key 'homelibs'\n"

    def test_spaces_after_commas_in_extensions(self, tmp_path, run_cli, monkeypatch):
        write_files(tmp_path, {
            "L/a.pl": ":- defines([a/0]).\n",
            "L/b.pro": ":- defines([b/0]).\n",
            "exlibris.cfg": "extensions=.pl, .pro\n",
        })
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli("mkindex", "L", "--config", "exlibris.cfg")
        assert (code, out, err) == (EXIT_OK, "wrote L/Index.pl (2 entries)\n", "")
        assert (tmp_path / "L" / "Index.pl").read_text(encoding="utf-8") == (
            "% generated by exlibris mkindex\n"
            "index( a, 0, any, user, a ).\n"
            "index( b, 0, any, user, b ).\n"
        )


class TestBadExtensions:
    """An extension is one file suffix; anything else is a usage error,
    raised before a library is read or a file written."""

    @pytest.mark.parametrize("ext", ["pl", ".", "", ".pl,.pro", ".p/l", " .pl"])
    def test_ext_flag(self, worked_example, run_cli, ext):
        before = (worked_example / "HomeLib" / "Index.pl").read_bytes()
        code, out, err = run_cli("mkindex", "HomeLib", "--ext", ext)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"exlibris: error: extension must be a suffix like '.pl', got {ext!r}\n"
        assert (worked_example / "HomeLib" / "Index.pl").read_bytes() == before

    @pytest.mark.parametrize(
        "line, ext", [("extensions=.pl,", ""), ("extensions=pl", "pl"), ("extensions=", "")]
    )
    def test_config(self, worked_example, run_cli, line, ext):
        (worked_example / "HomeLib" / "README").write_text("Not Prolog.\n", encoding="utf-8")
        (worked_example / "exlibris.cfg").write_text(line + "\n", encoding="utf-8")
        before = (worked_example / "HomeLib" / "Index.pl").read_bytes()
        code, out, err = run_cli("mkindex", "HomeLib", "--config", "exlibris.cfg")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"exlibris: error: extension must be a suffix like '.pl', got {ext!r}\n"
        assert (worked_example / "HomeLib" / "Index.pl").read_bytes() == before

    @pytest.mark.parametrize(
        "command",
        [
            EXPORT_ARGS,
            ("graph", "--source", "proj"),
            ("trace", "proj/file1.pl", "--pl", "swi:5.0.7"),
        ],
        ids=["export", "graph", "trace"],
    )
    def test_library_commands(self, worked_example, run_cli, command):
        code, out, err = run_cli(*command, "--ext", "pl")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "exlibris: error: extension must be a suffix like '.pl', got 'pl'\n"
        assert not (worked_example / "out").exists()


class TestParserShape:
    @pytest.mark.parametrize("command", ["export", "graph", "trace", "mkindex"])
    def test_help_exits_0(self, run_cli, command):
        code, out, err = run_cli(command, "--help")
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith(f"usage: exlibris {command}")
        assert ("--pl NAME:V.V.V" in out) == (command != "mkindex")

    @pytest.mark.parametrize(
        "command, pl_help",
        [
            ("export", "target engine (repeatable; default: all engines)"),
            ("graph", "target engine (repeatable; default: all engines)"),
            ("trace", "target engine (exactly one required)"),
        ],
    )
    def test_pl_help_says_how_many_engines(self, run_cli, command, pl_help):
        code, out, _ = run_cli(command, "--help")
        assert code == EXIT_OK
        assert f"--pl NAME:V.V.V {pl_help}" in " ".join(out.split())
