"""Command-line behaviour: flags, defaults, exit codes, config, graph."""

from __future__ import annotations

from conftest import CHAIN_LENGTH
from exlibris import cli
from exlibris.cli import EXIT_ERROR, EXIT_OK, EXIT_UNRESOLVED, EXIT_USAGE, _build_parser

EXPORT_ARGS = (
    "export",
    "--dest", "out",
    "--source", "proj/file1.pl",
    "--syslib", "SysLib",
    "--homelib", "HomeLib",
    "--loclib", "lib",
)


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

    def test_no_subcommand(self, run_cli):
        code, _, err = run_cli()
        assert code == EXIT_USAGE

    def test_absolute_loclib_rejected(self, worked_example, run_cli):
        code, _, err = run_cli(*EXPORT_ARGS[:-1], "/absolute")
        assert code == EXIT_USAGE
        assert "relative" in err

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

    def test_unexpected_exception_is_one_line_and_exit_2(self, tmp_path, run_cli):
        # The term reader recurses once per nesting level, so 3000 levels
        # raise RecursionError, which no specific handler catches.
        (tmp_path / "deep.pl").write_text(
            "t(" * 3000 + "a" + ")" * 3000 + ".\n", encoding="utf-8"
        )
        code, _, err = run_cli("mkindex", str(tmp_path))
        assert code == EXIT_ERROR
        assert err.startswith("exlibris: internal error: RecursionError: ")
        assert len(err.splitlines()) == 1


    def test_non_decimal_digit_is_a_located_parse_error(self, tmp_path, run_cli):
        (tmp_path / "a.pl").write_text("p(²).\n", encoding="utf-8")
        code, _, err = run_cli("mkindex", str(tmp_path))
        assert code == EXIT_ERROR
        assert "a.pl:1:3: unexpected character '²'" in err


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

    def test_bad_config_line_is_exit_2(self, worked_example, run_cli):
        (worked_example / "exlibris.cfg").write_text("nonsense\n", encoding="utf-8")
        code, _, err = run_cli(*EXPORT_ARGS, "--config", "exlibris.cfg")
        assert code == EXIT_ERROR
