"""Source files are split into statements and only directives are parsed.

Clause text in everyday Prolog syntax therefore reads, wherever it stands:
the hand-written library under `data/real/` is indexed and traced, and a
file nobody needs no longer stops a command.  Each file is read once, and
only its directives and `library_directory` clauses reach the parser.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

import exlibris.index
import exlibris.terms
from exlibris.cli import EXIT_ERROR, EXIT_OK
from exlibris.index import mkindex

REAL = Path(__file__).resolve().parent / "data" / "real"


@pytest.fixture
def real(tmp_path, monkeypatch):
    """A copy of the real-syntax corpus, as the working directory."""
    shutil.copytree(REAL / "HomeLib", tmp_path / "HomeLib")
    shutil.copytree(REAL / "proj", tmp_path / "proj")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestRealSyntax:
    def test_mkindex_writes_the_expected_index(self, real, run_cli):
        code, _, err = run_cli("mkindex", "HomeLib")
        assert (code, err) == (EXIT_OK, "")
        expected = (REAL / "expected" / "Index.pl").read_text(encoding="utf-8")
        assert (real / "HomeLib" / "Index.pl").read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("engine", ["swi:5.0.7", "sicstus:3.9.0"])
    def test_trace_prints_the_expected_walk(self, real, run_cli, engine):
        code, out, err = run_cli("trace", "proj/main.pl", "--pl", engine, "--homelib", "HomeLib")
        assert (code, err) == (EXIT_OK, "")
        name = engine.split(":")[0]
        assert out == (REAL / "expected" / f"trace-{name}.txt").read_text(encoding="utf-8")

    def test_export_reads_back_what_it_wrote(self, real, run_cli):
        args = ("--source", "proj", "--homelib", "HomeLib")
        assert run_cli("export", "--dest", "out", *args)[0] == EXIT_OK
        assert run_cli("export", "--dest", "again", "--source", "out")[0] == EXIT_OK
        assert (real / "again" / "main.pl").read_bytes() == (real / "out" / "main.pl").read_bytes()

    def test_clause_fallback_still_parses_every_clause(self, real, run_cli):
        code, _, err = run_cli("mkindex", "HomeLib", "--clause-fallback")
        assert code == EXIT_ERROR
        assert err.startswith("exlibris: HomeLib/")

    def test_an_unneeded_file_in_real_syntax_stops_nothing(self, tmp_path, monkeypatch, run_cli):
        for rel, text in {
            "H/a.pl": ":- defines([p/0]).\np.\n",
            "H/b.pl": "q(X) :- Y is X + 1.\n",
            "proj/m.pl": ":- requires([p/0]).\n",
        }.items():
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text(text, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli("graph", "--source", "proj", "--homelib", "H")
        assert (code, err) == (EXIT_OK, "")
        assert '"home:a"' in out


class TestParsesOnlyDirectives:
    DIRECTIVES = [":- defines([p0/1]).", ":- requires([q/1]).", ":- dynamic seen/1."]
    CLAUSES = [f"p{n}(X) :- q(X), r(X, {n})." for n in range(5)]

    @pytest.mark.parametrize("clause_fallback", [False, True])
    def test_one_read_per_file_and_one_parse_per_statement_kept(
        self, tmp_path, monkeypatch, clause_fallback
    ):
        statements = self.DIRECTIVES[:1] + self.CLAUSES + self.DIRECTIVES[1:]
        text = "".join(f"{statement}\n" for statement in statements)
        (tmp_path / "f.pl").write_text(text, encoding="utf-8")
        starts = {text.index(statement): statement for statement in statements}
        reads, parsed = [], []

        def counting(reader):
            def read(text, path=None):
                reads.append(path)
                return reader(text, path)

            return read

        def parse_clause(tokens, i, text, path):
            parsed.append(starts[tokens[i].start])
            return clause_parser(tokens, i, text, path)

        clause_parser = exlibris.terms._parse_clause
        monkeypatch.setattr(exlibris.terms, "_parse_clause", parse_clause)
        for name in ("read_directives", "read_terms"):
            monkeypatch.setattr(exlibris.index, name, counting(getattr(exlibris.index, name)))
        mkindex(tmp_path, clause_fallback=clause_fallback)
        assert reads == [str(tmp_path / "f.pl")]
        assert parsed == (statements if clause_fallback else self.DIRECTIVES)
