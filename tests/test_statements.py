"""Source files are split into statements and only directives are parsed.

Clause text in everyday Prolog syntax therefore reads, wherever it stands:
the hand-written library under `data/real/` is indexed and traced, and a
file nobody needs no longer stops a command.  Each file is read once, and
only its directives and `library_directory` clauses reach the parser.
"""

from __future__ import annotations

import re
import shutil
import sys
from pathlib import Path

import pytest

import exlibris.directives
import exlibris.index
import exlibris.terms
from exlibris.cli import EXIT_ERROR, EXIT_OK
from exlibris.index import mkindex

REAL = Path(__file__).resolve().parent / "data" / "real"
BENCH = Path(__file__).resolve().parent.parent / "bench"


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

    def test_clause_fallback_writes_the_expected_index(self, real, run_cli):
        """Only `util/pairs.pl` declares nothing, so only its clauses are
        parsed; every other file's clauses, in any syntax, are only split."""
        code, _, err = run_cli("mkindex", "HomeLib", "--clause-fallback")
        assert (code, err) == (EXIT_OK, "")
        expected = (REAL / "expected" / "Index-clause-fallback.pl").read_text(encoding="utf-8")
        assert (real / "HomeLib" / "Index.pl").read_text(encoding="utf-8") == expected

    def test_clause_fallback_stops_at_a_clause_it_cannot_parse(self, real, run_cli):
        """Still open: in a file that declares nothing, a clause body in
        everyday syntax stops the run at that clause."""
        pairs = real / "HomeLib" / "util" / "pairs.pl"
        pairs.write_text(pairs.read_text(encoding="utf-8") + 'hello("world").\n', encoding="utf-8")
        code, _, err = run_cli("mkindex", "HomeLib", "--clause-fallback")
        assert code == EXIT_ERROR
        assert err == "exlibris: HomeLib/util/pairs.pl:21:7: unexpected character '\"'\n"

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

    def parses(self, tmp_path, monkeypatch, statements, clause_fallback):
        """The statements `mkindex` parses in a file of `statements`, in the
        order parsed, once it has checked that it read the file once."""
        text = "".join(f"{statement}\n" for statement in statements)
        (tmp_path / "f.pl").write_text(text, encoding="utf-8")
        starts = {text.index(statement): statement for statement in statements}
        reads, parsed = [], []

        def read_directives(text, path=None, skip=(), conds=None, clauses=None):
            reads.append(path)
            return reader(text, path, skip, conds, clauses)

        def parse_clause(tokens, i, text, path):
            parsed.append(starts[tokens[i].start])
            return clause_parser(tokens, i, text, path)

        reader, clause_parser = exlibris.index.read_directives, exlibris.terms._parse_clause
        monkeypatch.setattr(exlibris.terms, "_parse_clause", parse_clause)
        monkeypatch.setattr(exlibris.index, "read_directives", read_directives)
        mkindex(tmp_path, clause_fallback=clause_fallback)
        assert reads == [str(tmp_path / "f.pl")]
        return parsed

    @pytest.mark.parametrize("clause_fallback", [False, True])
    def test_one_read_per_file_and_one_parse_per_statement_kept(
        self, tmp_path, monkeypatch, clause_fallback
    ):
        """A file that declares something has only its directives parsed, but
        for its canonical `defines` and `requires`, which are decoded from
        their pattern matches."""
        statements = self.DIRECTIVES[:1] + self.CLAUSES + self.DIRECTIVES[1:]
        parsed = self.parses(tmp_path, monkeypatch, statements, clause_fallback)
        assert parsed == self.DIRECTIVES[2:]

    def test_a_file_that_declares_nothing_has_each_statement_parsed_once(
        self, tmp_path, monkeypatch
    ):
        """With `--clause-fallback`, its directives and `library_directory`
        clauses first, then its other clauses; none twice, and its canonical
        `requires` not at all."""
        directives = [*self.DIRECTIVES[1:], ":- library_directory(here)."]
        clauses = ["library_directory(there).", *self.CLAUSES]
        statements = [*directives[:1], *clauses[1:], clauses[0], *directives[1:]]
        parsed = self.parses(tmp_path, monkeypatch, statements, clause_fallback=True)
        assert parsed == [clauses[0], *directives[1:], *clauses[1:]]
        functors = [str(e.functor) for e in mkindex(tmp_path, clause_fallback=True).entries]
        assert functors == ["library_directory/1", *(f"p{n}/1" for n in range(5))]

    def test_a_file_that_declares_nothing_is_split_once(self, tmp_path, monkeypatch):
        """`--clause-fallback` takes a file's clauses from the split its
        directives were read from; a `requires` decoded from its pattern
        match is no clause."""
        (tmp_path / "H").mkdir()
        (tmp_path / "H/a.pl").write_text(
            ":- requires( [q/1] ).\np(1).\nlibrary_directory(x).\n", encoding="utf-8"
        )
        (tmp_path / "H/b.pl").write_text(":- defines( [q/1] ).\nq(1).\n", encoding="utf-8")
        split = []
        splitter = exlibris.terms.split_statements

        def splitting(text, path=None, *pattern):
            split.append(Path(path).relative_to(tmp_path).as_posix())
            return splitter(text, path, *pattern)

        for module in (exlibris.terms, exlibris.directives, exlibris.index):
            if getattr(module, "split_statements", None) is splitter:
                monkeypatch.setattr(module, "split_statements", splitting)
        index = mkindex(tmp_path / "H", clause_fallback=True)
        assert split == ["H/a.pl", "H/b.pl"]
        assert [f"{row[0]}/{row[1]} {row[4]}" for row in index.rows] == [
            "library_directory/1 a", "p/1 a", "q/1 b",
        ]

    def test_a_directive_error_comes_before_a_clause_error(self, tmp_path, run_cli):
        (tmp_path / "f.pl").write_text('p("x").\n:- requires([q]).\n', encoding="utf-8")
        code, _, err = run_cli("mkindex", str(tmp_path), "--clause-fallback")
        assert code == EXIT_ERROR
        assert err == f"exlibris: {tmp_path / 'f.pl'}:2: requires expects name/arity terms, got q\n"


class TestColdLibraryCounts:
    """Counts, not clocks, of `mkindex` over a library shaped as the
    benchmark's `cold` workload shapes it: 200 files, each with a few
    canonical declarations and twenty clauses."""

    @pytest.fixture
    def library(self, tmp_path, monkeypatch) -> Path:
        monkeypatch.setattr(sys, "path", [str(BENCH), *sys.path])
        import run
        import world

        world.generate(run.SHAPES["cold"], 1).materialize(tmp_path)
        return tmp_path / "HomeLib"

    @staticmethod
    def texts(library: Path) -> list[str]:
        return [path.read_text(encoding="utf-8") for path in sorted(library.rglob("*.pl"))]

    def test_no_clause_reaches_the_per_statement_path(self, library, monkeypatch):
        """Every clause of the library is skipped inside a run of clauses:
        none is handed to `matched_statement` one by one."""
        clauses = sum(len(re.findall(r"^[a-z].*\.$", text, re.M)) for text in self.texts(library))
        matched, seen = exlibris.terms.matched_statement, []

        def matching(m, text, path):
            statement = matched(m, text, path)
            if statement is not None:
                seen.append(text[statement[0] : statement[1]])
            return statement

        monkeypatch.setattr(exlibris.terms, "matched_statement", matching)
        assert len(mkindex(library).rows) == 800
        assert clauses > 3000
        assert [s for s in seen if not s.startswith(":-")] == []

    def test_each_condition_text_is_decoded_once_per_call(self, library, monkeypatch):
        """`parse_if_pls` runs once per distinct condition text that a
        `defines` writes, in each `mkindex` call, and on nothing else."""
        import exlibris.engines

        conditions = {
            cond for text in self.texts(library)
            for cond in re.findall(r"^:- defines\( (.*), \[", text, re.M)
        }
        decode, decoded = exlibris.engines.parse_if_pls, []

        def decoding(term):
            decoded.append(exlibris.terms.render_term(term))
            return decode(term)

        for module in (exlibris.engines, exlibris.directives, exlibris.index):
            monkeypatch.setattr(module, "parse_if_pls", decoding)
        for _ in range(2):
            decoded.clear()
            mkindex(library)
            assert sorted(decoded) == sorted(conditions)
        assert len(conditions) >= 4

    def test_no_declaration_is_tokenized(self, library, monkeypatch):
        """Only the condition texts are tokenized, each once, to be read."""
        tokenize, tokenized = exlibris.terms._tokenize, []

        def tokenizing(text, path, pos=0, endpos=None):
            tokenized.append(text[pos:endpos])
            return tokenize(text, path, pos, endpos)

        monkeypatch.setattr(exlibris.terms, "_tokenize", tokenizing)
        mkindex(library)
        assert [s for s in tokenized if not re.fullmatch(r"[^ ]*\n\.", s)] == []
