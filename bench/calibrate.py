"""A fixed pure-Python workload that gauges how fast the machine runs now.

On a shared host the speed of Python code drifts by up to 2x in phases of
seconds to minutes, and every command of a run slows by about the same
factor.  The benchmark runs `reference()` once per cycle and scales each
command's time by `REFERENCE_S / median(reference time)`, which cancels that
drift.  The workload imitates the program's mix (a character-level
tokenizer, small frozen dataclasses, dict building and linear scans with
dataclass equality) and never changes, so a change to `exlibris` moves the
scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# Typical reference() time on the machine the benchmark was introduced on;
# only a unit, so scaled times read as seconds on that machine.
REFERENCE_S = 0.05


@dataclass(frozen=True)
class _Key:
    name: str
    arity: int


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    start: int


_TEXT = "\n".join(
    f"p{i}(X, [a{i % 7}, b|T]) :- q{i % 11}(X, Z), r(Z, 'q {i}'). % note {i}"
    for i in range(500)
)
_KEYS = tuple(_Key(f"k{i}", i % 3) for i in range(500))
_PROBES = tuple(_Key(f"k{i * 37 % 560}", i * 37 % 560 % 3) for i in range(120))


def _tokens(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isalnum() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
        elif c == "'":
            j = text.index("'", i + 1) + 1
            tokens.append(_Token("quoted", text[i:j], i))
            i = j
        elif c == "%":
            i = text.find("\n", i)
            i = n if i < 0 else i
        else:
            tokens.append(_Token("punct", c, i))
            i += 1
    return tokens


def reference() -> int:
    """Run the fixed workload once; returns a checksum of its results."""
    tokens = _tokens(_TEXT)
    table: dict[str, list[_Token]] = {}
    for token in tokens:
        table.setdefault(token.text, []).append(token)
    hits = 0
    for probe in _PROBES:
        for key in _KEYS:
            if key == probe:
                hits += 1
                break
    return len(tokens) + len(table) + hits


def time_reference() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start
