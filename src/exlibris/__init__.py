"""ExLibris: index, resolve, and vendor Prolog library dependencies.

The package reads Prolog-style source, models engine identities and the
condition language used by `defines`, `index/5`, and `if_pl` directives,
builds library indexes, resolves `requires/1` functors per target engine,
and exports self-contained project trees with home-library files vendored
into a local library directory.
"""

__version__ = "0.1.0"
