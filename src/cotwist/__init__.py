"""Exact cocycle twists of finitely presented connected graded algebras
under finite abelian group actions, with a degree-truncated noncommutative
Groebner engine as the computational oracle.

Each name is imported from the layer module that defines it, for example
`from cotwist.gbasis import truncated_gb`; `import cotwist` loads no layer."""

__version__ = "0.1.0"
