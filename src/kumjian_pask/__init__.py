"""Exact symbolic engine for Kumjian-Pask algebras over standard k-graphs.

The standard k-graph of level l has the integer lattice Z^k as vertices and
one path for every level vector; the associated algebra is spanned by
vertices, paths, ghost paths, and path/ghost pairs over canonical
representative pairs.  This package reduces arbitrary elements of the free
algebra on those generators to that basis, enumerates windowed bases, and
machine-checks the defining identities and the confluence of the reduction
system at desk scale.
"""

from .kgraph import (Coords, KGraphError, Path, StandardKGraph, compose,
                     factorize, levelvec_compatible, vertex)
from .freealg import (Element, IntegerRing, Letter, ModularRing, Ring,
                      RingMismatchError, Word, letter, ring_from_spec)
from .canonical import (ClassKey, PairError, class_key, in_A, in_R,
                        member_sources, representative)
from .rewrite import (OrderingViolation, RedexMatch, RuleId, TerminationFault,
                      TraceStep, WordMeasure, all_redexes, apply_rule,
                      find_redex, normalize, word_measure)
from .algebra import Window, enumerate_basis, uniform_window
from .syntax import (ElementSyntaxError, format_element, format_word,
                     parse_element)
from .verify import (CheckReport, check_confluence, check_kp_relations,
                     check_lemma3, check_lemma8, check_lemma12, check_lemma13,
                     run_all)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
