"""Normal forms, core-freeness audits and a deterministic builder of
highly transitive actions for groups assembled from graphs of groups.

The package splits into:

  * :mod:`hightrans.groups` / :mod:`hightrans.embeddings` -- concrete group
    oracles and subgroup embeddings with exact or explicitly bounded
    membership;
  * :mod:`hightrans.normal_forms` -- Britton and alternating-syllable
    reduction, the word problem for composite groups;
  * :mod:`hightrans.hcf` -- bounded audits of the highly core-free
    condition, whose evidence re-verifies by direct evaluation;
  * :mod:`hightrans.action` / :mod:`hightrans.engine` -- the countable set
    X = Gamma, the partially built intertwiner, and the certified
    requirement engine for an action on X that is both faithful and highly
    transitive;
  * :mod:`hightrans.graphs` -- graphs of groups, edge reduction, and
    hypothesis validation;
  * :mod:`hightrans.problem` / :mod:`hightrans.cli` -- problem files, the
    audit bounds and step budget they carry, canonical certificates and
    the command-line front end.

Import names from the submodule that defines them, e.g.
``from hightrans.problem import parse_problem``.  This module imports
none of them, so each command and each caller loads only the modules its
path runs: loading a problem and resolving its acting group needs
``problem``, ``groups``, ``embeddings``, ``normal_forms`` and ``graphs``.
"""

__version__ = "0.1.0"


def __getattr__(name):
    # hightrans.search_E_set is the one name read from the root, by
    # bench/test_bench.py; it resolves from hcf when read, so importing
    # the root loads no submodule.
    if name == "search_E_set":
        from . import hcf
        return hcf.search_E_set
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
