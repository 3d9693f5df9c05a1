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
  * :mod:`hightrans.problem` / :mod:`hightrans.cli` -- problem files,
    canonical certificates and the command-line front end.
"""

from .groups import (
    AmalgamGroup,
    Element,
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    Group,
    HnnGroup,
    OwnerMismatch,
    SemidirectGroup,
    UndecidedError,
    cyclic_group,
    symmetric_group,
    trivial_group,
)
from .embeddings import Embedding
from .normal_forms import parse_word, syllable_length
from .hcf import (
    AuditBounds,
    AuditVerdict,
    CosetDomain,
    audit_hcf,
    audit_highly_faithful,
    certify_structural,
    search_E_set,
    search_H_set,
)
from .action import (
    IntertwinerState,
    LevelAction,
    allocate_fresh_orbits,
    evaluate_pi,
)
from .engine import (
    Budget,
    EngineProblem,
    ensure_faithful,
    extend_transitivity,
    run_schedule,
    verify_certificate_report,
)
from .graphs import (
    GraphEdge,
    GraphOfGroups,
    reduce_edge,
    spanning_tree,
    validate_main_hypotheses,
)
from .problem import emit_certificate, load_certificate, parse_problem

__version__ = "0.1.0"
