"""A kernel library for System Fs: System F with expansion variables.

Provides skeleton validation, expansion and substitution application,
initial-skeleton generation, constraint solvedness checking against pluggable
subtyping relations, and a constructive call-by-value subject-reduction
engine.
"""

from .syntax import (
    Abs, And, App, Arrow, Atomic, Constraint, EGuard, EVarApp, EVarIntro,
    Exists, Expansion, Forall, ForallIntro, FreshSupply, Id, Omega, QAbs,
    QApp, QEVar, QForall, QSub, QVar, QWeak, Skeleton, SubStep, Subst, TVar,
    Term, Type, TypeEnv, Var, canonical_constraint, canonical_type,
    constraint_eq, ftv, fv, type_eq,
)
from .surface import (
    ParseError, parse_constraint, parse_expansion, parse_skeleton,
    parse_subst, parse_term, parse_type, parse_type_env, print_constraint,
    print_expansion, print_skeleton, print_subst, print_term, print_type,
    print_type_env,
)
from .typecheck import Judgement, SkeletonError, check_skeleton, relevant
from .expansion import (
    apply_exp_cons, apply_exp_skel, apply_exp_type, apply_subst,
    property_expansion_sound, property_subst_sound,
)
from .initial import (
    TermMismatch, allvar, derive_substitution, initial_skeleton, reflexive,
    rename_equiv,
)
from .solve import (
    RELATIONS, SubtypingRelation, check_system_f, erase_evars, leq_eq, leq_f,
    solved,
)
from .reduction import (
    NestedWeakening, NotAStep, NotSolved, cbv_step, check_neq,
    check_subproof, from_neq, preserve, subst_term, sz, to_neq, transform_T,
)

__all__ = [name for name in dir() if not name.startswith("_")]
