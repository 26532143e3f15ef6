(** Dynamic dialect registration: resolved IRDL dialects into a live
    {!Irdl_ir.Context.t}. Every registered definition is a closure over the
    resolved constraints — the generated verifiers of the paper's Listing 2
    — with no code generation involved (paper §3). The verifiers evaluate
    constraints with {!Constraint_expr.verify}, the one constraint engine;
    the context's verify cache memoizes type and attribute checks. *)

open Irdl_support
open Irdl_ir

val assign_slots :
  what:string -> seg_attr:string -> op:Graph.op -> Resolve.slot list ->
  'a list -> ('a list list, Diag.t) result
(** Split values across operand/result slots, honouring variadic/optional
    slots and, with several variadic groups, the
    [operandSegmentSizes]/[resultSegmentSizes] attribute (paper §4.6).
    Exposed for testing and tooling. *)

val make_op_verifier :
  native:Native.t -> Resolve.op -> Graph.op -> (unit, Diag.t) result
(** The generated operation verifier (arity, constraints with shared
    variables, attributes, regions, successors, IRDL-C++ hooks).
    Registration stores its partial application to the resolved op. *)

val register_collect :
  ?native:Native.t -> Context.t -> Resolve.dialect -> Diag.t list
(** Register a resolved dialect, accumulating one error per definition that
    failed (duplicate registration, malformed declarative format) while all
    the others are registered. Declarative formats are compiled eagerly so
    malformed specs fail at registration, not first use. *)

val register :
  ?native:Native.t -> Context.t -> Resolve.dialect -> (unit, Diag.t) result
(** Like {!register_collect}, reporting only the first error. *)
