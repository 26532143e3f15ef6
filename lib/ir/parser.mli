(** Parser for the textual IR syntax produced by {!Printer}: the generic
    form and, for operations registered with a declarative format, the
    custom pretty form. Forward references to values and blocks are allowed
    within a region. *)

open Irdl_support

val builtin_ty_of_ident : string -> Attr.ty option
(** Classify a bare identifier as a builtin type ([f32], [si8], [index],
    ...); shared with the IRDL resolver. *)

val int_ty_of_ident : string -> Attr.ty option

val parse_ops :
  ?file:string ->
  ?engine:Diag.Engine.t ->
  ?limits:Limits.t ->
  Context.t ->
  string ->
  (Graph.op list, Diag.t) result
(** Parse a sequence of top-level operations: a {!Stream} session over
    [src], {!drain}ed.

    Without [engine] the parse is fail-fast: it stops at the first error,
    returned as [Error]. With [engine] it is fail-soft: every
    lexing/parsing error (and every undefined value) is emitted to the
    engine, parsing resumes at the next operation boundary, and the result
    is always [Ok] with the operations that parsed.

    [limits] (default {!Limits.unlimited}) caps payload size, op count,
    region depth and wall time. A blown budget aborts the whole parse even
    in fail-soft mode — the budget diagnostic (code
    [resource_exhausted]/[deadline_exceeded]) is emitted/returned and in
    fail-soft mode the result is [Ok []]. *)

(** Pull-based parse sessions: one fully-parsed top-level operation at a
    time (regions materialized per-op), so a driver can parse → verify →
    print → {!release} each op without the whole module ever being
    resident. This is the text format's only top-level parse loop;
    {!parse_ops} drains it. Forward references cost O(1) each to track,
    so a module with n top-level uses before their definitions streams in
    time and memory linear in n. *)
module Stream : sig
  type session
  (** An in-progress streaming parse over one source buffer. *)

  val create :
    ?file:string ->
    ?engine:Diag.Engine.t ->
    ?limits:Limits.t ->
    Context.t ->
    string ->
    session
  (** Open a session. As with {!parse_ops}, [engine] selects fail-soft
      collect-and-recover parsing; without it the first error ends the
      session. [limits] caps the session's resources; a blown budget (or
      an injected fault) never raises out of [create] or {!next} — it ends
      the session with a sticky [Error] whose diagnostic carries its
      code. *)

  val next : session -> (Graph.op option, Diag.t) result
  (** The next top-level operation, [Ok None] at end of input, or the
      error that ended the session (returned again on every subsequent
      call): in fail-fast mode the first error, in fail-soft mode only a
      blown budget or an internal error. An op is yielded only once every
      forward reference created before the end of its parse has been
      resolved, so its operands are exactly the values a whole-module
      parse ends with; modules with no top-level forward references are
      parsed strictly one op ahead. *)

  val release : Graph.op -> unit
  (** Alias of {!Graph.release}: call when done with a yielded op to let
      the GC reclaim its subtree while later ops may still name its
      results. *)
end

val drain :
  fail_soft:bool ->
  (unit -> ('a option, Diag.t) result) ->
  ('a list, Diag.t) result
(** Pull a session (the [next] of {!Stream}, of [Bytecode.Stream] or of
    [Frontend.Stream]) to its end, keeping every op: the one materializing
    loop behind {!parse_ops}, [Bytecode.read_module] and
    [Frontend.parse_module]. Not [fail_soft]: the first [Error] is the
    result. [fail_soft]: the session has already emitted its errors to the
    engine, and one that ends the session (a blown budget) gives [Ok []]. *)

val parse_op_string :
  ?file:string -> Context.t -> string -> (Graph.op, Diag.t) result
(** Parse exactly one operation. *)

val parse_type_string :
  ?file:string -> Context.t -> string -> (Attr.ty, Diag.t) result
(** Parse a standalone type, e.g. ["!cmath.complex<f32>"]. *)

val parse_attr_string :
  ?file:string -> Context.t -> string -> (Attr.t, Diag.t) result
(** Parse a standalone attribute. *)
