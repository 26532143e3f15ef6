(** The public facade of the IRDL implementation.

    {[
      let ctx = Irdl_ir.Context.create () in
      match Irdl_core.Irdl.load ctx source with
      | Ok dialects -> (* registered; parse & verify IR against them *)
      | Error diag -> prerr_endline (Irdl_support.Diag.to_string diag)
    ]} *)

open Irdl_support

val parse :
  ?file:string ->
  ?engine:Diag.Engine.t ->
  string ->
  (Ast.dialect list, Diag.t) result
(** Parse IRDL source into ASTs (no resolution or registration). Alias of
    {!Parser.parse_file}: with [engine] the parse is fail-soft and always
    returns [Ok]; without it the first error is returned as [Error]. *)

val load :
  ?native:Native.t -> ?file:string -> Irdl_ir.Context.t -> string ->
  (Resolve.dialect list, Diag.t) result
(** Parse, resolve and register every dialect in the source. Returns the
    resolved dialects for introspection. *)

val load_collect :
  ?native:Native.t -> ?file:string ->
  engine:Diag.Engine.t -> Irdl_ir.Context.t -> string ->
  Resolve.dialect list
(** Fail-soft variant of {!load}: every error across parsing, resolution
    and registration is emitted to [engine], and every definition that
    survives is registered, so one run reports all errors in a source. *)

val load_one :
  ?native:Native.t -> ?file:string -> Irdl_ir.Context.t -> string ->
  (Resolve.dialect, Diag.t) result
(** {!load} for sources containing exactly one dialect. *)

val analyze :
  ?file:string -> string -> (Resolve.dialect list, Diag.t) result
(** Parse and resolve without registering (used by the analysis pipeline). *)
