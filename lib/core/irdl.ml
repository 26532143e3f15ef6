(** The public facade of the IRDL implementation.

    Typical use:

    {[
      let ctx = Irdl_ir.Context.create () in
      match Irdl_core.Irdl.load ctx source with
      | Ok dialects -> (* cmath &co are now registered; parse & verify IR *)
      | Error diag -> prerr_endline (Irdl_support.Diag.to_string diag)
    ]} *)

open Irdl_support

let ( let* ) = Result.bind

(** Parse IRDL source into ASTs. *)
let parse = Parser.parse_file

(** Parse, resolve and register every dialect in [src] into [ctx]. Returns
    the resolved dialects for introspection. *)
let load ?native ?file (ctx : Irdl_ir.Context.t) src :
    (Resolve.dialect list, Diag.t) result =
  let* asts = Parser.parse_file ?file src in
  let* resolved =
    List.fold_left
      (fun acc ast ->
        let* acc = acc in
        let* dl = Resolve.resolve_dialect ast in
        Ok (dl :: acc))
      (Ok []) asts
  in
  let resolved = List.rev resolved in
  let* () =
    List.fold_left
      (fun acc dl ->
        let* () = acc in
        Registration.register ?native ctx dl)
      (Ok ()) resolved
  in
  Ok resolved

(** Fail-soft variant of {!load}: every error across parsing, resolution
    and registration is emitted to [engine], and every definition that
    survives is registered — a dialect file with three mistakes reports all
    three in one run, and its good definitions still work. *)
let load_collect ?native ?file ~engine (ctx : Irdl_ir.Context.t) src
    : Resolve.dialect list =
  let asts =
    Parser.parse_file ?file ~engine src |> Result.value ~default:[]
  in
  let resolved =
    List.filter_map
      (fun ast -> Result.to_option (Resolve.resolve_dialect ~engine ast))
      asts
  in
  List.iter
    (fun dl ->
      List.iter (Diag.Engine.emit engine)
        (Registration.register_collect ?native ctx dl))
    resolved;
  resolved

(** [load] for sources containing exactly one dialect. *)
let load_one ?native ?file ctx src : (Resolve.dialect, Diag.t) result
    =
  let* dls = load ?native ?file ctx src in
  match dls with
  | [ dl ] -> Ok dl
  | dls ->
      Diag.errorf "expected exactly one dialect definition, found %d"
        (List.length dls)

(** Parse and resolve without registering (used by the analysis pipeline). *)
let analyze ?file src : (Resolve.dialect list, Diag.t) result =
  let* asts = Parser.parse_file ?file src in
  List.fold_left
    (fun acc ast ->
      let* acc = acc in
      let* dl = Resolve.resolve_dialect ast in
      Ok (acc @ [ dl ]))
    (Ok []) asts
