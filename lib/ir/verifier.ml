(** The verification driver.

    Verifies an operation tree against a {!Context.t}: structural SSA
    invariants (dominance-free structural checks, terminator placement,
    successor sanity), registered per-op verifiers (generated from IRDL
    constraints), and registered type/attribute parameter verifiers for every
    type mentioned in the IR. *)

open Irdl_support

let ( let* ) = Result.bind

(* Types and attributes are hash-consed with dense ids (PR 1), so the
   context memoizes each composite node's verification result: repeat
   visits of a type already seen — the common case in any realistic module
   — are a single hashtable probe. Leaf nodes verify vacuously and are not
   worth an entry. *)
let rec verify_ty ctx (ty : Attr.ty) =
  match ty with
  | Attr.Dynamic _ | Attr.Function _ | Attr.Tuple _ ->
      Context.cached_verify_ty ctx (Attr.id_ty ty) (fun () ->
          verify_ty_uncached ctx ty)
  | _ -> Ok ()

and verify_ty_uncached ctx (ty : Attr.ty) =
  match ty with
  | Attr.Dynamic { dialect; name; params; _ } -> (
      let* () = verify_params ctx params in
      match Context.lookup_type ctx ~dialect ~name with
      | Some td ->
          if List.length params <> td.td_num_params then
            Diag.errorf "type '!%s.%s' expects %d parameters but has %d"
              dialect name td.td_num_params (List.length params)
          else td.td_verify params
      | None ->
          if ctx.allow_unregistered then Ok ()
          else Diag.errorf "unregistered type '!%s.%s'" dialect name)
  | Attr.Function { inputs; outputs; _ } ->
      let* () = verify_tys ctx inputs in
      verify_tys ctx outputs
  | Attr.Tuple { elems; _ } -> verify_tys ctx elems
  | _ -> Ok ()

and verify_tys ctx = function
  | [] -> Ok ()
  | ty :: rest ->
      let* () = verify_ty ctx ty in
      verify_tys ctx rest

and verify_attr ctx (a : Attr.t) =
  match a with
  | Attr.Type ty -> verify_ty ctx ty
  | Attr.Int { ty; _ } | Attr.Float_attr { ty; _ } -> verify_ty ctx ty
  | Attr.Array _ | Attr.Dict _ | Attr.Dyn_attr _ ->
      Context.cached_verify_attr ctx (Attr.id a) (fun () ->
          verify_attr_uncached ctx a)
  | _ -> Ok ()

and verify_attr_uncached ctx (a : Attr.t) =
  match a with
  | Attr.Array { elems; _ } -> verify_params ctx elems
  | Attr.Dict { entries; _ } -> verify_params ctx (List.map snd entries)
  | Attr.Dyn_attr { dialect; name; params; _ } -> (
      let* () = verify_params ctx params in
      match Context.lookup_attr ctx ~dialect ~name with
      | Some ad ->
          if List.length params <> ad.ad_num_params then
            Diag.errorf "attribute '#%s.%s' expects %d parameters but has %d"
              dialect name ad.ad_num_params (List.length params)
          else ad.ad_verify params
      | None ->
          if ctx.allow_unregistered then Ok ()
          else Diag.errorf "unregistered attribute '#%s.%s'" dialect name)
  | _ -> Ok ()

and verify_params ctx = function
  | [] -> Ok ()
  | a :: rest ->
      let* () = verify_attr ctx a in
      verify_params ctx rest

let is_terminator ctx (op : Graph.op) =
  match Context.lookup_op ctx op.op_name with
  | Some od -> od.od_is_terminator
  | None -> op.successors <> []

(* Structural checks that hold for every operation, registered or not. *)
let verify_structure ctx (op : Graph.op) =
  let* () =
    (* Successors may only appear on block terminators. *)
    match op.op_parent with
    | Some blk when op.successors <> [] -> (
        match Graph.Block.terminator blk with
        | Some last when last.op_id = op.op_id -> Ok ()
        | _ ->
            Diag.errorf ~loc:op.op_loc
              "'%s' has successors but is not the last operation in its block"
              op.op_name)
    | _ -> Ok ()
  in
  let* () =
    if is_terminator ctx op then
      match op.op_parent with
      | None -> Ok () (* top-level ops are not inside a block *)
      | Some blk -> (
          match Graph.Block.terminator blk with
          | Some last when last.op_id = op.op_id -> Ok ()
          | _ ->
              Diag.errorf ~loc:op.op_loc
                "terminator '%s' must be the last operation in its block"
                op.op_name)
    else Ok ()
  in
  (* Successor block must belong to the same region as the op's block. *)
  match op.op_parent with
  | None when op.successors <> [] ->
      Diag.errorf ~loc:op.op_loc "'%s': successors on a detached operation"
        op.op_name
  | None -> Ok ()
  | Some blk ->
      if
        List.for_all
          (fun (s : Graph.block) ->
            match (s.blk_parent, blk.blk_parent) with
            | Some a, Some b -> a == b
            | None, None -> true
            | _ -> false)
          op.successors
      then Ok ()
      else
        Diag.errorf ~loc:op.op_loc
          "'%s': successor blocks must be in the same region" op.op_name

(* Attach the op's location to diagnostics that lack one (e.g. from
   type/attribute parameter verifiers, which do not know where the type was
   used). *)
let with_op_loc (op : Graph.op) = function
  | Ok () -> Ok ()
  | Error (d : Diag.t) when Loc.is_unknown d.loc ->
      Error { d with loc = op.op_loc }
  | Error _ as e -> e

let verify_op ctx (op : Graph.op) =
  with_op_loc op
  @@
  let* () = verify_structure ctx op in
  let* () = verify_tys ctx (Graph.Op.operand_tys op) in
  let* () = verify_tys ctx (Graph.Op.result_tys op) in
  let* () = verify_params ctx (List.map snd op.attrs) in
  match Context.lookup_op ctx op.op_name with
  | Some od -> od.od_verify op
  | None ->
      if ctx.allow_unregistered then Ok ()
      else Diag.errorf ~loc:op.op_loc "unregistered operation '%s'" op.op_name

(** Verify [op] and everything nested inside it. Stops at the first failure. *)
let verify ctx (op : Graph.op) =
  let result = ref (Ok ()) in
  (try
     Graph.Op.walk op ~f:(fun o ->
         match verify_op ctx o with
         | Ok () -> ()
         | Error d ->
             result := Error d;
             raise Exit)
   with Exit -> ());
  !result

(* Stable order for multi-error output: by location (file, then start and
   end offsets), ties broken structurally so sorting is deterministic
   whatever order the walk produced. Used with [List.sort_uniq], it also
   drops repeated identical diagnostics from shared sub-terms. *)
let diag_order (a : Diag.t) (b : Diag.t) =
  let pos (d : Diag.t) =
    (d.loc.start_pos.file, d.loc.start_pos.offset, d.loc.end_pos.offset)
  in
  match compare (pos a) (pos b) with 0 -> compare a b | c -> c

(** Collect every verification failure instead of stopping at the first.
    The result is sorted by location and de-duplicated, so multi-error
    output is diffable. *)
let verify_all ctx (op : Graph.op) =
  Failpoints.hit "verify";
  let diags = ref [] in
  Graph.Op.walk op ~f:(fun o ->
      match verify_op ctx o with
      | Ok () -> ()
      | Error d -> diags := d :: !diags);
  List.sort_uniq diag_order !diags

(** Verify a whole parsed module (a list of top-level operations), stopping
    at the first failure. This is the hook the pass manager's
    [--verify-each] instrumentation runs between passes. *)
let verify_ops ctx ops =
  List.fold_left
    (fun acc op -> match acc with Error _ -> acc | Ok () -> verify ctx op)
    (Ok ()) ops

(** Put already-collected diagnostics into the stable, de-duplicated
    {!diag_order}. A streaming driver concatenates per-op {!verify_all}
    results and merges once at end-of-stream; by construction the result
    is exactly what {!verify_ops_all} would have produced. *)
let merge_diags diags = List.sort_uniq diag_order diags

(** Collect every verification failure across a whole parsed module, in the
    same stable, de-duplicated order as {!verify_all}. *)
let verify_ops_all ctx ops = merge_diags (List.concat_map (verify_all ctx) ops)
