(** Spec-based exercising of the generated verifiers: synthesize an example
    instance of every (synthesizable) operation in the 28-dialect corpus and
    check that it verifies against its own dynamically registered
    definition. This closes the loop between the IRDL frontend, the
    synthesizer and the verifier generator at corpus scale. *)

open Util
module R = Irdl_core.Resolve
module S = Irdl_core.Skeleton

let corpus_env =
  lazy
    (let ctx = Irdl_ir.Context.create () in
     let dls = check_ok "register" (Irdl_dialects.Corpus.load_all ctx) in
     let lookup ~kind ~dialect ~name =
       List.find_opt (fun (dl : R.dialect) -> dl.dl_name = dialect) dls
       |> Fun.flip Option.bind (fun (dl : R.dialect) ->
              let defs =
                match kind with `Type -> dl.dl_types | `Attr -> dl.dl_attrs
              in
              List.find_opt (fun (td : R.typedef) -> td.td_name = name) defs)
     in
     (ctx, dls, lookup))

let simple_example_types () =
  let _, _, lookup = Lazy.force corpus_env in
  (* !builtin.tensor with no parameter constraints synthesizes the
     registered definition's parameters. *)
  let c =
    Irdl_core.Constraint_expr.Base_type
      { dialect = "builtin"; name = "tensor"; params = None }
  in
  match S.example_ty ~lookup c with
  | Some (Irdl_ir.Attr.Dynamic { dialect = "builtin"; name = "tensor"; params; _ })
    ->
      Alcotest.(check int) "two params" 2 (List.length params)
  | _ -> Alcotest.fail "expected a tensor type"

let corpus_instantiation_coverage () =
  let ctx, dls, lookup = Lazy.force corpus_env in
  let op_lookup ~dialect ~name =
    List.find_opt (fun (dl : R.dialect) -> dl.dl_name = dialect) dls
    |> Fun.flip Option.bind (fun (dl : R.dialect) ->
           List.find_opt (fun (o : R.op) -> o.op_name = name) dl.dl_ops)
  in
  let total = ref 0 in
  let synthesized = ref 0 in
  let verified = ref 0 in
  let failures = ref [] in
  List.iter
    (fun (dl : R.dialect) ->
      List.iter
        (fun (op : R.op) ->
          incr total;
          match S.instantiate_op ~lookup ~op_lookup ~dialect:dl.dl_name op with
          | Error _ -> ()
          | Ok instance -> (
              incr synthesized;
              match Irdl_ir.Verifier.verify_op ctx instance with
              | Ok () -> incr verified
              | Error d ->
                  failures :=
                    Fmt.str "%s.%s: %s" dl.dl_name op.op_name
                      (Irdl_support.Diag.to_string d)
                    :: !failures))
        dl.dl_ops)
    dls;
  (* Every synthesized instance must verify. *)
  (match !failures with
  | [] -> ()
  | fs ->
      Alcotest.failf "%d synthesized ops failed verification, e.g.:\n%s"
        (List.length fs)
        (String.concat "\n" (List.filteri (fun i _ -> i < 5) fs)));
  Alcotest.(check int) "all ops considered" 942 !total;
  (* Nearly the whole corpus is synthesizable: ops skipped are terminators
     with successors or have several variadic groups. *)
  Alcotest.(check bool)
    (Printf.sprintf "at least 800 ops synthesizable (got %d)" !synthesized)
    true (!synthesized >= 800);
  Alcotest.(check int) "synthesized = verified" !synthesized !verified

let cmath_instantiation () =
  let ctx = Irdl_ir.Context.create () in
  let dl = check_ok "load" (Irdl_dialects.Cmath.load ctx) in
  let op_lookup ~dialect ~name =
    if dialect <> "cmath" then None
    else List.find_opt (fun (o : R.op) -> o.op_name = name) dl.R.dl_ops
  in
  let results =
    List.map
      (fun (op : R.op) ->
        (op.op_name, S.instantiate_op ~op_lookup ~dialect:"cmath" op))
      dl.R.dl_ops
  in
  (* Everything synthesizes — including range_loop, whose body block and
     range_loop_terminator are built recursively — except the multi-successor
     conditional_branch. *)
  let ok name =
    match List.assoc name results with
    | Ok instance -> verify_ok ctx instance
    | Error r -> Alcotest.failf "%s skipped: %s" name (S.skip_reason_to_string r)
  in
  ok "mul";
  ok "norm";
  ok "log";
  ok "create_constant";
  ok "range_loop";
  ok "range_loop_terminator";
  (* Synthesis is best-effort w.r.t. native predicates: append_vector's
     naive example (sizes 1, 1 -> 1) is correctly rejected by the
     registered IRDL-C++ hook. *)
  (match List.assoc "append_vector" results with
  | Ok instance -> verify_err ~containing:"native constraint" ctx instance
  | Error r ->
      Alcotest.failf "append_vector skipped: %s" (S.skip_reason_to_string r));
  match List.assoc "conditional_branch" results with
  | Error S.Is_terminator -> ()
  | _ -> Alcotest.fail "conditional_branch should be skipped (terminator)"

let unsatisfiable_reported () =
  let ast =
    check_ok "parse"
      (Irdl_core.Parser.parse_one
         {|Dialect d {
             Operation weird { Operands (x: Not<!AnyType>) }
           }|})
  in
  let dl = check_ok "resolve" (Irdl_core.Resolve.resolve_dialect ast) in
  match S.instantiate_op ~dialect:"d" (List.hd dl.R.dl_ops) with
  | Error (S.Unsatisfiable_slot s) ->
      Alcotest.(check bool) "names the slot" true
        (String.length s > 0)
  | _ -> Alcotest.fail "expected unsatisfiable"

let suite =
  [
    tc "lookup-driven parameter synthesis" simple_example_types;
    tc "corpus-wide: synthesized ops verify" corpus_instantiation_coverage;
    tc "cmath instantiation and skip reasons" cmath_instantiation;
    tc "unsatisfiable slots are reported" unsatisfiable_reported;
  ]
