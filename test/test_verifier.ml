(** Tests for the verification driver: structural invariants, nested
    type/attribute verification, strict contexts and multi-diagnostics. *)

open Irdl_ir
open Util

let terminator_placement () =
  let ctx = cmath_ctx () in
  (* a terminator op anywhere but last in its block *)
  let blk = Graph.Block.create () in
  Graph.Block.append blk (Graph.Op.create "cmath.range_loop_terminator");
  Graph.Block.append blk (Graph.Op.create "t.after");
  let wrap =
    Graph.Op.create ~regions:[ Graph.Region.create ~blocks:[ blk ] () ] "t.w"
  in
  verify_err ~containing:"must be the last" ctx wrap

let successors_cross_region () =
  let ctx = cmath_ctx () in
  (* successor pointing into a sibling region *)
  let other_blk = Graph.Block.create () in
  let _other_region = Graph.Region.create ~blocks:[ other_blk ] () in
  let blk = Graph.Block.create ~arg_tys:[ Attr.i1 ] () in
  let cond = List.hd (Graph.Block.args blk) in
  Graph.Block.append blk
    (Graph.Op.create ~operands:[ cond ]
       ~successors:[ other_blk; other_blk ]
       "cmath.conditional_branch");
  let wrap =
    Graph.Op.create ~regions:[ Graph.Region.create ~blocks:[ blk ] () ] "t.w"
  in
  verify_err ~containing:"same region" ctx wrap

let nested_type_verification () =
  let ctx = cmath_ctx () in
  (* an invalid dynamic type hiding inside an attribute *)
  let bad_ty = Attr.dynamic ~dialect:"cmath" ~name:"complex" [ Attr.int 1L ] in
  verify_err ctx
    (Graph.Op.create ~attrs:[ ("t", Attr.typ bad_ty) ] "t.x");
  (* ... inside an array attribute *)
  verify_err ctx
    (Graph.Op.create
       ~attrs:[ ("arr", Attr.array [ Attr.typ bad_ty ]) ]
       "t.x");
  (* ... inside a function type *)
  verify_err ctx
    (Graph.Op.create
       ~result_tys:
         [ Attr.Function { inputs = [ bad_ty ]; outputs = []; hash = 0 } ]
       "t.x");
  (* ... as a dynamic-type parameter of another dynamic type *)
  verify_err ctx
    (Graph.Op.create
       ~result_tys:
         [ Attr.dynamic ~dialect:"x" ~name:"wrap" [ Attr.typ bad_ty ] ]
       "t.x")

let nested_attr_verification () =
  let ctx = cmath_ctx () in
  let bad =
    Attr.Dyn_attr
      { dialect = "cmath"; name = "StringAttr"; params = []; hash = 0 }
  in
  verify_err ~containing:"expects 1 parameters" ctx
    (Graph.Op.create ~attrs:[ ("a", bad) ] "t.x");
  verify_err ctx
    (Graph.Op.create ~attrs:[ ("a", Attr.dict [ ("inner", bad) ]) ] "t.x")

let strict_context () =
  let ctx = Context.create ~allow_unregistered:false () in
  verify_err ~containing:"unregistered type" ctx
    (Graph.Op.create
       ~result_tys:[ Attr.dynamic ~dialect:"ghost" ~name:"t" [] ]
       "ghost.op")

let verify_all_collects () =
  let ctx = cmath_ctx () in
  let v1 = Graph.Op.create ~result_tys:[ complex_f32 ] "t.v" in
  let v2 = Graph.Op.create ~result_tys:[ complex_f64 ] "t.v" in
  let blk = Graph.Block.create () in
  Graph.Block.append blk v1;
  Graph.Block.append blk v2;
  (* two independent failures *)
  Graph.Block.append blk
    (Graph.Op.create
       ~operands:[ Graph.Op.result v1 0; Graph.Op.result v2 0 ]
       ~result_tys:[ complex_f32 ] "cmath.mul");
  Graph.Block.append blk
    (Graph.Op.create ~operands:[ Graph.Op.result v1 0 ]
       ~result_tys:[ Attr.f64 ] "cmath.norm");
  let wrap =
    Graph.Op.create ~regions:[ Graph.Region.create ~blocks:[ blk ] () ] "t.w"
  in
  let diags = Verifier.verify_all ctx wrap in
  Alcotest.(check int) "two diagnostics" 2 (List.length diags);
  (* verify stops at the first *)
  match Verifier.verify ctx wrap with
  | Ok () -> Alcotest.fail "expected failure"
  | Error _ -> ()

let is_terminator_fallback () =
  (* unregistered ops with successors count as terminators structurally *)
  let ctx = Context.create () in
  let blk = Graph.Block.create () in
  let b2 = Graph.Block.create () in
  let region = Graph.Region.create ~blocks:[ blk; b2 ] () in
  Graph.Block.append blk (Graph.Op.create ~successors:[ b2 ] "x.br");
  Graph.Block.append b2 (Graph.Op.create "x.end");
  let wrap = Graph.Op.create ~regions:[ region ] "t.w" in
  verify_ok ctx wrap

let mk_i32s n =
  List.init n (fun _ ->
      Graph.Op.result (Graph.Op.create ~result_tys:[ Attr.i32 ] "t.v") 0)

let empty_block_with_terminator_requirement () =
  let ctx = cmath_ctx () in
  let blk = Graph.Block.create ~arg_tys:[ Attr.i32 ] () in
  (* body block exists but is empty: terminator requirement fails *)
  let v = mk_i32s 3 in
  let loop =
    Graph.Op.create ~operands:v
      ~regions:[ Graph.Region.create ~blocks:[ blk ] () ]
      "cmath.range_loop"
  in
  verify_err ~containing:"must end with" ctx loop

let multi_block_region_with_terminator_requirement () =
  let ctx = cmath_ctx () in
  let b1 = Graph.Block.create ~arg_tys:[ Attr.i32 ] () in
  Graph.Block.append b1 (Graph.Op.create "cmath.range_loop_terminator");
  let b2 = Graph.Block.create () in
  Graph.Block.append b2 (Graph.Op.create "cmath.range_loop_terminator");
  let loop =
    Graph.Op.create ~operands:(mk_i32s 3)
      ~regions:[ Graph.Region.create ~blocks:[ b1; b2 ] () ]
      "cmath.range_loop"
  in
  verify_err ~containing:"single block" ctx loop

let region_arg_count () =
  let ctx = cmath_ctx () in
  let blk = Graph.Block.create ~arg_tys:[ Attr.i32; Attr.i32 ] () in
  Graph.Block.append blk (Graph.Op.create "cmath.range_loop_terminator");
  let loop =
    Graph.Op.create ~operands:(mk_i32s 3)
      ~regions:[ Graph.Region.create ~blocks:[ blk ] () ]
      "cmath.range_loop"
  in
  verify_err ~containing:"region argument" ctx loop

let function_types_verified () =
  let ctx = Context.create ~allow_unregistered:false () in
  let _ = check_ok "load" (Irdl_core.Irdl.load_one ctx "Dialect d { Type t {} }") in
  (* !d.t with wrong arity nested in tuple *)
  verify_err ctx
    (Graph.Op.create
       ~result_tys:
         [
           Attr.Tuple
             { elems = [ Attr.dynamic ~dialect:"d" ~name:"t" [ Attr.int 1L ] ];
               hash = 0 };
         ]
       "d.op")

let suite =
  [
    tc "terminators must be last" terminator_placement;
    tc "successors stay in their region" successors_cross_region;
    tc "types nested in attributes are verified" nested_type_verification;
    tc "attributes nested in attributes are verified" nested_attr_verification;
    tc "strict contexts reject unregistered types" strict_context;
    tc "verify_all collects every failure" verify_all_collects;
    tc "unregistered ops with successors are terminators"
      is_terminator_fallback;
    tc "empty region vs terminator requirement"
      empty_block_with_terminator_requirement;
    tc "single-block requirement" multi_block_region_with_terminator_requirement;
    tc "region argument arity" region_arg_count;
    tc "types nested in aggregates are verified" function_types_verified;
  ]
