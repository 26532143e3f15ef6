(** Tests for dynamic registration and the generated verifiers: arity,
    variadic segmentation, attributes, regions, successors, and IRDL-C++
    op hooks — the runtime analog of Listing 2. *)

open Irdl_ir
open Util

let mk_vals tys =
  List.map
    (fun ty -> Graph.Op.result (Graph.Op.create ~result_tys:[ ty ] "t.v") 0)
    tys

let dialect_with_ops src =
  let ctx, _ = load_dialect src in
  ctx

(* ---------------- arity and types ---------------- *)

let binary_src =
  {|Dialect d {
      Operation add {
        ConstraintVars (T: !AnyOf<!i32, !f32>)
        Operands (lhs: !T, rhs: !T)
        Results (r: !T)
      }
    }|}

let fixed_arity () =
  let ctx = dialect_with_ops binary_src in
  let v2 = mk_vals [ Attr.i32; Attr.i32 ] in
  verify_ok ctx (Graph.Op.create ~operands:v2 ~result_tys:[ Attr.i32 ] "d.add");
  verify_err ~containing:"expects 2 operands" ctx
    (Graph.Op.create ~operands:(mk_vals [ Attr.i32 ]) ~result_tys:[ Attr.i32 ]
       "d.add");
  verify_err ~containing:"expects 1 results" ctx
    (Graph.Op.create ~operands:v2 "d.add")

let constraint_var_equality () =
  let ctx = dialect_with_ops binary_src in
  verify_err ~containing:"already bound" ctx
    (Graph.Op.create
       ~operands:(mk_vals [ Attr.i32; Attr.f32 ])
       ~result_tys:[ Attr.i32 ] "d.add");
  (* result participates in the same environment *)
  verify_err ~containing:"already bound" ctx
    (Graph.Op.create
       ~operands:(mk_vals [ Attr.i32; Attr.i32 ])
       ~result_tys:[ Attr.f32 ] "d.add");
  (* var's own constraint enforced *)
  verify_err ~containing:"constraint variable T" ctx
    (Graph.Op.create
       ~operands:(mk_vals [ Attr.f64; Attr.f64 ])
       ~result_tys:[ Attr.f64 ] "d.add")

(* ---------------- variadic segmentation ---------------- *)

let variadic_src =
  {|Dialect d {
      Operation concat {
        Operands (first: !i32, rest: Variadic<!f32>)
        Results (r: !i32)
      }
      Operation opt {
        Operands (x: Optional<!i32>)
      }
      Operation multi {
        Operands (a: Variadic<!i32>, b: Variadic<!f32>)
      }
    }|}

let single_variadic_inferred () =
  let ctx = dialect_with_ops variadic_src in
  let mk n =
    Graph.Op.create
      ~operands:(mk_vals (Attr.i32 :: List.init n (fun _ -> Attr.f32)))
      ~result_tys:[ Attr.i32 ] "d.concat"
  in
  verify_ok ctx (mk 0);
  verify_ok ctx (mk 3);
  verify_err ~containing:"at least 1" ctx
    (Graph.Op.create ~operands:[] ~result_tys:[ Attr.i32 ] "d.concat");
  (* group elements are type-checked *)
  verify_err ctx
    (Graph.Op.create
       ~operands:(mk_vals [ Attr.i32; Attr.i32 ])
       ~result_tys:[ Attr.i32 ] "d.concat")

let optional_at_most_one () =
  let ctx = dialect_with_ops variadic_src in
  verify_ok ctx (Graph.Op.create "d.opt");
  verify_ok ctx (Graph.Op.create ~operands:(mk_vals [ Attr.i32 ]) "d.opt");
  verify_err ~containing:"optional" ctx
    (Graph.Op.create ~operands:(mk_vals [ Attr.i32; Attr.i32 ]) "d.opt")

let multi_variadic_needs_segments () =
  let ctx = dialect_with_ops variadic_src in
  let operands = mk_vals [ Attr.i32; Attr.f32; Attr.f32 ] in
  verify_err ~containing:"operandSegmentSizes" ctx
    (Graph.Op.create ~operands "d.multi");
  let seg sizes =
    ("operandSegmentSizes",
     Attr.array (List.map (fun n -> Attr.int (Int64.of_int n)) sizes))
  in
  verify_ok ctx (Graph.Op.create ~operands ~attrs:[ seg [ 1; 2 ] ] "d.multi");
  verify_err ~containing:"sums to" ctx
    (Graph.Op.create ~operands ~attrs:[ seg [ 1; 1 ] ] "d.multi");
  verify_err ~containing:"entries" ctx
    (Graph.Op.create ~operands ~attrs:[ seg [ 1; 1; 1 ] ] "d.multi");
  (* segmentation must also respect element types *)
  verify_err ctx (Graph.Op.create ~operands ~attrs:[ seg [ 2; 1 ] ] "d.multi")

let variadic_results () =
  let ctx =
    dialect_with_ops
      {|Dialect d { Operation f { Results (rs: Variadic<!i32>) } }|}
  in
  verify_ok ctx (Graph.Op.create "d.f");
  verify_ok ctx (Graph.Op.create ~result_tys:[ Attr.i32; Attr.i32 ] "d.f");
  verify_err ctx (Graph.Op.create ~result_tys:[ Attr.f32 ] "d.f")

let multi_variadic_results_need_segments () =
  let ctx =
    dialect_with_ops
      {|Dialect d {
          Operation g { Results (a: Variadic<!i32>, b: Variadic<!f32>) }
        }|}
  in
  let tys = [ Attr.i32; Attr.f32; Attr.f32 ] in
  verify_err ~containing:"resultSegmentSizes" ctx
    (Graph.Op.create ~result_tys:tys "d.g");
  let seg sizes =
    ("resultSegmentSizes",
     Attr.array (List.map (fun n -> Attr.int (Int64.of_int n)) sizes))
  in
  verify_ok ctx (Graph.Op.create ~result_tys:tys ~attrs:[ seg [ 1; 2 ] ] "d.g");
  (* segmentation must respect element types *)
  verify_err ctx
    (Graph.Op.create ~result_tys:tys ~attrs:[ seg [ 2; 1 ] ] "d.g")

(* ---------------- attributes ---------------- *)

let attrs_src =
  {|Dialect d {
      Operation c {
        Attributes (value: i32_attr, doc: Optional<string>)
      }
    }|}

let required_attrs () =
  let ctx = dialect_with_ops attrs_src in
  let value = ("value", Attr.int ~ty:Attr.i32 1L) in
  verify_ok ctx (Graph.Op.create ~attrs:[ value ] "d.c");
  verify_err ~containing:"requires attribute 'value'" ctx
    (Graph.Op.create "d.c");
  verify_err ~containing:"attribute 'value'" ctx
    (Graph.Op.create ~attrs:[ ("value", Attr.string "no") ] "d.c")

let optional_attrs () =
  let ctx = dialect_with_ops attrs_src in
  let value = ("value", Attr.int ~ty:Attr.i32 1L) in
  verify_ok ctx
    (Graph.Op.create ~attrs:[ value; ("doc", Attr.string "hi") ] "d.c");
  (* present but ill-typed optional attr is still an error *)
  verify_err ctx
    (Graph.Op.create ~attrs:[ value; ("doc", Attr.int 1L) ] "d.c");
  (* extra attributes are allowed, like MLIR's discardable attrs *)
  verify_ok ctx
    (Graph.Op.create ~attrs:[ value; ("extra", Attr.Unit) ] "d.c")

(* ---------------- regions and successors ---------------- *)

let region_count () =
  let ctx = cmath_ctx () in
  verify_err ~containing:"expects 1 regions" ctx
    (Graph.Op.create ~operands:(mk_vals [ Attr.i32; Attr.i32; Attr.i32 ])
       "cmath.range_loop")

let successor_count () =
  let ctx = cmath_ctx () in
  let cond = mk_vals [ Attr.i1 ] in
  (* detached op: structural check is skipped, successor count isn't *)
  verify_err ~containing:"expects 2 successors" ctx
    (Graph.Op.create ~operands:cond "cmath.conditional_branch")

let non_terminator_successors () =
  let ctx = cmath_ctx () in
  let blk1 = Graph.Block.create () in
  let blk2 = Graph.Block.create () in
  let region = Graph.Region.create ~blocks:[ blk1; blk2 ] () in
  let wrap = Graph.Op.create ~regions:[ region ] "t.wrap" in
  let v = Graph.Op.create ~result_tys:[ complex_f32 ] "t.v" in
  Graph.Block.append blk1 v;
  let norm =
    Graph.Op.create ~operands:[ Graph.Op.result v 0 ] ~result_tys:[ Attr.f32 ]
      ~successors:[ blk2 ] "cmath.norm"
  in
  Graph.Block.append blk1 norm;
  verify_err ~containing:"not a terminator" ctx wrap

let type_def_verifiers () =
  let ctx = cmath_ctx () in
  (* wrong parameter count *)
  verify_err ~containing:"expects 1 parameters" ctx
    (Graph.Op.create
       ~result_tys:[ Attr.dynamic ~dialect:"cmath" ~name:"complex" [] ]
       "t.v");
  (* wrong parameter kind *)
  verify_err ctx
    (Graph.Op.create
       ~result_tys:
         [ Attr.dynamic ~dialect:"cmath" ~name:"complex" [ Attr.int 3L ] ]
       "t.v")

let attr_def_verifiers () =
  let ctx = cmath_ctx () in
  let good =
    Attr.Dyn_attr
      { dialect = "cmath"; name = "StringAttr";
        params = [ Attr.opaque ~tag:"StringParam" "x" ]; hash = 0 }
  in
  verify_ok ctx (Graph.Op.create ~attrs:[ ("a", good) ] "t.v");
  let bad =
    Attr.Dyn_attr
      { dialect = "cmath"; name = "StringAttr"; params = [ Attr.int 1L ];
        hash = 0 }
  in
  verify_err ctx (Graph.Op.create ~attrs:[ ("a", bad) ] "t.v")

let op_cpp_hooks () =
  (* The append_vector size invariant from Listing 10. *)
  let ctx = cmath_ctx () in
  let bv n =
    Attr.dynamic ~dialect:"cmath" ~name:"BoundedVector"
      [ Attr.typ Attr.f32;
        Attr.Int { value = Int64.of_int n;
                   ty = Attr.integer ~signedness:Attr.Unsigned 32 } ]
  in
  let mk a b c =
    Graph.Op.create
      ~operands:(mk_vals [ bv a; bv b ])
      ~result_tys:[ bv c ] "cmath.append_vector"
  in
  verify_ok ctx (mk 2 3 5);
  verify_err ~containing:"native constraint" ctx (mk 2 3 4)

let unregistered_dialect_policy () =
  let ctx = Context.create ~allow_unregistered:false () in
  verify_err ~containing:"unregistered operation" ctx
    (Graph.Op.create "nope.op");
  let ctx' = Context.create () in
  verify_ok ctx' (Graph.Op.create "nope.op")

let duplicate_registration_rejected () =
  let ctx = Context.create () in
  let src = {|Dialect d { Operation o {} }|} in
  let _ = check_ok "first" (Irdl_core.Irdl.load_one ctx src) in
  check_err_containing "second" "already registered"
    (Irdl_core.Irdl.load_one ctx src)

let registration_summary_metadata () =
  let ctx = cmath_ctx () in
  match Context.lookup_op ctx "cmath.mul" with
  | Some od ->
      Alcotest.(check string) "summary" "Multiply two complex numbers"
        od.od_summary;
      Alcotest.(check bool) "not terminator" false od.od_is_terminator;
      Alcotest.(check bool) "has format" true (od.od_format <> None)
  | None -> Alcotest.fail "cmath.mul not registered"

let terminator_metadata () =
  let ctx = cmath_ctx () in
  match Context.lookup_op ctx "cmath.conditional_branch" with
  | Some od -> Alcotest.(check bool) "terminator" true od.od_is_terminator
  | None -> Alcotest.fail "missing op"

let region_arg_variadic () =
  let ctx =
    dialect_with_ops
      {|Dialect d {
          Operation stop { Successors () }
          Operation loop {
            Region body {
              Arguments (iv: !i32, rest: Variadic<!f32>)
              Terminator stop
            }
          }
        }|}
  in
  let mk arg_tys =
    let blk = Graph.Block.create ~arg_tys () in
    Graph.Block.append blk (Graph.Op.create "d.stop");
    Graph.Op.create ~regions:[ Graph.Region.create ~blocks:[ blk ] () ] "d.loop"
  in
  verify_ok ctx (mk [ Attr.i32 ]);
  verify_ok ctx (mk [ Attr.i32; Attr.f32; Attr.f32 ]);
  verify_err ctx (mk [ Attr.f32 ]);
  verify_err ctx (mk [ Attr.i32; Attr.i32 ])

(* ---------------- assign_slots edge cases (direct) ---------------- *)

module CE = Irdl_core.Constraint_expr

let slot name c =
  { Irdl_core.Resolve.s_name = name; s_constraint = c;
    s_loc = Irdl_support.Loc.unknown }

(* Two variadic groups around a required slot: the shape that cannot be
   inferred and must carry operandSegmentSizes. *)
let two_variadic_slots =
  [
    slot "a" (CE.Variadic (CE.Eq (Attr.typ Attr.i32)));
    slot "b" (CE.Eq (Attr.typ Attr.f32));
    slot "c" (CE.Variadic (CE.Eq (Attr.typ Attr.i32)));
  ]

let seg_sizes sizes =
  ("operandSegmentSizes",
   Attr.array (List.map (fun i -> Attr.int (Int64.of_int i)) sizes))

let assign ?attrs slots n_values =
  let op = Graph.Op.create ?attrs "d.x" in
  Irdl_core.Registration.assign_slots ~what:"operand"
    ~seg_attr:"operandSegmentSizes" ~op slots
    (List.init n_values (fun i -> i))

let assign_slots_missing_segments () =
  check_err_containing "missing attribute" "operandSegmentSizes"
    (assign two_variadic_slots 3)

let assign_slots_wrong_group_count () =
  check_err_containing "too few entries" "2 entries but"
    (assign ~attrs:[ seg_sizes [ 2; 1 ] ] two_variadic_slots 3);
  check_err_containing "too many entries" "4 entries but"
    (assign ~attrs:[ seg_sizes [ 1; 1; 1; 0 ] ] two_variadic_slots 3)

let assign_slots_sum_mismatch () =
  check_err_containing "sum too small" "sums to 2 but"
    (assign ~attrs:[ seg_sizes [ 1; 1; 0 ] ] two_variadic_slots 3);
  check_err_containing "sum too large" "sums to 5 but"
    (assign ~attrs:[ seg_sizes [ 2; 1; 2 ] ] two_variadic_slots 3);
  check_err_containing "non-variadic segment must be 1"
    "must be 1"
    (assign ~attrs:[ seg_sizes [ 1; 0; 2 ] ] two_variadic_slots 3)

let assign_slots_zero_length_optional () =
  let slots =
    [
      slot "a" (CE.Optional (CE.Eq (Attr.typ Attr.i32)));
      slot "b" (CE.Eq (Attr.typ Attr.f32));
      slot "c" (CE.Variadic (CE.Eq (Attr.typ Attr.i32)));
    ]
  in
  (* Zero-length optional segment is legal and yields an empty group. *)
  (match assign ~attrs:[ seg_sizes [ 0; 1; 2 ] ] slots 3 with
  | Ok groups ->
      Alcotest.(check (list (list int)))
        "grouping" [ []; [ 0 ]; [ 1; 2 ] ] groups
  | Error d -> Alcotest.failf "unexpected: %s" (Irdl_support.Diag.to_string d));
  (* ... but an optional segment can never take more than one value. *)
  check_err_containing "optional segment > 1" "at most 1"
    (assign ~attrs:[ seg_sizes [ 2; 1; 0 ] ] slots 3);
  (* Empty variadic groups on both sides of a required slot. *)
  match assign ~attrs:[ seg_sizes [ 0; 1; 0 ] ] two_variadic_slots 1 with
  | Ok groups ->
      Alcotest.(check (list (list int))) "all-empty" [ []; [ 0 ]; [] ] groups
  | Error d -> Alcotest.failf "unexpected: %s" (Irdl_support.Diag.to_string d)

let assign_slots_non_array_segments () =
  check_err_containing "segment attr must be an array" "array attribute"
    (assign
       ~attrs:[ ("operandSegmentSizes", Attr.int 3L) ]
       two_variadic_slots 3);
  check_err_containing "segment entries must be ints" "array of integers"
    (assign
       ~attrs:[ ("operandSegmentSizes", Attr.array [ Attr.string "x" ]) ]
       two_variadic_slots 3)

let suite =
  [
    tc "fixed arity checks" fixed_arity;
    tc "constraint variables enforce equal types" constraint_var_equality;
    tc "single variadic group is inferred" single_variadic_inferred;
    tc "optional operand is 0 or 1" optional_at_most_one;
    tc "multiple variadics need operandSegmentSizes" multi_variadic_needs_segments;
    tc "variadic results" variadic_results;
    tc "multiple variadic results need resultSegmentSizes"
      multi_variadic_results_need_segments;
    tc "required attributes" required_attrs;
    tc "optional attributes" optional_attrs;
    tc "region count" region_count;
    tc "successor count" successor_count;
    tc "successors only on terminators" non_terminator_successors;
    tc "type definition verifiers" type_def_verifiers;
    tc "attribute definition verifiers (native params)" attr_def_verifiers;
    tc "op-level IRDL-C++ hooks" op_cpp_hooks;
    tc "unregistered-dialect policy" unregistered_dialect_policy;
    tc "duplicate registration rejected" duplicate_registration_rejected;
    tc "op metadata: summary and format" registration_summary_metadata;
    tc "op metadata: terminators" terminator_metadata;
    tc "variadic region arguments" region_arg_variadic;
    tc "assign_slots: missing operandSegmentSizes" assign_slots_missing_segments;
    tc "assign_slots: wrong segment count" assign_slots_wrong_group_count;
    tc "assign_slots: segment sum mismatch" assign_slots_sum_mismatch;
    tc "assign_slots: zero-length optional segment"
      assign_slots_zero_length_optional;
    tc "assign_slots: malformed segment attribute"
      assign_slots_non_array_segments;
  ]
