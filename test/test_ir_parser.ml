(** Tests for the generic IR-syntax parser. *)

open Irdl_ir
open Util

let fresh () = Context.create ()

let parse_ty src =
  check_ok ("type " ^ src) (Parser.parse_type_string (fresh ()) src)

let parse_at src =
  check_ok ("attr " ^ src) (Parser.parse_attr_string (fresh ()) src)

let types_builtin () =
  Alcotest.(check bool) "i32" true (Attr.equal_ty Attr.i32 (parse_ty "i32"));
  Alcotest.(check bool) "si8" true
    (Attr.equal_ty (Attr.integer ~signedness:Attr.Signed 8) (parse_ty "si8"));
  Alcotest.(check bool) "ui64" true
    (Attr.equal_ty (Attr.integer ~signedness:Attr.Unsigned 64) (parse_ty "ui64"));
  Alcotest.(check bool) "f16" true (Attr.equal_ty Attr.f16 (parse_ty "f16"));
  Alcotest.(check bool) "index" true
    (Attr.equal_ty Attr.Index (parse_ty "index"));
  Alcotest.(check bool) "none" true
    (Attr.equal_ty Attr.None_ty (parse_ty "none"))

let types_composite () =
  Alcotest.(check bool) "tuple" true
    (Attr.equal_ty
       (Attr.Tuple { elems = [ Attr.i32; Attr.f32 ]; hash = 0 })
       (parse_ty "tuple<i32, f32>"));
  Alcotest.(check bool) "empty tuple" true
    (Attr.equal_ty (Attr.Tuple { elems = []; hash = 0 }) (parse_ty "tuple<>"));
  Alcotest.(check bool) "function" true
    (Attr.equal_ty
       (Attr.Function { inputs = [ Attr.i32 ]; outputs = [ Attr.f32 ]; hash = 0 })
       (parse_ty "(i32) -> f32"));
  Alcotest.(check bool) "function parens" true
    (Attr.equal_ty
       (Attr.Function { inputs = []; outputs = [ Attr.f32; Attr.i32 ]; hash = 0 })
       (parse_ty "() -> (f32, i32)"))

let types_dynamic () =
  Alcotest.(check bool) "no params" true
    (Attr.equal_ty
       (Attr.dynamic ~dialect:"cmath" ~name:"complex" [])
       (parse_ty "!cmath.complex"));
  Alcotest.(check bool) "ty param" true
    (Attr.equal_ty complex_f32 (parse_ty "!cmath.complex<f32>"));
  Alcotest.(check bool) "attr params" true
    (Attr.equal_ty
       (Attr.dynamic ~dialect:"d" ~name:"t"
          [ Attr.int ~ty:Attr.i64 4L; Attr.string "x" ])
       (parse_ty "!d.t<4 : i64, \"x\">"))

let type_errors () =
  ignore
    (check_err "unknown" (Parser.parse_type_string (fresh ()) "f99"));
  ignore
    (check_err "unqualified bang" (Parser.parse_type_string (fresh ()) "!foo"));
  ignore (check_err "trailing" (Parser.parse_type_string (fresh ()) "i32 i32"))

let attrs_scalars () =
  Alcotest.(check bool) "typed int" true
    (Attr.equal (Attr.int ~ty:Attr.i32 3L) (parse_at "3 : i32"));
  Alcotest.(check bool) "default i64" true
    (Attr.equal (Attr.int 3L) (parse_at "3"));
  Alcotest.(check bool) "negative" true
    (Attr.equal (Attr.int (-5L)) (parse_at "-5"));
  Alcotest.(check bool) "float" true
    (Attr.equal (Attr.float ~ty:Attr.f32 1.5) (parse_at "1.5 : f32"));
  Alcotest.(check bool) "hex float" true
    (Attr.equal (Attr.float 3.14) (parse_at (Attr.to_string (Attr.float 3.14))));
  Alcotest.(check bool) "string" true
    (Attr.equal (Attr.string "a\nb") (parse_at "\"a\\nb\""));
  Alcotest.(check bool) "bools" true (Attr.equal (Attr.bool true) (parse_at "true"));
  Alcotest.(check bool) "unit" true (Attr.equal Attr.Unit (parse_at "unit"));
  Alcotest.(check bool) "symbol" true
    (Attr.equal (Attr.symbol "f") (parse_at "@f"))

let attrs_aggregates () =
  Alcotest.(check bool) "array" true
    (Attr.equal
       (Attr.array [ Attr.int 1L; Attr.string "s" ])
       (parse_at "[1, \"s\"]"));
  Alcotest.(check bool) "dict" true
    (Attr.equal
       (Attr.dict [ ("a", Attr.int 1L) ])
       (parse_at "{a = 1}"));
  Alcotest.(check bool) "nested" true
    (Attr.equal
       (Attr.array [ Attr.array []; Attr.dict [] ])
       (parse_at "[[], {}]"))

let attrs_special () =
  Alcotest.(check bool) "type attr" true
    (Attr.equal (Attr.typ Attr.f32) (parse_at "f32"));
  Alcotest.(check bool) "enum" true
    (Attr.equal
       (Attr.enum ~dialect:"cmath" ~enum:"signedness" "Signed")
       (parse_at "#cmath<signedness.Signed>"));
  Alcotest.(check bool) "dyn attr" true
    (Attr.equal
       (Attr.Dyn_attr
          { dialect = "d"; name = "a"; params = [ Attr.int 1L ]; hash = 0 })
       (parse_at "#d.a<1>"));
  Alcotest.(check bool) "opaque" true
    (Attr.equal (Attr.opaque ~tag:"P" "body") (parse_at "#native<P, \"body\">"));
  Alcotest.(check bool) "typeid" true
    (Attr.equal (Attr.Type_id "X") (parse_at "#typeid<X>"));
  Alcotest.(check bool) "loc" true
    (Attr.equal
       (Attr.Location { file = "f.ml"; line = 1; col = 2 })
       (parse_at "loc(\"f.ml\":1:2)"))

let simple_op () =
  let ctx = fresh () in
  let op = parse_op ctx {|%a, %b = "t.op"() {k = 1 : i32} : () -> (i32, f32)|} in
  Alcotest.(check string) "name" "t.op" (Graph.Op.name op);
  Alcotest.(check int) "results" 2 (Graph.Op.num_results op);
  Alcotest.(check bool) "attr" true
    (Graph.Op.attr op "k" = Some (Attr.int ~ty:Attr.i32 1L))

let operands_resolve () =
  let ctx = fresh () in
  let ops =
    check_ok "ops"
      (Parser.parse_ops ctx
         {|
%x = "t.def"() : () -> i32
"t.use"(%x, %x) : (i32, i32) -> ()
|})
  in
  match ops with
  | [ def; use ] ->
      let v = Graph.Op.result def 0 in
      Alcotest.(check bool) "same value" true
        (List.for_all (Graph.Value.equal v) (Graph.Op.operands use))
  | _ -> Alcotest.fail "expected two ops"

let regions_and_blocks () =
  let ctx = fresh () in
  let op =
    parse_op ctx
      {|
"t.wrap"() ({
^bb0(%a: i32):
  "t.br"()[^bb1] : () -> ()
^bb1:
  "t.end"() : () -> ()
}) : () -> ()
|}
  in
  match op.Graph.regions with
  | [ r ] -> (
      Alcotest.(check int) "blocks" 2 (Graph.Region.num_blocks r);
      match Graph.Region.blocks r with
      | [ b0; b1 ] -> (
          Alcotest.(check int) "args" 1 (List.length (Graph.Block.args b0));
          match Graph.Block.ops b0 with
          | [ br ] ->
              Alcotest.(check bool) "successor" true
                (List.exists (fun (s : Graph.block) -> s == b1)
                   br.Graph.successors)
          | _ -> Alcotest.fail "expected one op in bb0")
      | _ -> Alcotest.fail "expected two blocks")
  | _ -> Alcotest.fail "expected one region"

let forward_block_reference () =
  (* ^bb1 is referenced before its label appears — must resolve. *)
  let ctx = fresh () in
  let op =
    parse_op ctx
      {|
"t.wrap"() ({
^bb0:
  "t.br"()[^bb2] : () -> ()
^bb2:
  "t.end"() : () -> ()
}) : () -> ()
|}
  in
  verify_ok ctx op

let forward_value_reference () =
  (* Values may be used textually before their definition within a region. *)
  let ctx = fresh () in
  let op =
    parse_op ctx
      {|
"t.wrap"() ({
^bb0:
  "t.use"(%later) : (i32) -> ()
  %later = "t.def"() : () -> i32
}) : () -> ()
|}
  in
  let uses = ref 0 in
  Graph.Op.walk op ~f:(fun o ->
      if Graph.Op.name o = "t.use" then
        match Graph.Op.operands o with
        | [ v ] ->
            incr uses;
            Alcotest.(check bool) "type patched" true
              (Attr.equal_ty Attr.i32 (Graph.Value.ty v));
            Alcotest.(check bool) "def patched" true
              (Graph.Value.defining_op v <> None)
        | _ -> Alcotest.fail "one operand expected");
  Alcotest.(check int) "found use" 1 !uses

let undefined_value_rejected () =
  let ctx = fresh () in
  check_err_containing "undef value" "undefined value"
    (Parser.parse_ops ctx {|"t.use"(%nope) : (i32) -> ()|})

let undefined_block_rejected () =
  let ctx = fresh () in
  check_err_containing "undef block" "undefined block"
    (Parser.parse_ops ctx
       {|
"t.wrap"() ({
^bb0:
  "t.br"()[^nowhere] : () -> ()
}) : () -> ()
|})

let multiple_regions () =
  let ctx = fresh () in
  let op =
    parse_op ctx
      {|"t.if"() ({ "t.a"() : () -> () }, { "t.b"() : () -> () }) : () -> ()|}
  in
  Alcotest.(check int) "regions" 2 (List.length op.Graph.regions)

let empty_region () =
  let ctx = fresh () in
  let op = parse_op ctx {|"t.x"() ({}) : () -> ()|} in
  match op.Graph.regions with
  | [ r ] -> Alcotest.(check int) "no blocks" 0 (Graph.Region.num_blocks r)
  | _ -> Alcotest.fail "expected one region"

let operand_type_mismatch () =
  let ctx = fresh () in
  check_err_containing "mismatch" "declared with"
    (Parser.parse_ops ctx
       {|
%x = "t.def"() : () -> i32
"t.use"(%x) : (f32) -> ()
|})

let arity_mismatch () =
  let ctx = fresh () in
  check_err_containing "counts" "operand types"
    (Parser.parse_ops ctx {|"t.use"() : (f32) -> ()|});
  let ctx = fresh () in
  check_err_containing "result binding" "results"
    (Parser.parse_ops ctx {|%a, %b = "t.def"() : () -> i32|})

let comments_skipped () =
  let ctx = fresh () in
  let ops =
    check_ok "comments"
      (Parser.parse_ops ctx
         {|
// leading comment
%x = "t.def"() : () -> i32 // trailing
// done
|})
  in
  Alcotest.(check int) "one op" 1 (List.length ops)

let custom_format_parse () =
  let ctx = cmath_ctx () in
  let ops =
    check_ok "custom"
      (Parser.parse_ops ctx
         {|
"t.wrap"() ({
^bb0(%p: !cmath.complex<f64>):
  %m = cmath.mul %p, %p : f64
  %n = cmath.norm %m : f64
}) : () -> ()
|})
  in
  List.iter (verify_ok ctx) ops

let custom_format_requires_registration () =
  let ctx = fresh () in
  check_err_containing "unknown custom" "unknown operation"
    (Parser.parse_ops ctx "%x = nope.op %x : f32")

let custom_format_type_mismatch () =
  let ctx = cmath_ctx () in
  check_err_containing "elem mismatch" "expected"
    (Parser.parse_ops ctx
       {|
"t.wrap"() ({
^bb0(%p: !cmath.complex<f64>):
  %m = cmath.mul %p, %p : f32
}) : () -> ()
|})

let suite =
  [
    tc "builtin types" types_builtin;
    tc "composite types" types_composite;
    tc "dynamic types" types_dynamic;
    tc "type errors" type_errors;
    tc "scalar attributes" attrs_scalars;
    tc "aggregate attributes" attrs_aggregates;
    tc "special attributes" attrs_special;
    tc "simple generic op" simple_op;
    tc "operand resolution" operands_resolve;
    tc "regions, blocks, successors" regions_and_blocks;
    tc "forward block references" forward_block_reference;
    tc "forward value references" forward_value_reference;
    tc "undefined value rejected" undefined_value_rejected;
    tc "undefined block rejected" undefined_block_rejected;
    tc "multiple regions" multiple_regions;
    tc "empty region" empty_region;
    tc "operand type mismatch" operand_type_mismatch;
    tc "arity mismatches" arity_mismatch;
    tc "comments are skipped" comments_skipped;
    tc "custom format parsing" custom_format_parse;
    tc "custom form requires registration" custom_format_requires_registration;
    tc "custom format type checking" custom_format_type_mismatch;
  ]
