(** Tests for the IR printer: custom formats, generic fallback, and
    print/parse round-trips. *)

open Irdl_ir
open Util

(* tiny local substring helper *)
module Astring_contains = struct
  let contains hay needle =
    let hl = String.length hay and nl = String.length needle in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    nl = 0 || go 0
end

let roundtrip ?generic ctx op =
  let printed = Printer.op_to_string ?generic ctx op in
  let reparsed = parse_op ctx printed in
  (printed, reparsed)

let generic_form () =
  let ctx = Context.create () in
  let def = Graph.Op.create ~result_tys:[ Attr.i32 ] "t.def" in
  let use =
    Graph.Op.create
      ~operands:[ Graph.Op.result def 0 ]
      ~attrs:[ ("k", Attr.string "v") ]
      "t.use"
  in
  ignore (Printer.op_to_string ctx def);
  let s = Printer.op_to_string ctx use in
  (* operand name is assigned independently per printer; structure matters *)
  Alcotest.(check bool) "quoted name" true
    (String.length s > 0 && s.[0] = '"');
  Alcotest.(check bool) "attr dict" true
    (Astring_contains.contains s {|k = "v"|})

let custom_format_printing () =
  let ctx = cmath_ctx () in
  let p = Graph.Op.create ~result_tys:[ complex_f32 ] "t.def" in
  let mul =
    Graph.Op.create
      ~operands:[ Graph.Op.result p 0; Graph.Op.result p 0 ]
      ~result_tys:[ complex_f32 ] "cmath.mul"
  in
  let printer = Printer.create ctx in
  let _ = Printer.value_name printer (Graph.Op.result p 0) in
  let s = Fmt.str "%a" (Printer.pp_op printer) mul in
  Alcotest.(check string) "custom" "%1 = cmath.mul %0, %0 : f32" s

let generic_flag_overrides () =
  let ctx = cmath_ctx () in
  let p = Graph.Op.create ~result_tys:[ complex_f32 ] "t.def" in
  let norm =
    Graph.Op.create
      ~operands:[ Graph.Op.result p 0 ]
      ~result_tys:[ Attr.f32 ] "cmath.norm"
  in
  let s = Printer.op_to_string ~generic:true ctx norm in
  Alcotest.(check bool) "quoted" true
    (Astring_contains.contains s "\"cmath.norm\"")

let fallback_on_invalid () =
  let ctx = cmath_ctx () in
  (* A cmath.mul over a non-complex type cannot use the format's type
     projection; printing must fall back to generic form, not fail. *)
  let x = Graph.Op.create ~result_tys:[ Attr.i32 ] "t.def" in
  let bad =
    Graph.Op.create
      ~operands:[ Graph.Op.result x 0; Graph.Op.result x 0 ]
      ~result_tys:[ Attr.i32 ] "cmath.mul"
  in
  let s = Printer.op_to_string ctx bad in
  Alcotest.(check bool) "generic fallback" true
    (Astring_contains.contains s "\"cmath.mul\"")

let roundtrip_custom () =
  let ctx = cmath_ctx () in
  let func =
    parse_op ctx
      {|
"func.func"() ({
^bb0(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>):
  %m = cmath.mul %p, %q : f32
  %n = cmath.norm %m : f32
  "func.return"(%n) : (f32) -> ()
}) {sym_name = "f"} : () -> ()
|}
  in
  let printed, reparsed = roundtrip ctx func in
  verify_ok ctx reparsed;
  let printed2, _ = roundtrip ctx reparsed in
  Alcotest.(check string) "print is stable" printed printed2

let unnamed_attr_kept () =
  let ctx = cmath_ctx () in
  let op =
    parse_op ctx
      {|
"t.wrap"() ({
^bb0(%c: !cmath.complex<f32>):
  %n = "cmath.norm"(%c) {tag = "x"} : (!cmath.complex<f32>) -> f32
}) : () -> ()
|}
  in
  (* cmath.norm's format names no attribute, so the op prints generically
     instead of dropping [tag]. *)
  let printed, reparsed = roundtrip ctx op in
  Alcotest.(check bool) "attribute printed" true
    (Astring_contains.contains printed {|{tag = "x"}|});
  let kept = ref false in
  Graph.Op.walk reparsed ~f:(fun (o : Graph.op) ->
      if o.op_name = "cmath.norm" then
        kept :=
          Option.equal Attr.equal (Graph.Op.attr o "tag")
            (Some (Attr.string "x")));
  Alcotest.(check bool) "attribute survives the round trip" true !kept

let roundtrip_generic_only () =
  let ctx = cmath_ctx () in
  let func =
    parse_op ctx
      {|
"func.func"() ({
^bb0(%p: !cmath.complex<f32>):
  %n = cmath.norm %p : f32
  "func.return"(%n) : (f32) -> ()
}) : () -> ()
|}
  in
  (* Round-trip through fully generic syntax preserves verification. *)
  let printed, reparsed = roundtrip ~generic:true ctx func in
  Alcotest.(check bool) "no custom form used" false
    (Astring_contains.contains printed "cmath.norm %");
  verify_ok ctx reparsed

let successors_printed () =
  let ctx = cmath_ctx () in
  let op =
    parse_op ctx
      {|
"t.wrap"() ({
^entry(%c: i1):
  "cmath.conditional_branch"(%c)[^a, ^b] : (i1) -> ()
^a:
  "t.end"() : () -> ()
^b:
  "t.end"() : () -> ()
}) : () -> ()
|}
  in
  let printed, reparsed = roundtrip ctx op in
  Alcotest.(check bool) "successors present" true
    (Astring_contains.contains printed "[^bb");
  verify_ok ctx reparsed

let nested_regions_roundtrip () =
  let ctx = cmath_ctx () in
  let op =
    parse_op ctx
      {|
"t.outer"() ({
^bb0(%lb: i32):
  "cmath.range_loop"(%lb, %lb, %lb) ({
  ^body(%iv: i32):
    "cmath.range_loop_terminator"() : () -> ()
  }) : (i32, i32, i32) -> ()
}) : () -> ()
|}
  in
  let _, reparsed = roundtrip ctx op in
  verify_ok ctx reparsed;
  let count = ref 0 in
  Graph.Op.walk reparsed ~f:(fun _ -> incr count);
  Alcotest.(check int) "ops preserved" 3 !count

let attrs_roundtrip () =
  let ctx = Context.create () in
  let op =
    Graph.Op.create
      ~attrs:
        [
          ("i", Attr.int ~ty:Attr.i32 7L);
          ("f", Attr.float 2.5);
          ("s", Attr.string "x\"y");
          ("arr", Attr.array [ Attr.bool false; Attr.Unit ]);
          ("d", Attr.dict [ ("n", Attr.symbol "g") ]);
          ("t", Attr.typ complex_f32);
        ]
      "t.attrs"
  in
  let _, reparsed = roundtrip ctx op in
  List.iter
    (fun (k, v) ->
      match Graph.Op.attr reparsed k with
      | Some v' ->
          Alcotest.(check bool) ("attr " ^ k) true (Attr.equal v v')
      | None -> Alcotest.failf "missing attr %s" k)
    op.Graph.attrs

let suite =
  [
    tc "generic form" generic_form;
    tc "custom format printing" custom_format_printing;
    tc "generic flag overrides formats" generic_flag_overrides;
    tc "fallback to generic on unprintable ops" fallback_on_invalid;
    tc "custom-format round trip is stable" roundtrip_custom;
    tc "custom format never drops attributes" unnamed_attr_kept;
    tc "generic round trip" roundtrip_generic_only;
    tc "successors round trip" successors_printed;
    tc "nested regions round trip" nested_regions_roundtrip;
    tc "attributes round trip" attrs_roundtrip;
  ]
