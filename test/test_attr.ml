(** Tests for the type/attribute domain. *)

open Irdl_ir
open Util

let ty = Alcotest.testable Attr.pp_ty Attr.equal_ty
let attr = Alcotest.testable Attr.pp Attr.equal

let builtin_printing () =
  Alcotest.(check string) "i32" "i32" (Attr.ty_to_string Attr.i32);
  Alcotest.(check string) "f64" "f64" (Attr.ty_to_string Attr.f64);
  Alcotest.(check string) "bf16" "bf16" (Attr.ty_to_string Attr.bf16);
  Alcotest.(check string) "index" "index" (Attr.ty_to_string Attr.Index);
  Alcotest.(check string) "none" "none" (Attr.ty_to_string Attr.None_ty);
  Alcotest.(check string) "si8" "si8"
    (Attr.ty_to_string (Attr.integer ~signedness:Attr.Signed 8));
  Alcotest.(check string) "ui16" "ui16"
    (Attr.ty_to_string (Attr.integer ~signedness:Attr.Unsigned 16))

let aggregate_printing () =
  Alcotest.(check string) "tuple" "tuple<i32, f32>"
    (Attr.ty_to_string (Attr.Tuple { elems = [ Attr.i32; Attr.f32 ]; hash = 0 }));
  Alcotest.(check string) "function" "(i32) -> (f32)"
    (Attr.ty_to_string
       (Attr.Function { inputs = [ Attr.i32 ]; outputs = [ Attr.f32 ]; hash = 0 }))

let dynamic_printing () =
  Alcotest.(check string) "no params" "!cmath.complex"
    (Attr.ty_to_string (Attr.dynamic ~dialect:"cmath" ~name:"complex" []));
  Alcotest.(check string) "with params" "!cmath.complex<f32>"
    (Attr.ty_to_string complex_f32)

let attr_printing () =
  Alcotest.(check string) "int" "3 : i32"
    (Attr.to_string (Attr.int ~ty:Attr.i32 3L));
  Alcotest.(check string) "float" "1.5 : f64" (Attr.to_string (Attr.float 1.5));
  Alcotest.(check string) "string" "\"hi\"" (Attr.to_string (Attr.string "hi"));
  Alcotest.(check string) "bool" "true" (Attr.to_string (Attr.bool true));
  Alcotest.(check string) "array" "[1 : i64, 2 : i64]"
    (Attr.to_string (Attr.array [ Attr.int 1L; Attr.int 2L ]));
  Alcotest.(check string) "symbol" "@foo" (Attr.to_string (Attr.symbol "foo"));
  Alcotest.(check string) "enum" "#cmath<signedness.Signed>"
    (Attr.to_string (Attr.enum ~dialect:"cmath" ~enum:"signedness" "Signed"));
  Alcotest.(check string) "opaque" "#native<StringParam, \"x\">"
    (Attr.to_string (Attr.opaque ~tag:"StringParam" "x"))

let equality_basics () =
  Alcotest.check ty "same dynamic" complex_f32
    (Attr.dynamic ~dialect:"cmath" ~name:"complex" [ Attr.typ Attr.f32 ]);
  Alcotest.(check bool) "diff params" false
    (Attr.equal_ty complex_f32 complex_f64);
  Alcotest.(check bool) "diff widths" false (Attr.equal_ty Attr.i32 Attr.i64);
  Alcotest.(check bool) "signedness distinguishes" false
    (Attr.equal_ty Attr.i32 (Attr.integer ~signedness:Attr.Signed 32));
  Alcotest.(check bool) "int vs float" false (Attr.equal_ty Attr.i32 Attr.f32)

let equality_attrs () =
  Alcotest.check attr "ints" (Attr.int 3L) (Attr.int 3L);
  Alcotest.(check bool) "int ty matters" false
    (Attr.equal (Attr.int 3L) (Attr.int ~ty:Attr.i32 3L));
  Alcotest.(check bool) "dicts key-order-insensitive" true
    (Attr.equal
       (Attr.dict [ ("a", Attr.int 1L); ("b", Attr.int 2L) ])
       (Attr.dict [ ("b", Attr.int 2L); ("a", Attr.int 1L) ]));
  Alcotest.check attr "type attrs" (Attr.typ Attr.f32) (Attr.typ Attr.f32)

let dict_duplicate_keys () =
  (* Canonicalization rejects ambiguous dictionaries outright. *)
  match Attr.dict [ ("k", Attr.int 1L); ("k", Attr.int 2L) ] with
  | _ -> Alcotest.fail "duplicate keys accepted"
  | exception Irdl_support.Diag.Error_exn _ -> ()

let nan_equality () =
  (* Reflexivity must hold even for NaN payloads. *)
  let a = Attr.float Float.nan in
  Alcotest.(check bool) "nan = nan (bitwise)" true (Attr.equal a a)

let bool_int () =
  Alcotest.check attr "true" (Attr.int ~ty:Attr.i1 1L) (Attr.bool_int true);
  Alcotest.check attr "false" (Attr.int ~ty:Attr.i1 0L) (Attr.bool_int false)

let classifiers () =
  Alcotest.(check bool) "is_float f32" true (Attr.is_float_ty Attr.f32);
  Alcotest.(check bool) "is_float i32" false (Attr.is_float_ty Attr.i32);
  Alcotest.(check bool) "is_int i32" true (Attr.is_integer_ty Attr.i32)

let dict_find () =
  let d = Attr.dict [ ("k", Attr.int 1L) ] in
  Alcotest.(check (option attr)) "found" (Some (Attr.int 1L))
    (Attr.dict_find "k" d);
  Alcotest.(check (option attr)) "missing" None (Attr.dict_find "z" d);
  Alcotest.(check (option attr)) "non-dict" None (Attr.dict_find "k" Attr.Unit)

let invalid_width () =
  Alcotest.check_raises "zero width" (Invalid_argument
    "Attr.integer: width must be positive") (fun () ->
      ignore (Attr.integer 0))

(* Property: printing then parsing a type is the identity. *)
let ty_gen =
  let open QCheck2.Gen in
  let base =
    oneofl
      [ Attr.i1; Attr.i8; Attr.i16; Attr.i32; Attr.i64; Attr.f16; Attr.f32;
        Attr.f64; Attr.bf16; Attr.Index; Attr.None_ty;
        Attr.integer ~signedness:Attr.Signed 24;
        Attr.integer ~signedness:Attr.Unsigned 7 ]
  in
  let rec ty n =
    if n = 0 then base
    else
      frequency
        [
          (3, base);
          ( 1,
            let* elts = list_size (int_range 0 3) (ty (n - 1)) in
            return (Attr.Tuple { elems = elts; hash = 0 }) );
          ( 1,
            let* params = list_size (int_range 0 2) (ty (n - 1)) in
            return
              (Attr.dynamic ~dialect:"d" ~name:"t"
                 (List.map Attr.typ params)) );
          ( 1,
            let* i = list_size (int_range 0 2) (ty (n - 1)) in
            let* o = list_size (int_range 1 2) (ty (n - 1)) in
            return (Attr.Function { inputs = i; outputs = o; hash = 0 }) );
        ]
  in
  ty 3

let ty_roundtrip_prop =
  QCheck2.Test.make ~name:"type print/parse roundtrip" ~count:200 ty_gen
    (fun t ->
      let ctx = Context.create () in
      match Parser.parse_type_string ctx (Attr.ty_to_string t) with
      | Ok t' -> Attr.equal_ty t t'
      | Error _ -> false)

let suite =
  [
    tc "builtin type printing" builtin_printing;
    tc "aggregate type printing" aggregate_printing;
    tc "dynamic type printing" dynamic_printing;
    tc "attribute printing" attr_printing;
    tc "type equality" equality_basics;
    tc "attribute equality" equality_attrs;
    tc "dict duplicate keys rejected" dict_duplicate_keys;
    tc "NaN attr equality is reflexive" nan_equality;
    tc "bool_int" bool_int;
    tc "type classifiers" classifiers;
    tc "dict_find" dict_find;
    tc "integer width validation" invalid_width;
    QCheck_alcotest.to_alcotest ty_roundtrip_prop;
  ]
