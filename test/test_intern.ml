(** Tests for the hash-consing (uniquing) layer: smart constructors return
    canonical nodes, so structurally equal attributes and types are
    physically equal, interning is idempotent, and [hash] is consistent
    with [equal]. *)

open Irdl_ir
open Util

(* ---------------- unit invariants ---------------- *)

let phys_eq_constructed () =
  (* Two independent builds of the same type/attr share one node. *)
  let t1 = Attr.dynamic ~dialect:"cmath" ~name:"complex" [ Attr.typ Attr.f32 ] in
  let t2 = Attr.dynamic ~dialect:"cmath" ~name:"complex" [ Attr.typ Attr.f32 ] in
  Alcotest.(check bool) "dynamic types shared" true (t1 == t2);
  let a1 = Attr.array [ Attr.int 1L; Attr.string "x" ] in
  let a2 = Attr.array [ Attr.int 1L; Attr.string "x" ] in
  Alcotest.(check bool) "array attrs shared" true (a1 == a2);
  let f1 = Attr.function_ty ~inputs:[ Attr.i32 ] ~outputs:[ Attr.f32 ] in
  let f2 = Attr.function_ty ~inputs:[ Attr.i32 ] ~outputs:[ Attr.f32 ] in
  Alcotest.(check bool) "function types shared" true (f1 == f2)

let phys_eq_parser_vs_builder () =
  (* The IR parser and the programmatic API intern into the same tables. *)
  let ctx = cmath_ctx () in
  let parsed =
    check_ok "parse type" (Parser.parse_type_string ctx "!cmath.complex<f32>")
  in
  let built =
    Attr.dynamic ~dialect:"cmath" ~name:"complex" [ Attr.typ Attr.f32 ]
  in
  Alcotest.(check bool) "parser == builder" true (parsed == built);
  let parsed_attr =
    check_ok "parse attr"
      (Parser.parse_attr_string ctx "{a = 1 : i64, b = \"s\"}")
  in
  let built_attr =
    Attr.dict [ ("b", Attr.string "s"); ("a", Attr.int 1L) ]
  in
  Alcotest.(check bool) "dict parser == builder (any key order)" true
    (parsed_attr == built_attr)

let dict_canonical_order () =
  let d1 = Attr.dict [ ("a", Attr.int 1L); ("b", Attr.int 2L) ] in
  let d2 = Attr.dict [ ("b", Attr.int 2L); ("a", Attr.int 1L) ] in
  Alcotest.(check bool) "same node" true (d1 == d2);
  (match d1 with
  | Attr.Dict { entries; _ } ->
      Alcotest.(check (list string)) "sorted keys" [ "a"; "b" ]
        (List.map fst entries)
  | _ -> Alcotest.fail "not a dict")

let intern_idempotent () =
  (* Interning a hand-built (bare-constructor) value once yields the
     canonical node; interning again is the identity. *)
  let raw =
    Attr.Array { elems = [ Attr.Int { value = 7L; ty = Attr.i64 } ]; hash = 0 }
  in
  let once = Attr.intern raw in
  Alcotest.(check bool) "intern (intern x) == intern x" true
    (Attr.intern once == once);
  Alcotest.(check bool) "canonical equals smart-constructed" true
    (once == Attr.array [ Attr.int 7L ]);
  let raw_ty = Attr.Tuple { elems = [ Attr.i32; Attr.f64 ]; hash = 0 } in
  let once_ty = Attr.intern_ty raw_ty in
  Alcotest.(check bool) "intern_ty idempotent" true
    (Attr.intern_ty once_ty == once_ty)

let ids_stable () =
  let a = Attr.string "id-stability" in
  Alcotest.(check int) "same node, same id" (Attr.id a)
    (Attr.id (Attr.string "id-stability"));
  let t = Attr.tuple [ Attr.i1; Attr.i1 ] in
  Alcotest.(check int) "same ty, same id" (Attr.id_ty t)
    (Attr.id_ty (Attr.tuple [ Attr.i1; Attr.i1 ]));
  Alcotest.(check bool) "distinct nodes, distinct ids" true
    (Attr.id (Attr.string "x") <> Attr.id (Attr.string "y"))

let stats_exposed () =
  let ctx = Context.create () in
  let before = (Context.stats ~scope:`Per_domain ctx).st_uniquing in
  (* A fresh value is a miss; rebuilding it is a hit. *)
  let _ = Attr.string "stats-probe-fresh" in
  let _ = Attr.string "stats-probe-fresh" in
  let after = (Context.stats ~scope:`Per_domain ctx).st_uniquing in
  Alcotest.(check bool) "node count grew" true
    (after.Context.us_attrs.Intern.nodes > before.Context.us_attrs.Intern.nodes);
  Alcotest.(check bool) "hits grew" true
    (after.Context.us_attrs.Intern.hits > before.Context.us_attrs.Intern.hits)

(* ---------------- property tests ---------------- *)

let attr_gen = Test_ir_property.attr_gen

let hash_consistent_with_equal =
  QCheck2.Test.make ~name:"equal a b implies hash a = hash b" ~count:300
    ~print:(fun (a, b) -> Attr.to_string a ^ " / " ^ Attr.to_string b)
    QCheck2.Gen.(pair attr_gen attr_gen)
    (fun (a, b) -> (not (Attr.equal a b)) || Attr.hash a = Attr.hash b)

let generated_attrs_are_canonical =
  (* Everything built through smart constructors is already interned. *)
  QCheck2.Test.make ~name:"smart-constructed attrs are canonical" ~count:300
    ~print:Attr.to_string attr_gen
    (fun a -> Attr.intern a == a)

let structural_equal_is_phys_equal =
  QCheck2.Test.make ~name:"structural equality collapses to identity"
    ~count:300
    ~print:(fun (a, b) -> Attr.to_string a ^ " / " ^ Attr.to_string b)
    QCheck2.Gen.(pair attr_gen attr_gen)
    (fun (a, b) -> Attr.equal a b = (a == b))

let one_count_per_node () =
  (* Each node resolved counts exactly one hit or one miss: a fresh leaf is
     a miss, looking it up again ([intern] or [id]) one hit, and a fresh
     parent one miss plus one hit for confirming its canonical child. *)
  let counts () =
    let _, a = Attr.uniquer_stats () in
    (a.Intern.hits, a.Intern.misses)
  in
  let step what expected f =
    let h0, m0 = counts () in
    f ();
    let h1, m1 = counts () in
    Alcotest.(check (pair int int)) what expected (h1 - h0, m1 - m0)
  in
  let leaf = ref Attr.unit in
  step "fresh leaf: one miss" (0, 1) (fun () ->
      leaf := Attr.string "one-count-probe");
  step "intern of a canonical node: one hit" (1, 0) (fun () ->
      ignore (Attr.intern !leaf));
  step "id of a canonical node: one hit" (1, 0) (fun () ->
      ignore (Attr.id !leaf));
  step "fresh parent: one miss, one hit for its child" (1, 1) (fun () ->
      ignore (Attr.array [ !leaf ]))

(* ---------------- exactness of pointer-keyed interning ---------------- *)

(* A deep copy made of bare constructors: no node of it is canonical, so
   interning it must rebuild every level and land on the original nodes.
   [rehash] picks the stored hash of each copied composite: the original's
   (right hash, non-canonical children) or a fixed wrong one. *)
let rec copy_ty ~rehash (ty : Attr.ty) : Attr.ty =
  match ty with
  | Attr.Integer { width; signedness } -> Attr.Integer { width; signedness }
  | Attr.Float k -> Attr.Float k
  | Attr.Index | Attr.None_ty -> ty
  | Attr.Function { inputs; outputs; hash } ->
      Attr.Function
        {
          inputs = List.map (copy_ty ~rehash) inputs;
          outputs = List.map (copy_ty ~rehash) outputs;
          hash = rehash hash;
        }
  | Attr.Tuple { elems; hash } ->
      Attr.Tuple { elems = List.map (copy_ty ~rehash) elems; hash = rehash hash }
  | Attr.Dynamic { dialect; name; params; hash } ->
      Attr.Dynamic
        { dialect; name; params = List.map (copy ~rehash) params;
          hash = rehash hash }

and copy ~rehash (a : Attr.t) : Attr.t =
  match a with
  | Attr.Unit -> Attr.Unit
  | Attr.Bool b -> Attr.Bool b
  | Attr.Int { value; ty } -> Attr.Int { value; ty = copy_ty ~rehash ty }
  | Attr.Float_attr { value; ty } ->
      Attr.Float_attr { value; ty = copy_ty ~rehash ty }
  | Attr.String s -> Attr.String (String.sub s 0 (String.length s))
  | Attr.Array { elems; hash } ->
      Attr.Array { elems = List.map (copy ~rehash) elems; hash = rehash hash }
  | Attr.Dict { entries; hash } ->
      Attr.Dict
        { entries = List.map (fun (k, v) -> (k, copy ~rehash v)) entries;
          hash = rehash hash }
  | Attr.Type ty -> Attr.Type (copy_ty ~rehash ty)
  | Attr.Enum { dialect; enum; case } -> Attr.Enum { dialect; enum; case }
  | Attr.Symbol s -> Attr.Symbol s
  | Attr.Location { file; line; col } -> Attr.Location { file; line; col }
  | Attr.Type_id s -> Attr.Type_id s
  | Attr.Opaque { tag; repr } -> Attr.Opaque { tag; repr }
  | Attr.Dyn_attr { dialect; name; params; hash } ->
      Attr.Dyn_attr
        { dialect; name; params = List.map (copy ~rehash) params;
          hash = rehash hash }

(* Generated attributes, also wrapped in every composite type, so that each
   of the six hash-carrying constructors appears. *)
let composite_gen =
  QCheck2.Gen.map
    (fun a ->
      let d = Attr.dynamic ~dialect:"d" ~name:"t" [ a ] in
      Attr.array
        [ a;
          Attr.typ
            (Attr.function_ty ~inputs:[ d ] ~outputs:[ Attr.tuple [ d; Attr.i8 ] ])
        ])
    attr_gen

let bare_copy_interns_to_original =
  QCheck2.Test.make
    ~name:"a bare deep copy interns to the same node and id" ~count:300
    ~print:Attr.to_string composite_gen
    (fun a ->
      List.for_all
        (fun rehash ->
          let c = copy ~rehash a in
          Attr.intern c == a && Attr.id c = Attr.id a)
        [ Fun.id; (fun _ -> 0) ])

(* ---------------- complexity ---------------- *)

(* Interning costs O(1) per node, however deep the node sits and however
   many deep nodes the shard already holds. The tests compare the process's
   CPU time on inputs never interned before: every chain ends in a leaf
   drawn from a counter. An allocation count would not show the quadratic
   cases, which walk without allocating; wall time would also count the
   time other processes hold the core, which on a loaded machine stretches
   a long run more than a short one. *)
let fresh =
  let n = ref 0 in
  fun () ->
    incr n;
    !n

(* Each timed run starts with no major work owed and an empty minor heap,
   and ends by promoting what it allocated, so it pays the collector for
   its own nodes and nothing else: a run small enough to fit in the minor
   heap would otherwise skip the promotion a larger one cannot. *)
let timed f =
  Gc.major ();
  let t0 = Sys.time () in
  f ();
  Gc.minor ();
  Sys.time () -. t0

(* Best-of-3 times of [f a] and [f b], the runs interleaved so that a
   stretch of load on the machine slows both alike. *)
let best_of_3_pair f a b =
  let rec go k (ta, tb) =
    if k = 0 then (ta, tb)
    else
      let ta' = timed (fun () -> f a) in
      let tb' = timed (fun () -> f b) in
      go (k - 1) (Float.min ta ta', Float.min tb tb')
  in
  go 3 (infinity, infinity)

(* An attribute chain through [Attr.array] and a type chain through
   [Attr.dynamic], [depth] levels each. *)
let built_chains depth =
  let leaf = Attr.int (Int64.of_int (fresh ())) in
  let rec attr k a = if k = 0 then a else attr (k - 1) (Attr.array [ a ]) in
  let rec ty k t =
    if k = 0 then t
    else ty (k - 1) (Attr.dynamic ~dialect:"t" ~name:"c" [ Attr.typ t ])
  in
  ignore (attr depth leaf);
  ignore (ty depth (Attr.dynamic ~dialect:"t" ~name:"leaf" [ leaf ]))

(* The same two shapes as text, parsed and verified. *)
let parsed_chains ctx depth =
  let k = fresh () in
  let attr =
    String.make depth '[' ^ Printf.sprintf "%d : i32" k ^ String.make depth ']'
  in
  let ty =
    String.concat "" (List.init depth (fun _ -> "!t.c<"))
    ^ Printf.sprintf "%d : i64" k ^ String.make depth '>'
  in
  let a = check_ok "parse attr" (Parser.parse_attr_string ctx attr) in
  check_ok "verify attr" (Verifier.verify_attr ctx a);
  let t = check_ok "parse type" (Parser.parse_type_string ctx ty) in
  check_ok "verify type" (Verifier.verify_ty ctx t)

let depth_linear () =
  let ctx = Context.create () in
  let n = 2000 in
  List.iter
    (fun (what, run) ->
      (* One untimed run first, so both depths are timed against a table
         of about the same size: what is compared is the cost per node,
         not how far the table outgrows the caches. *)
      run (4 * n);
      let small, large = best_of_3_pair run n (4 * n) in
      let ratio = large /. Float.max small 1e-6 in
      if ratio > 8. then
        Alcotest.failf "%s: depth %d took %.1f ms, depth %d %.1f ms (x%.1f > 8)"
          what n (small *. 1e3) (4 * n) (large *. 1e3) ratio)
    [ ("constructors", built_chains); ("parse + verify", parsed_chains ctx) ]

let session_growth () =
  (* Ten rounds of fresh deep chains: a round must not slow down as the
     shard fills with deep nodes (the server's shard is never reset). Each
     round is timed as the best of 3 batches of 10 chains. *)
  let batch () =
    for _ = 1 to 10 do
      built_chains 200
    done
  in
  let round () =
    let t1 = timed batch in
    let t2 = timed batch in
    Float.min t1 (Float.min t2 (timed batch))
  in
  let first = round () in
  for _ = 2 to 9 do
    ignore (round ())
  done;
  let last = round () in
  if last > 2. *. first then
    Alcotest.failf "round 10 took %.1f ms, round 1 %.1f ms (x%.1f > 2)"
      (last *. 1e3) (first *. 1e3) (last /. first)

let suite =
  [
    tc "physical equality of constructed nodes" phys_eq_constructed;
    tc "parser and builder share nodes" phys_eq_parser_vs_builder;
    tc "dict canonical key order" dict_canonical_order;
    tc "intern is idempotent" intern_idempotent;
    tc "uniquer ids are stable" ids_stable;
    tc "context exposes uniquing stats" stats_exposed;
    QCheck_alcotest.to_alcotest hash_consistent_with_equal;
    QCheck_alcotest.to_alcotest generated_attrs_are_canonical;
    QCheck_alcotest.to_alcotest structural_equal_is_phys_equal;
    QCheck_alcotest.to_alcotest bare_copy_interns_to_original;
    tc "interning cost is linear in depth" depth_linear;
    tc "interning cost does not grow over a session" session_growth;
    tc "one uniquer count per resolved node" one_count_per_node;
  ]
