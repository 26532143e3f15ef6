(** The streaming frontend ({!Irdl_ir.Parser.Stream}). [parse_ops] is the
    same session drained without release, so the differential cases
    compare streaming with release and per-op verification (merged at end
    of stream) against the whole module parsed and verified at once: same
    ops, byte-identical printed IR, identical diagnostics (order included)
    — across hand-written inputs, error-recovery inputs, generated
    10^3..10^4-op modules and a generated forward-reference module. The
    cases whose output the two paths could only agree on by sharing one
    loop (error recovery, top-level forward references, the fail-fast
    error) are also pinned to recorded text. Plus the release semantics
    the streaming driver relies on, the two paths of the shared chunk
    pipeline ({!Irdl_driver.Job}) against each other, linear cost in the
    number of forward references, and one budget contract for text and
    bytecode. *)

open Irdl_support
module Attr = Irdl_ir.Attr
module Graph = Irdl_ir.Graph
module Context = Irdl_ir.Context
module Parser = Irdl_ir.Parser
module Printer = Irdl_ir.Printer
module Verifier = Irdl_ir.Verifier

let messages e =
  List.map (fun (d : Diag.t) -> Diag.to_string d) (Diag.Engine.diagnostics e)

(* Drain a fail-soft session, mimicking irdl-opt's streaming driver: print
   each op into one printer session, collect per-op verification results,
   release, and merge the verification diagnostics at end-of-stream. *)
let drain_collect ?engine ctx src =
  let session = Parser.Stream.create ?engine ctx src in
  let printer = Printer.create ctx in
  let buf = Buffer.create 256 in
  let count = ref 0 in
  let vdiags = ref [] in
  let rec go () =
    match Parser.Stream.next session with
    | Ok None -> Ok ()
    | Error d -> Error d
    | Ok (Some op) ->
        incr count;
        vdiags := Verifier.verify_all ctx op :: !vdiags;
        if Buffer.length buf > 0 then Buffer.add_char buf '\n';
        Buffer.add_string buf (Fmt.str "%a" (Printer.pp_op printer) op);
        Parser.Stream.release op;
        go ()
  in
  let result = go () in
  ( result,
    !count,
    Buffer.contents buf,
    Verifier.merge_diags (List.concat (List.rev !vdiags)) )

(* The materializing reference for the same source. *)
let materialize ?engine ctx src =
  match Parser.parse_ops ?engine ctx src with
  | Ok ops ->
      ( Ok (),
        List.length ops,
        Printer.ops_to_string ctx ops,
        Verifier.verify_ops_all ctx ops )
  | Error d -> (Error d, 0, "", [])

(* Both paths over [src], asserting byte-identical output. Fail-soft runs
   get fresh engines whose recorded diagnostics must also agree, and, when
   given, equal [diags] and [ir]. *)
let check_differential ?diags ?ir name src =
  let ctx = Context.create () in
  let em = Diag.Engine.create () in
  let m_res, m_count, m_text, m_vdiags = materialize ~engine:em ctx src in
  let es = Diag.Engine.create () in
  let s_res, s_count, s_text, s_vdiags = drain_collect ~engine:es ctx src in
  Alcotest.(check bool) (name ^ ": both Ok") true (m_res = Ok () && s_res = Ok ());
  Alcotest.(check int) (name ^ ": op count") m_count s_count;
  Alcotest.(check string) (name ^ ": printed IR") m_text s_text;
  Alcotest.(check (list string))
    (name ^ ": parse diagnostics")
    (messages em) (messages es);
  Alcotest.(check (list string))
    (name ^ ": verify diagnostics")
    (List.map Diag.to_string m_vdiags)
    (List.map Diag.to_string s_vdiags);
  Option.iter
    (fun d ->
      Alcotest.(check (list string)) (name ^ ": recorded diagnostics") d
        (messages es))
    diags;
  Option.iter
    (fun t -> Alcotest.(check string) (name ^ ": recorded IR") t s_text)
    ir

(* ---------------- hand-written inputs ---------------- *)

let well_formed () =
  check_differential "well-formed"
    "%0 = \"t.const\"() : () -> i32\n\
     %1 = \"t.add\"(%0, %0) : (i32, i32) -> i32\n\
     \"t.use\"(%1) : (i32) -> ()\n"

let regions () =
  check_differential "regions"
    "\"t.func\"() ({\n\
     ^bb0(%a: i32):\n\
    \  %0 = \"t.add\"(%a, %a) : (i32, i32) -> i32\n\
    \  \"t.ret\"(%0) : (i32) -> ()\n\
     }) : () -> ()\n\
     %x = \"t.const\"() : () -> f32\n"

(* [n] top-level uses, then the [n] definitions they name: every use is
   held back until the definitions arrive. *)
let forward_module n =
  let buf = Buffer.create (n * 80) in
  for i = 0 to n - 1 do
    Printf.bprintf buf "%%u%d = \"t.use\"(%%d%d) : (i32) -> i32\n" i i
  done;
  for i = 0 to n - 1 do
    Printf.bprintf buf "%%d%d = \"t.def\"() : () -> i32\n" i
  done;
  Buffer.contents buf

let forward_refs () =
  (* %m2 is used before its definition at top level: the session must hold
     the user back until the definition patches the placeholder. *)
  check_differential "top-level forward refs" ~diags:[]
    ~ir:
      "%0 = \"t.use\"(%1) : (f32) -> (f32)\n\
       %1 = \"t.def\"() : () -> (f32)\n\
       %2 = \"t.use2\"(%0, %1) : (f32, f32) -> (f32)"
    "%0 = \"t.use\"(%m2) : (f32) -> f32\n\
     %m2 = \"t.def\"() : () -> f32\n\
     %1 = \"t.use2\"(%0, %m2) : (f32, f32) -> f32\n";
  check_differential "generated forward refs" (forward_module 1_000)

let error_recovery () =
  check_differential "error recovery"
    ~diags:
      [
        "<string>:2:21-22: error: at ':': expected ')'";
        "<string>:4:7-12: error: at 't.use': expected '('";
        "<string>:4:12-<string>:6:7: error: at '\"(%0) : (i32) -> \
         ()\\n}\\n%3 = \"': unknown operation 't.use' in custom form";
        "<string>:6:7-12: error: at 't.use': expected '('";
        "<string>:6:12: error: unterminated string";
        "<string>:7:1: error: at '<eof>': unknown operation 't.use' in \
         custom form";
      ]
    ~ir:"%0 = \"t.const\"() : () -> (i32)"
    "%0 = \"t.const\"() : () -> i32\n\
     %1 = \"t.add\"(%0, %0 : (i32, i32) -> i32\n\
     \"bogus\n\
     %2 = \"t.use\"(%0) : (i32) -> ()\n\
     }\n\
     %3 = \"t.use\"(%undefined_value) : (i32) -> ()\n"

let fail_fast_error () =
  let src = "%0 = \"t.const\"() : () -> i32\n%1 = bogus\n" in
  let ctx = Context.create () in
  let expected = "<string>:2:6-11: error: at 'bogus': expected an operation" in
  (match Parser.parse_ops ctx src with
  | Error d ->
      Alcotest.(check string) "parse_ops error" expected (Diag.to_string d)
  | Ok _ -> Alcotest.fail "materializing parse unexpectedly succeeded");
  let session = Parser.Stream.create ctx src in
  (* The first op parses and is yielded before the error is reached. *)
  (match Parser.Stream.next session with
  | Ok (Some op) ->
      Alcotest.(check string) "first op" "t.const" op.Graph.op_name
  | _ -> Alcotest.fail "expected the first op");
  (match Parser.Stream.next session with
  | Error d -> Alcotest.(check string) "same error" expected (Diag.to_string d)
  | Ok _ -> Alcotest.fail "expected the parse error");
  (* The session stays dead, returning the same error again. *)
  match Parser.Stream.next session with
  | Error d ->
      Alcotest.(check string) "error is sticky" expected (Diag.to_string d)
  | Ok _ -> Alcotest.fail "expected the sticky error"

(* ---------------- release semantics ---------------- *)

let release_semantics () =
  let ctx = Context.create () in
  let src =
    "%0 = \"t.def\"() : () -> i32\n%1 = \"t.use\"(%0) : (i32) -> i32\n"
  in
  let session = Parser.Stream.create ctx src in
  let first =
    match Parser.Stream.next session with
    | Ok (Some op) -> op
    | _ -> Alcotest.fail "expected first op"
  in
  let result = Graph.Op.result first 0 in
  Parser.Stream.release first;
  (match result.Graph.v_def with
  | Graph.Released -> ()
  | _ -> Alcotest.fail "released result should have v_def = Released");
  Alcotest.(check bool)
    "defining_op gone" true
    (Graph.Value.defining_op result = None);
  (* The second op still names the released value with its type intact,
     and still verifies. *)
  match Parser.Stream.next session with
  | Ok (Some op) ->
      let operand = Graph.Op.operand op 0 in
      Alcotest.(check bool) "same value record" true (operand == result);
      Alcotest.(check bool)
        "type survives release" true
        (Attr.equal_ty (Graph.Value.ty operand) Attr.i32);
      Alcotest.(check int)
        "later op verifies against released operand" 0
        (List.length (Verifier.verify_all ctx op))
  | _ -> Alcotest.fail "expected second op"

(* ---------------- generated modules ---------------- *)

(* A flat module with an error injected every [err_every] ops (0 = none):
   the generated analog of the cram error-recovery corpus. *)
let generated ?(err_every = 0) n =
  let buf = Buffer.create (n * 40) in
  Buffer.add_string buf "%v0 = \"t.const\"() : () -> i32\n";
  for i = 1 to n - 1 do
    if err_every > 0 && i mod err_every = 0 then
      Buffer.add_string buf "%e = \"t.broken\"(%v0 : (i32) -> i32\n"
    else
      Buffer.add_string buf
        (Printf.sprintf "%%v%d = \"t.%s\"(%%v%d) : (i32) -> i32\n" i
           (if i land 1 = 0 then "add" else "mul")
           (i - 1))
  done;
  Buffer.contents buf

let generated_clean () =
  List.iter
    (fun n -> check_differential (Printf.sprintf "generated %d" n) (generated n))
    [ 1_000; 10_000 ]

let generated_errors () =
  List.iter
    (fun n ->
      check_differential
        (Printf.sprintf "generated %d with errors" n)
        (generated ~err_every:97 n))
    [ 1_000; 5_000 ]

(* Streaming keeps only the value records alive: after draining a
   generated module with ops released as they come, re-verifying the next
   module still works (no poisoned state in the context). *)
let sessions_are_independent () =
  let ctx = Context.create () in
  let src = generated 1_000 in
  let _, c1, t1, _ = drain_collect ctx src in
  let _, c2, t2, _ = drain_collect ctx src in
  Alcotest.(check int) "same count across sessions" c1 c2;
  Alcotest.(check string) "same text across sessions" t1 t2

(* ---------------- the chunk pipeline ---------------- *)

module Job = Irdl_driver.Job
module Bytecode = Irdl_bytecode.Bytecode
module Frontend = Irdl_bytecode.Frontend
module Source = Frontend.Source

(* The 5-chunk mixed input of the streaming cram test: valid chunks, a
   verify error, a parse error, and a top-level forward reference. *)
let mixed_chunks =
  [
    "%c = \"cmath.constant\"() {value = 2.0 : f32} : () -> \
     !cmath.complex<f32>\n\
     %m = \"cmath.mul\"(%c, %c) : (!cmath.complex<f32>, \
     !cmath.complex<f32>) -> !cmath.complex<f32>\n";
    "%bad = \"cmath.norm\"() : () -> f32\n";
    "%p = \"cmath.mul\"(%x, : (i32) -> i32\n";
    "%n = \"cmath.norm\"(%c2) : (!cmath.complex<f64>) -> f64\n\
     %c2 = \"cmath.constant\"() {value = 1.0 : f64} : () -> \
     !cmath.complex<f64>\n";
    "%ok = \"cmath.constant\"() {value = 0.5 : f32} : () -> \
     !cmath.complex<f32>\n";
  ]

(* Every output kind: streaming and materializing give the same flags,
   diagnostics and output, chunk by chunk. *)
let job_paths_agree () =
  let ctx = Util.cmath_ctx () in
  let run sink streaming =
    let engine = Diag.Engine.create () in
    let config = { Job.default with streaming; sink } in
    let results =
      List.mapi
        (fun i chunk ->
          let r =
            Job.run ctx config ~engine
              ~path:(Printf.sprintf "mixed-%d.mlir" i)
              (Source.Text chunk)
          in
          (r.Job.parse_failed, r.verify_failed, r.output))
        mixed_chunks
    in
    (results, messages engine)
  in
  List.iter
    (fun (name, sink) ->
      let streamed, s_diags = run sink true in
      let materialized, m_diags = run sink false in
      Alcotest.(check (list (pair bool bool)))
        (name ^ ": flags")
        [ (false, false); (false, true); (true, false); (false, false);
          (false, false) ]
        (List.map (fun (p, v, _) -> (p, v)) streamed);
      Alcotest.(check (list (pair bool bool)))
        (name ^ ": same flags")
        (List.map (fun (p, v, _) -> (p, v)) materialized)
        (List.map (fun (p, v, _) -> (p, v)) streamed);
      Alcotest.(check int) (name ^ ": diagnostics") 3 (List.length s_diags);
      Alcotest.(check (list string)) (name ^ ": same diagnostics") m_diags
        s_diags;
      Alcotest.(check (list (option string)))
        (name ^ ": same output")
        (List.map (fun (_, _, o) -> o) materialized)
        (List.map (fun (_, _, o) -> o) streamed);
      Alcotest.(check int)
        (name ^ ": outputs of the clean chunks")
        (if sink = Job.Discard then 0 else 3)
        (List.length (List.filter_map (fun (_, _, o) -> o) streamed)))
    [ ("discard", Job.Discard); ("text", Job.Text); ("bytecode", Job.Bytecode) ]

(* ---------------- cost and budgets ---------------- *)

(* A module with 4n forward references costs about 4x one with n on every
   path, text and bytecode. Measured in allocated words, which are
   deterministic where wall time is not: quadratic bookkeeping reads 9 to
   16, and a session's fixed costs keep a linear one at or under 4. *)
let forward_refs_linear () =
  let ctx = Context.create () in
  let words run input =
    let before = Gc.minor_words () in
    run input;
    Gc.minor_words () -. before
  in
  let check name run small large =
    let ratio = words run large /. words run small in
    if ratio > 6.0 then
      Alcotest.failf "%s: %.1fx the allocation for 4x the forward references"
        name ratio
  in
  let stream src =
    let s = Parser.Stream.create ctx src in
    let rec go () =
      match Parser.Stream.next s with
      | Ok (Some op) ->
          Parser.Stream.release op;
          go ()
      | Ok None -> ()
      | Error d -> Alcotest.fail (Diag.to_string d)
    in
    go ()
  in
  let parse_ops src = ignore (Result.get_ok (Parser.parse_ops ctx src)) in
  let job streaming src =
    let engine = Diag.Engine.create () in
    let r =
      Job.run ctx
        { Job.default with streaming; sink = Job.Text }
        ~engine ~path:"forward.mlir" (Source.Text src)
    in
    Alcotest.(check bool) "printed" true (r.Job.output <> None)
  in
  let n = 2_000 in
  let small = forward_module n and large = forward_module (4 * n) in
  List.iter
    (fun (name, run) -> check name run small large)
    [
      ("stream", stream);
      ("parse_ops", parse_ops);
      ("Job.run streaming", job true);
      ("Job.run materializing", job false);
    ];
  let encode src =
    Result.get_ok
      (Bytecode.Write.module_to_string
         (Result.get_ok (Parser.parse_ops ctx src)))
  in
  check "Bytecode.read_module"
    (fun blob -> ignore (Result.get_ok (Bytecode.read_module ctx blob)))
    (encode small) (encode large)

(* One budget contract for both formats: a blown budget fails a fail-fast
   parse with the budget diagnostic, and ends a fail-soft one with that
   diagnostic emitted and [Ok []]. *)
let budget_contract () =
  let ctx = Context.create () in
  let src = generated 10 in
  let blob =
    Result.get_ok
      (Bytecode.Write.module_to_string
         (Result.get_ok (Parser.parse_ops ctx src)))
  in
  let limits = Limits.create ~max_ops:2 () in
  List.iter
    (fun (name, payload) ->
      (match Frontend.parse_module ~limits ctx payload with
      | Error d ->
          Alcotest.(check (option string))
            (name ^ ": fail-fast code") (Some Limits.resource_exhausted) d.code
      | Ok _ -> Alcotest.failf "%s: fail-fast parse succeeded" name);
      let engine = Diag.Engine.create () in
      (match Frontend.parse_module ~engine ~limits ctx payload with
      | Ok ops -> Alcotest.(check int) (name ^ ": no ops") 0 (List.length ops)
      | Error d -> Alcotest.failf "%s: Error %s" name (Diag.to_string d));
      Alcotest.(check (list (option string)))
        (name ^ ": the budget diagnostic emitted")
        [ Some Limits.resource_exhausted ]
        (List.map
           (fun (d : Diag.t) -> d.code)
           (Diag.Engine.diagnostics engine)))
    [ ("text", Source.Text src); ("bytecode", Source.Binary blob) ]

(* ---------------- unified stats / sources ---------------- *)

let stats_scopes () =
  let ctx = Context.create () in
  (* Composite (dynamic) types are what the verify cache memoizes; builtin
     leaves verify vacuously and leave no shard behind. *)
  let src =
    "%0 = \"t.make\"() : () -> !t.box\n\
     %1 = \"t.use\"(%0) : (!t.box) -> !t.box\n"
  in
  let ops = Result.get_ok (Parser.parse_ops ctx src) in
  let _ = Verifier.verify_ops_all ctx ops in
  let merged = Context.stats ctx in
  Alcotest.(check (list reject))
    "merged scope has no shard breakdown" []
    (List.map (fun _ -> ()) merged.st_verify_shards);
  let per = Context.stats ~scope:`Per_domain ctx in
  Alcotest.(check bool)
    "per-domain scope exposes shards" true
    (per.st_verify_shards <> []);
  let shard_sum =
    List.fold_left
      (fun acc (s : Context.verify_stats) -> acc + s.vs_hits + s.vs_misses)
      0 per.st_verify_shards
  in
  Alcotest.(check int)
    "shards sum to the merged counters"
    (merged.st_verify.vs_hits + merged.st_verify.vs_misses)
    shard_sum

let sources_drop () =
  Diag.Sources.register ~file:"drop-me.mlir" "contents";
  Alcotest.(check bool)
    "registered" true
    (Diag.Sources.lookup "drop-me.mlir" = Some "contents");
  Diag.Sources.drop "drop-me.mlir";
  Alcotest.(check bool)
    "dropped" true
    (Diag.Sources.lookup "drop-me.mlir" = None);
  (* Dropping an absent file is a no-op. *)
  Diag.Sources.drop "drop-me.mlir"

let suite =
  [
    Alcotest.test_case "differential: well-formed" `Quick well_formed;
    Alcotest.test_case "differential: regions" `Quick regions;
    Alcotest.test_case "differential: forward refs" `Quick forward_refs;
    Alcotest.test_case "differential: error recovery" `Quick error_recovery;
    Alcotest.test_case "fail-fast: same first error, sticky" `Quick
      fail_fast_error;
    Alcotest.test_case "release: later uses survive" `Quick release_semantics;
    Alcotest.test_case "differential: generated 10^3..10^4" `Slow
      generated_clean;
    Alcotest.test_case "differential: generated with errors" `Slow
      generated_errors;
    Alcotest.test_case "sessions are independent" `Quick
      sessions_are_independent;
    Alcotest.test_case "Job: streaming = materializing, every sink" `Quick
      job_paths_agree;
    Alcotest.test_case "Context.stats scopes" `Quick stats_scopes;
    Alcotest.test_case "Diag.Sources.drop" `Quick sources_drop;
    Alcotest.test_case "forward refs: linear cost" `Quick forward_refs_linear;
    Alcotest.test_case "budget: one contract for text and bytecode" `Quick
      budget_contract;
  ]
