(** Tests for the chunk pipeline's configuration axes: verification off,
    a pass pipeline (which always materializes), bytecode input, generic
    printing and parse budgets. The streaming-vs-materializing agreement
    over every sink is in [test_streaming.ml]. *)

open Irdl_support
open Irdl_pass
module Job = Irdl_driver.Job
module Source = Irdl_bytecode.Frontend.Source

let run ?(engine = Diag.Engine.create ()) ctx config src =
  Job.run ctx config ~engine ~path:"job.mlir" src

let occurrences needle s =
  let n = String.length needle and count = ref 0 in
  for i = 0 to String.length s - n do
    if String.sub s i n = needle then incr count
  done;
  !count

let bad_norm = Source.Text "%bad = \"cmath.norm\"() : () -> f32\n"

let pair =
  Source.Text
    "%c = \"cmath.constant\"() {value = 2.0 : f32} : () -> \
     !cmath.complex<f32>\n\
     %m = \"cmath.mul\"(%c, %c) : (!cmath.complex<f32>, \
     !cmath.complex<f32>) -> !cmath.complex<f32>\n"

(* A function holding two identical norms: CSE folds them into one. *)
let dup_func =
  Source.Text
    {|"func.func"() ({
^bb0(%p: !cmath.complex<f32>):
  %n1 = cmath.norm %p : f32
  %n2 = cmath.norm %p : f32
  %m = "arith.mulf"(%n1, %n2) : (f32, f32) -> f32
  "func.return"(%m) : (f32) -> ()
}) : () -> ()
|}

let text = { Job.default with sink = Job.Text }

let verify_off () =
  let ctx = Util.cmath_ctx () in
  List.iter
    (fun streaming ->
      let engine = Diag.Engine.create () in
      let config = { text with streaming; verify = false } in
      let r = run ~engine ctx config bad_norm in
      Alcotest.(check (pair bool bool))
        "no failure without verification" (false, false)
        (r.Job.parse_failed, r.verify_failed);
      Alcotest.(check bool) "output produced" true (r.output <> None);
      Alcotest.(check int) "no diagnostics" 0 (Diag.Engine.error_count engine);
      let r = run ctx { text with streaming } bad_norm in
      Alcotest.(check bool) "verify on: fails" true r.Job.verify_failed;
      Alcotest.(check (option string)) "verify on: no output" None r.output)
    [ true; false ]

let pipeline_runs () =
  let ctx = Util.cmath_ctx () in
  let mgr = Pass_manager.create [ Passes.cse ] in
  let outputs =
    List.map
      (fun streaming ->
        let r = run ctx { text with streaming; pipeline = Some mgr } dup_func in
        Alcotest.(check (pair bool bool))
          "pipeline succeeds" (false, false)
          (r.Job.parse_failed, r.verify_failed);
        (match r.report with
        | None -> Alcotest.fail "a completed pipeline has a report"
        | Some rp ->
            Alcotest.(check (list string))
              "one report row per pass" [ "cse" ]
              (List.map (fun p -> p.Pass_manager.pr_pass) rp.rp_passes));
        let out = Option.get r.output in
        Alcotest.(check int) "CSE folded the duplicate norm" 1
          (occurrences "cmath.norm" out);
        out)
      [ true; false ]
  in
  Alcotest.(check string) "a pipeline materializes either way"
    (List.nth outputs 1) (List.hd outputs)

let pipeline_empty_chunk () =
  let ctx = Util.cmath_ctx () in
  let mgr = Pass_manager.create [ Passes.cse; Passes.dce ] in
  let r = run ctx { Job.default with pipeline = Some mgr } (Source.Text "") in
  match r.Job.report with
  | None -> Alcotest.fail "an empty chunk still gets a timing report"
  | Some rp ->
      Alcotest.(check (list string))
        "every pass reported" [ "cse"; "dce" ]
        (List.map (fun p -> p.Pass_manager.pr_pass) rp.rp_passes)

let bytecode_input () =
  let ctx = Util.cmath_ctx () in
  let emitted = run ctx { Job.default with sink = Job.Bytecode } pair in
  let bc = Option.get emitted.Job.output in
  let payload = Source.classify bc in
  Alcotest.(check bool) "bytecode output sniffs as binary" true
    (Source.is_binary payload);
  let from_text = Option.get (run ctx text pair).Job.output in
  List.iter
    (fun streaming ->
      let r = run ctx { text with streaming } payload in
      Alcotest.(check (option string))
        "bytecode in, text out = text in, text out" (Some from_text)
        r.Job.output)
    [ true; false ]

let generic_form () =
  let ctx = Util.cmath_ctx () in
  let norm =
    Source.Text
      "%c = \"cmath.constant\"() {value = 2.0 : f32} : () -> \
       !cmath.complex<f32>\n\
       %n = \"cmath.norm\"(%c) : (!cmath.complex<f32>) -> f32\n"
  in
  let custom = Option.get (run ctx text norm).Job.output in
  let generic =
    Option.get (run ctx { text with generic = true } norm).Job.output
  in
  Alcotest.(check int) "custom form unquoted" 0
    (occurrences "\"cmath.norm\"" custom);
  Alcotest.(check int) "generic form quoted" 1
    (occurrences "\"cmath.norm\"" generic)

let budget_exhausted () =
  let ctx = Util.cmath_ctx () in
  let limits = Limits.create ~max_ops:1 () in
  List.iter
    (fun streaming ->
      let engine = Diag.Engine.create () in
      let r = run ~engine ctx { text with streaming; limits } pair in
      Alcotest.(check bool) "over budget: parse fails" true r.Job.parse_failed;
      Alcotest.(check (option string)) "over budget: no output" None r.output;
      Alcotest.(check bool)
        "the diagnostic names the budget" true
        (List.exists
           (fun (d : Diag.t) -> d.code = Some Limits.resource_exhausted)
           (Diag.Engine.diagnostics engine)))
    [ true; false ]

let suite =
  [
    Alcotest.test_case "verify off passes verify errors" `Quick verify_off;
    Alcotest.test_case "pipeline: report, same either path" `Quick
      pipeline_runs;
    Alcotest.test_case "pipeline over an empty chunk" `Quick
      pipeline_empty_chunk;
    Alcotest.test_case "bytecode input = text input" `Quick bytecode_input;
    Alcotest.test_case "generic printing" `Quick generic_form;
    Alcotest.test_case "op budget fails the parse" `Quick budget_exhausted;
  ]
