(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (section 6) from the bundled IRDL corpus — the same output as
   `irdl-stats`, kept here so `dune exec bench/main.exe` reproduces the
   paper end to end.

   Part 2 runs bechamel micro-benchmarks: one workload per experiment
   (the computation that regenerates each table/figure) plus the
   performance characteristics of the implementation itself (parse,
   resolve, registration, verification, printing, parsing, rewriting) —
   including the ablations called out in DESIGN.md (custom formats vs
   generic syntax). The paper reports no absolute performance numbers;
   these benches back the "runtime registration without recompilation"
   claim with measured costs. *)

open Bechamel
open Toolkit

let corpus =
  lazy
    (match Irdl_dialects.Corpus.analyze () with
    | Ok dls -> dls
    | Error d -> failwith (Irdl_support.Diag.to_string d))

(* ------------------------------------------------------------------ *)
(* Part 1: tables and figures                                          *)
(* ------------------------------------------------------------------ *)

let print_report () =
  Fmt.pr "############ Reproduction of the paper's evaluation ############@.";
  Irdl_analysis.Report.full Fmt.stdout (Lazy.force corpus);
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* Part 2: benchmarks                                                  *)
(* ------------------------------------------------------------------ *)

let spv_source =
  lazy
    (let e =
       List.find (fun (e : Irdl_dialects.Corpus.entry) -> e.name = "spv")
         Irdl_dialects.Corpus.all
     in
     e.source)

(* Pre-built state for the steady-state benches. *)
let cmath_ctx =
  lazy
    (let ctx = Irdl_ir.Context.create () in
     match Irdl_dialects.Cmath.load ctx with
     | Ok _ -> ctx
     | Error d -> failwith (Irdl_support.Diag.to_string d))

let conorm_text =
  {|
"func.func"() ({
^bb0(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>):
  %np = cmath.norm %p : f32
  %nq = cmath.norm %q : f32
  %m = "arith.mulf"(%np, %nq) : (f32, f32) -> f32
  "func.return"(%m) : (f32) -> ()
}) {sym_name = "conorm"} : () -> ()
|}

let conorm_op =
  lazy
    (let ctx = Lazy.force cmath_ctx in
     match Irdl_ir.Parser.parse_op_string ctx conorm_text with
     | Ok op -> op
     | Error d -> failwith (Irdl_support.Diag.to_string d))

let mul_op =
  lazy
    (let complex =
       Irdl_ir.Attr.dynamic ~dialect:"cmath" ~name:"complex"
         [ Irdl_ir.Attr.typ Irdl_ir.Attr.f32 ]
     in
     let v =
       Irdl_ir.Graph.Op.result
         (Irdl_ir.Graph.Op.create ~result_tys:[ complex ] "t.v")
         0
     in
     Irdl_ir.Graph.Op.create ~operands:[ v; v ] ~result_tys:[ complex ]
       "cmath.mul")

let norm_of_mul_pattern =
  Irdl_rewrite.Pattern.dag ~name:"norm-mul"
    ~root:
      (Irdl_rewrite.Pattern.m_op "arith.mulf"
         [
           Irdl_rewrite.Pattern.m_op "cmath.norm"
             [ Irdl_rewrite.Pattern.m_val "p" ];
           Irdl_rewrite.Pattern.m_op "cmath.norm"
             [ Irdl_rewrite.Pattern.m_val "q" ];
         ])
    ~replacement:
      (Irdl_rewrite.Pattern.b_op "cmath.norm"
         [
           Irdl_rewrite.Pattern.b_op "cmath.mul"
             [ Irdl_rewrite.Pattern.b_cap "p"; Irdl_rewrite.Pattern.b_cap "q" ]
             (Irdl_rewrite.Pattern.Ty_of_capture "p");
         ]
         (Irdl_rewrite.Pattern.Ty_const Irdl_ir.Attr.f32))
    ()

let profiles =
  lazy (Irdl_analysis.Op_stats.profiles_of_corpus (Lazy.force corpus))

let finals =
  lazy
    (List.map
       (fun (dl : Irdl_core.Resolve.dialect) ->
         (dl.dl_name, List.length dl.dl_ops))
       (Lazy.force corpus))

let stage = Staged.stage

(* One Test.make per table/figure: the computation that regenerates it. *)
let figure_tests =
  [
    Test.make ~name:"table1:corpus-parse-resolve"
      (stage (fun () ->
           match Irdl_dialects.Corpus.analyze () with
           | Ok dls -> List.length dls
           | Error _ -> assert false));
    Test.make ~name:"fig3:evolution-series"
      (stage (fun () ->
           Irdl_analysis.Evolution.series ~finals:(Lazy.force finals)));
    Test.make ~name:"fig4:ops-per-dialect"
      (stage (fun () ->
           List.map
             (fun (dl : Irdl_core.Resolve.dialect) -> List.length dl.dl_ops)
             (Lazy.force corpus)));
    Test.make ~name:"fig5:operand-histograms"
      (stage (fun () ->
           let ps = Lazy.force profiles in
           ( Irdl_analysis.Op_stats.operand_buckets ps,
             Irdl_analysis.Op_stats.variadic_operand_buckets ps )));
    Test.make ~name:"fig6:result-histograms"
      (stage (fun () ->
           let ps = Lazy.force profiles in
           ( Irdl_analysis.Op_stats.result_buckets ps,
             Irdl_analysis.Op_stats.variadic_result_buckets ps )));
    Test.make ~name:"fig7:attr-region-histograms"
      (stage (fun () ->
           let ps = Lazy.force profiles in
           ( Irdl_analysis.Op_stats.attribute_buckets ps,
             Irdl_analysis.Op_stats.region_buckets ps )));
    Test.make ~name:"fig8:param-kinds"
      (stage (fun () ->
           let dls = Lazy.force corpus in
           ( Irdl_analysis.Param_stats.histogram
               (List.concat_map
                  (fun (dl : Irdl_core.Resolve.dialect) -> dl.dl_types)
                  dls),
             Irdl_analysis.Param_stats.histogram
               (List.concat_map
                  (fun (dl : Irdl_core.Resolve.dialect) -> dl.dl_attrs)
                  dls) )));
    Test.make ~name:"fig9-10:def-verifier-splits"
      (stage (fun () ->
           List.map
             (fun (dl : Irdl_core.Resolve.dialect) ->
               ( Irdl_analysis.Expressiveness.def_split dl.dl_types,
                 Irdl_analysis.Expressiveness.verifier_split dl.dl_attrs ))
             (Lazy.force corpus)));
    Test.make ~name:"fig11:op-expressiveness"
      (stage (fun () ->
           let ops =
             List.concat_map
               (fun (dl : Irdl_core.Resolve.dialect) -> dl.dl_ops)
               (Lazy.force corpus)
           in
           ( Irdl_analysis.Expressiveness.op_local_split ops,
             Irdl_analysis.Expressiveness.op_verifier_split ops )));
    Test.make ~name:"fig12:native-categories"
      (stage (fun () ->
           Irdl_analysis.Expressiveness.category_histogram
             (Lazy.force corpus)));
  ]

(* Ablation: constraint-variable environment threading vs fixed types. *)
let vars_ablation_ctx =
  lazy
    (let ctx = Irdl_ir.Context.create () in
     match
       Irdl_core.Irdl.load ctx
         {|Dialect ab {
             Operation mul_vars {
               ConstraintVars (T: !AnyOf<!f32, !f64>)
               Operands (a: !T, b: !T)
               Results (r: !T)
             }
             Operation mul_fixed {
               Operands (a: !f32, b: !f32)
               Results (r: !f32)
             }
           }|}
     with
     | Ok _ -> ctx
     | Error d -> failwith (Irdl_support.Diag.to_string d))

let ablation_op name =
  lazy
    (let v =
       Irdl_ir.Graph.Op.result
         (Irdl_ir.Graph.Op.create ~result_tys:[ Irdl_ir.Attr.f32 ] "t.v")
         0
     in
     Irdl_ir.Graph.Op.create ~operands:[ v; v ]
       ~result_tys:[ Irdl_ir.Attr.f32 ] name)

let mul_vars_op = ablation_op "ab.mul_vars"
let mul_fixed_op = ablation_op "ab.mul_fixed"

let pattern_src =
  {|Pattern p {
      Match (arith.mulf (cmath.norm $p) (cmath.norm $q))
      Rewrite (cmath.norm (cmath.mul $p $q : $p) : f32)
    }|}

(* Implementation performance and DESIGN.md ablations. *)
let perf_tests =
  [
    Test.make ~name:"perf:register-full-corpus-28-dialects"
      (stage (fun () ->
           let ctx = Irdl_ir.Context.create () in
           Irdl_dialects.Corpus.load_all ctx));
    Test.make ~name:"perf:verify-constraint-vars(ablation)"
      (stage (fun () ->
           Irdl_ir.Verifier.verify_op (Lazy.force vars_ablation_ctx)
             (Lazy.force mul_vars_op)));
    Test.make ~name:"perf:verify-fixed-types(ablation)"
      (stage (fun () ->
           Irdl_ir.Verifier.verify_op (Lazy.force vars_ablation_ctx)
             (Lazy.force mul_fixed_op)));
    Test.make ~name:"perf:parse-textual-pattern"
      (stage (fun () ->
           Irdl_rewrite.Textual.parse_patterns (Lazy.force cmath_ctx)
             pattern_src));
    Test.make ~name:"perf:irdl-parse-cmath"
      (stage (fun () -> Irdl_core.Parser.parse_file Irdl_dialects.Cmath.source));
    Test.make ~name:"perf:irdl-parse-spv-187ops"
      (stage (fun () -> Irdl_core.Parser.parse_file (Lazy.force spv_source)));
    Test.make ~name:"perf:resolve-cmath"
      (stage (fun () ->
           match Irdl_core.Parser.parse_one Irdl_dialects.Cmath.source with
           | Ok ast -> Irdl_core.Resolve.resolve_dialect ast
           | Error _ -> assert false));
    Test.make ~name:"perf:register-cmath-dialect"
      (stage (fun () ->
           let ctx = Irdl_ir.Context.create () in
           Irdl_core.Irdl.load ctx Irdl_dialects.Cmath.source));
    Test.make ~name:"perf:verify-cmath-mul"
      (stage (fun () ->
           Irdl_ir.Verifier.verify_op (Lazy.force cmath_ctx)
             (Lazy.force mul_op)));
    Test.make ~name:"perf:verify-conorm-function"
      (stage (fun () ->
           Irdl_ir.Verifier.verify (Lazy.force cmath_ctx)
             (Lazy.force conorm_op)));
    Test.make ~name:"perf:ir-parse-conorm"
      (stage (fun () ->
           Irdl_ir.Parser.parse_op_string (Lazy.force cmath_ctx) conorm_text));
    Test.make ~name:"perf:ir-print-custom-formats"
      (stage (fun () ->
           Irdl_ir.Printer.op_to_string (Lazy.force cmath_ctx)
             (Lazy.force conorm_op)));
    Test.make ~name:"perf:ir-print-generic(ablation)"
      (stage (fun () ->
           Irdl_ir.Printer.op_to_string ~generic:true (Lazy.force cmath_ctx)
             (Lazy.force conorm_op)));
    Test.make ~name:"perf:dominance-verify-conorm"
      (stage (fun () -> Irdl_ir.Dominance.verify (Lazy.force conorm_op)));
    Test.make ~name:"perf:greedy-rewrite-conorm"
      (stage (fun () ->
           let ctx = Lazy.force cmath_ctx in
           match Irdl_ir.Parser.parse_op_string ctx conorm_text with
           | Ok op -> Irdl_rewrite.Driver.apply ctx [ norm_of_mul_pattern ] op
           | Error _ -> assert false));
    (* The pass manager's overhead over calling the transformations
       directly: pipeline resolution, per-pass timing and stats
       aggregation (plus a whole-module re-verify per pass with
       --verify-each). *)
    Test.make ~name:"perf:pass-pipeline-canonicalize-cse-dce"
      (stage (fun () ->
           let ctx = Lazy.force cmath_ctx in
           match Irdl_ir.Parser.parse_op_string ctx conorm_text with
           | Ok op ->
               let passes =
                 match
                   Irdl_pass.Pipeline.parse
                     ~available:
                       (Irdl_pass.Passes.builtin
                          ~patterns:[ norm_of_mul_pattern ] ())
                     "canonicalize,cse,dce"
                 with
                 | Ok ps -> ps
                 | Error _ -> assert false
               in
               Irdl_pass.Pass_manager.run
                 (Irdl_pass.Pass_manager.create passes)
                 ctx [ op ]
           | Error _ -> assert false));
    Test.make ~name:"perf:pass-pipeline-verify-each(ablation)"
      (stage (fun () ->
           let ctx = Lazy.force cmath_ctx in
           match Irdl_ir.Parser.parse_op_string ctx conorm_text with
           | Ok op ->
               let passes =
                 match
                   Irdl_pass.Pipeline.parse
                     ~available:
                       (Irdl_pass.Passes.builtin
                          ~patterns:[ norm_of_mul_pattern ] ())
                     "canonicalize,cse,dce"
                 with
                 | Ok ps -> ps
                 | Error _ -> assert false
               in
               Irdl_pass.Pass_manager.run
                 (Irdl_pass.Pass_manager.create ~verify_each:true passes)
                 ctx [ op ]
           | Error _ -> assert false));
  ]

(* ------------------------------------------------------------------ *)
(* Uniquing (hash-consing) benchmarks                                  *)
(* ------------------------------------------------------------------ *)

(* A deep attribute tree built with BARE variant constructors, bypassing
   the interning smart constructors, so [Attr.equal] on two independent
   builds must do the full structural walk. ~2^n nodes. *)
let rec deep_raw n : Irdl_ir.Attr.t =
  let open Irdl_ir in
  if n = 0 then Attr.Int { value = 42L; ty = Attr.i64 }
  else
    Attr.Array
      {
        elems =
          [
            Attr.Dict
              {
                entries =
                  [ ("k0", deep_raw (n - 1)); ("k1", Attr.String "payload") ];
                hash = 0;
              };
            Attr.Dyn_attr
              {
                dialect = "bench";
                name = "node";
                params = [ deep_raw (n - 1) ];
                hash = 0;
              };
          ];
        hash = 0;
      }

let deep_a = lazy (deep_raw 10)
let deep_b = lazy (deep_raw 10)
let interned_a = lazy (Irdl_ir.Attr.intern (Lazy.force deep_a))
let interned_b = lazy (Irdl_ir.Attr.intern (Lazy.force deep_b))

(* A large straight-line module with many value-numbering duplicates:
   2000 ops over 16 distinct keys, so CSE fingerprints every op (ids for
   attrs and result types) and eliminates the bulk of them. *)
let make_big_module () =
  let open Irdl_ir in
  let blk = Graph.Block.create ~arg_tys:[ Attr.i32; Attr.i32 ] () in
  let a, b =
    match Graph.Block.args blk with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  for i = 0 to 1999 do
    let op =
      Graph.Op.create ~operands:[ a; b ]
        ~attrs:[ ("k", Attr.int (Int64.of_int (i mod 16))) ]
        ~result_tys:[ Attr.i32 ] "t.add"
    in
    Graph.Block.append blk op
  done;
  Graph.Op.create ~regions:[ Graph.Region.create ~blocks:[ blk ] () ] "t.func"

let intern_tests =
  [
    Test.make ~name:"attr-equal:deep-structural"
      (stage (fun () ->
           Irdl_ir.Attr.equal (Lazy.force deep_a) (Lazy.force deep_b)));
    Test.make ~name:"attr-equal:interned"
      (stage (fun () ->
           Irdl_ir.Attr.equal (Lazy.force interned_a)
             (Lazy.force interned_b)));
    Test.make ~name:"cse:synthetic-2000ops"
      (stage (fun () ->
           let ctx = Irdl_ir.Context.create () in
           Irdl_rewrite.Cse.run ctx (make_big_module ())));
  ]

(* Interning cost against depth: an attribute chain [[...[k : i32]...]]
   and a type chain !t.c<!t.c<...<k : i64>...>>, [d] levels each, built
   through the smart constructors, parsed from text, and verified in a
   fresh context. Every run ends its chains in a leaf never interned
   before. Linear cost shows as a 4x step from one depth to the next, a
   quadratic one as 16x. *)
let depths = [ 1000; 4000; 16000 ]

let fresh_leaf =
  let n = ref 0 in
  fun () ->
    incr n;
    !n

let construct_chains d =
  let open Irdl_ir in
  let leaf = Attr.int (Int64.of_int (fresh_leaf ())) in
  let rec attr k a = if k = 0 then a else attr (k - 1) (Attr.array [ a ]) in
  let rec ty k t =
    if k = 0 then t
    else ty (k - 1) (Attr.dynamic ~dialect:"t" ~name:"c" [ Attr.typ t ])
  in
  ignore (attr d leaf);
  ignore (ty d (Attr.dynamic ~dialect:"t" ~name:"leaf" [ leaf ]))

let chain_texts d =
  let k = fresh_leaf () in
  ( String.make d '[' ^ Printf.sprintf "%d : i32" k ^ String.make d ']',
    String.concat "" (List.init d (fun _ -> "!t.c<"))
    ^ Printf.sprintf "%d : i64" k ^ String.make d '>' )

let parse_chains ctx (attr, ty) =
  let ok = function
    | Ok v -> v
    | Error d -> failwith (Irdl_support.Diag.to_string d)
  in
  ( ok (Irdl_ir.Parser.parse_attr_string ctx attr),
    ok (Irdl_ir.Parser.parse_type_string ctx ty) )

(* Best of up to 3 runs, each on fresh input from [prepare] (untimed);
   stops early once 2 s have been spent, so the slow end of a quadratic
   curve is still measured, once. *)
let best_time prepare =
  let rec go k best spent =
    if k = 0 || spent > 2. then best
    else
      let run = prepare () in
      let t0 = Irdl_support.Monotonic.now_ns () in
      run ();
      let dt = Irdl_support.Monotonic.elapsed_s t0 in
      go (k - 1) (Float.min best dt) (spent +. dt)
  in
  go 3 infinity 0.

let depth_curve () =
  List.map
    (fun d ->
      let ctx = Irdl_ir.Context.create () in
      let construct_s = best_time (fun () () -> construct_chains d) in
      let parse_s =
        best_time (fun () ->
            let texts = chain_texts d in
            fun () -> ignore (parse_chains ctx texts))
      in
      let verify_s =
        best_time (fun () ->
            let a, ty = parse_chains ctx (chain_texts d) in
            let vctx = Irdl_ir.Context.create () in
            fun () ->
              match
                ( Irdl_ir.Verifier.verify_attr vctx a,
                  Irdl_ir.Verifier.verify_ty vctx ty )
              with
              | Ok (), Ok () -> ()
              | Error e, _ | _, Error e ->
                  failwith (Irdl_support.Diag.to_string e))
      in
      Fmt.pr "%-45s %8.4f s %8.4f s %8.4f s@."
        (Fmt.str "depth %d: construct / parse / verify" d)
        construct_s parse_s verify_s;
      (d, construct_s, parse_s, verify_s))
    depths

(* The CPU model, for the record next to the core count. *)
let machine () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> "unknown"
        | line -> (
            match String.index_opt line ':' with
            | Some i when String.starts_with ~prefix:"model name" line ->
                String.trim
                  (String.sub line (i + 1) (String.length line - i - 1))
            | _ -> scan ())
      in
      let m = scan () in
      close_in ic;
      m

(* ------------------------------------------------------------------ *)
(* Verification engine benchmarks                                      *)
(* ------------------------------------------------------------------ *)

(* The whole 28-dialect corpus plus cmath (native hooks included). *)
let make_verify_ctx () =
  let ctx = Irdl_ir.Context.create () in
  let native = Irdl_core.Native.create () in
  Irdl_dialects.Cmath.register_hooks native;
  (match Irdl_dialects.Corpus.load_all ~native ctx with
  | Ok _ -> ()
  | Error d -> failwith (Irdl_support.Diag.to_string d));
  (match Irdl_core.Irdl.load_one ~native ctx Irdl_dialects.Cmath.source with
  | Ok _ -> ()
  | Error d -> failwith (Irdl_support.Diag.to_string d));
  ctx

let verify_ctx = lazy (make_verify_ctx ())

(* A module shaped like real IR: chains of cmath.mul / cmath.norm over
   !cmath.complex<f32> (constraint variables, parameterized types), values
   with rich types (BoundedVector with its native hook, function types over
   dynamic types), and ops carrying sizable shared attribute payloads
   (arrays of parameterized dynamic attributes — the analog of MLIR's
   affine maps, segment arrays and dense constants). Hash-consing makes
   every repeat visit of these nodes a uniquer hit; the memoized cache
   turns their re-verification into a table probe. *)
let make_verify_module () =
  let open Irdl_ir in
  let complex =
    Attr.dynamic ~dialect:"cmath" ~name:"complex" [ Attr.typ Attr.f32 ]
  in
  (* 8 distinct payloads of 32 parameterized dynamic attributes each,
     shared round-robin by the ops below. *)
  let payloads =
    Array.init 8 (fun k ->
        Attr.array
          (List.init 32 (fun j ->
               Attr.dyn_attr ~dialect:"cmath" ~name:"StringAttr"
                 [ Attr.opaque ~tag:"StringParam" (Fmt.str "s%d_%d" k j) ])))
  in
  let fn_ty =
    Attr.function_ty
      ~inputs:(List.init 8 (fun _ -> complex))
      ~outputs:[ Attr.f32 ]
  in
  let blk = Graph.Block.create ~arg_tys:[ complex; complex ] () in
  let p, q =
    match Graph.Block.args blk with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  let last = ref p in
  for i = 0 to 299 do
    let mul =
      Graph.Op.create ~operands:[ !last; q ] ~result_tys:[ complex ]
        ~attrs:[ ("payload", payloads.(i mod 8)) ]
        "cmath.mul"
    in
    Graph.Block.append blk mul;
    let norm =
      Graph.Op.create
        ~operands:[ Graph.Op.result mul 0 ]
        ~result_tys:[ Attr.f32 ] "cmath.norm"
    in
    Graph.Block.append blk norm;
    let bv =
      Attr.dynamic ~dialect:"cmath" ~name:"BoundedVector"
        [
          Attr.typ Attr.f32;
          Attr.int
            ~ty:(Attr.integer ~signedness:Attr.Unsigned 32)
            (Int64.of_int (i mod 16));
        ]
    in
    Graph.Block.append blk
      (Graph.Op.create ~result_tys:[ bv; fn_ty ]
         ~attrs:[ ("payload", payloads.((i + 3) mod 8)) ]
         "t.v");
    last := Graph.Op.result mul 0
  done;
  Graph.Op.create ~regions:[ Graph.Region.create ~blocks:[ blk ] () ] "t.func"

let verify_module = lazy (make_verify_module ())

let verify_tests =
  [
    (* Production configuration: warm memoized cache. *)
    Test.make ~name:"verify:memoized"
      (stage (fun () ->
           let ctx = Lazy.force verify_ctx in
           Irdl_ir.Context.set_verify_cache ctx true;
           Irdl_ir.Verifier.verify ctx (Lazy.force verify_module)));
    (* Memoization switched off: every type and attribute is re-walked on
       every visit. *)
    Test.make ~name:"verify:uncached"
      (stage (fun () ->
           let ctx = Lazy.force verify_ctx in
           Irdl_ir.Context.set_verify_cache ctx false;
           Irdl_ir.Verifier.verify ctx (Lazy.force verify_module)));
  ]

let benchmark tests =
  let instances = [ Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let test = Test.make_grouped ~name:"irdl" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> est
        | _ -> Float.nan
      in
      (name, ns) :: acc)
    results []
  |> List.sort compare

let print_rows rows =
  Fmt.pr "%-45s %15s@." "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e6 then Fmt.str "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Fmt.str "%.2f us" (ns /. 1e3)
        else Fmt.str "%.0f ns" ns
      in
      Fmt.pr "%-45s %15s@." name pretty)
    rows

let find_ns rows suffix =
  let matches (name, _) =
    let nl = String.length name and sl = String.length suffix in
    nl >= sl && String.sub name (nl - sl) sl = suffix
  in
  match List.find_opt matches rows with Some (_, ns) -> ns | None -> Float.nan

(* Machine-readable summary backing the uniquing acceptance criteria:
   interned equality must beat the deep structural walk by >= 5x, and the
   depth curve must step about 4x, not 16x, per 4x of depth. The uniquer
   counters are those before the curve ran. *)
let emit_intern_json rows (ty_stats, attr_stats) curve =
  let deep = find_ns rows "attr-equal:deep-structural" in
  let interned = find_ns rows "attr-equal:interned" in
  let cse = find_ns rows "cse:synthetic-2000ops" in
  let speedup =
    if Float.is_nan deep || Float.is_nan interned || interned <= 0. then
      Float.nan
    else deep /. interned
  in
  let stats_json (s : Irdl_ir.Intern.stats) =
    Fmt.str
      {|{ "nodes": %d, "hits": %d, "misses": %d, "hit_rate": %.4f }|}
      s.Irdl_ir.Intern.nodes s.Irdl_ir.Intern.hits s.Irdl_ir.Intern.misses
      (Irdl_ir.Intern.hit_rate s)
  in
  let num f = if Float.is_nan f then "null" else Fmt.str "%.2f" f in
  let curve_json =
    String.concat ",\n"
      (List.map
         (fun (d, c, p, v) ->
           Fmt.str
             {|    { "depth": %d, "construct_s": %.6f, "parse_s": %.6f, "verify_s": %.6f }|}
             d c p v)
         curve)
  in
  let json =
    Fmt.str
      {|{
  "smoke": false,
  "machine": %S,
  "cores": %d,
  "deep_equal_ns": %s,
  "interned_equal_ns": %s,
  "equal_speedup": %s,
  "cse_synthetic_2000ops_ns": %s,
  "uniquer": { "types": %s, "attrs": %s },
  "depth_curve": [
%s
  ]
}
|}
      (machine ())
      (Domain.recommended_domain_count ())
      (num deep) (num interned) (num speedup) (num cse) (stats_json ty_stats)
      (stats_json attr_stats) curve_json
  in
  let oc = open_out "BENCH_intern.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "@.wrote BENCH_intern.json (equal speedup: %s)@." (num speedup)

(* Machine-readable summary of what the verify cache buys: memoized vs
   uncached whole-module verification, with the machine's core count. *)
let emit_verify_json ~smoke rows =
  (* Sanity: the bench module must actually verify — a module that fails
     early would make the timings meaningless. *)
  let sanity_ctx = Lazy.force verify_ctx in
  Irdl_ir.Context.set_verify_cache sanity_ctx true;
  (match Irdl_ir.Verifier.verify sanity_ctx (Lazy.force verify_module) with
  | Ok () -> ()
  | Error d ->
      failwith
        ("verification bench module does not verify: "
        ^ Irdl_support.Diag.to_string d));
  let uncached = find_ns rows "verify:uncached" in
  let memoized = find_ns rows "verify:memoized" in
  let speedup =
    if Float.is_nan uncached || Float.is_nan memoized || memoized <= 0. then
      Float.nan
    else uncached /. memoized
  in
  let s = (Irdl_ir.Context.stats (Lazy.force verify_ctx)).st_verify in
  let num f = if Float.is_nan f then "null" else Fmt.str "%.2f" f in
  let json =
    Fmt.str
      {|{
  "smoke": %b,
  "cores": %d,
  "uncached_ns": %s,
  "memoized_ns": %s,
  "speedup": %s,
  "cache": { "ty_entries": %d, "attr_entries": %d, "hits": %d,
             "misses": %d, "hit_rate": %.4f, "invalidations": %d }
}
|}
      smoke
      (Domain.recommended_domain_count ())
      (num uncached) (num memoized) (num speedup)
      s.Irdl_ir.Context.vs_ty_entries s.vs_attr_entries s.vs_hits s.vs_misses
      (Irdl_ir.Context.verify_hit_rate s)
      s.vs_invalidations
  in
  let oc = open_out "BENCH_verify.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "@.wrote BENCH_verify.json (verify speedup: %s)@." (num speedup)

let run_verify_benches ~smoke =
  Fmt.pr "@.############ Benchmarks: verification engine ############@.";
  let rows = benchmark verify_tests in
  print_rows rows;
  emit_verify_json ~smoke rows

let () =
  (* --smoke (used by CI): only the verification bench, so BENCH_verify.json
     is produced in seconds rather than re-running the whole evaluation. *)
  let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv in
  if smoke then run_verify_benches ~smoke
  else begin
    print_report ();
    Fmt.pr "############ Benchmarks: experiment regeneration ############@.";
    print_rows (benchmark figure_tests);
    Fmt.pr
      "@.############ Benchmarks: implementation performance ############@.";
    print_rows (benchmark perf_tests);
    Fmt.pr "@.############ Benchmarks: uniquing (hash-consing) ############@.";
    let intern_rows = benchmark intern_tests in
    print_rows intern_rows;
    let uniquer = Irdl_ir.Attr.uniquer_stats () in
    run_verify_benches ~smoke;
    (* Last: the curve leaves the shard holding about 10^5 deep nodes,
       which the benches above should not run against. *)
    Fmt.pr "@.############ Interning cost against depth ############@.";
    let curve = depth_curve () in
    emit_intern_json intern_rows uniquer curve
  end;
  Fmt.pr "@.done.@."
