(* The benchmark's in-process side.

   [layers encode OUT_DIR FILE...] parses each text document (without
   verifying it) and writes it to OUT_DIR as bytecode, so the bytecode
   inputs exist before any timing starts. Locations name the file by its
   base name, as a server client sends it.

   [layers trace LIST RESULTS SPANS RECORD SERVER] sends the requests of
   LIST (one "kind path depth" line each) through each layer's public
   function: the text parser or the bytecode reader
   ([Frontend.Stream.next]), [Verifier.verify_all], the text printer or
   the bytecode writer ([Frontend.Sink]) and diagnostic rendering through a
   [Diag.Engine] printer handler. With SERVER = 1, a second loop then
   sends the same requests through [Server.handle] on a context of its
   own, loaded and frozen as [irdl-opt --listen] does, so neither loop
   warms the other's caches; the cache, intern and GC figures and the
   layers' shares of wall time come from the first loop alone. With
   RECORD = 1 every call is wrapped in a span kept in memory (name, start,
   end, parent span, document id and minor words allocated), written to
   SPANS at the end; with RECORD = 0 the same loops run with the recorder
   off, so the two runs' loop times give the tracing overhead. Before
   the loops, documents nested to two depths are also parsed on fresh
   contexts for [ir.parser.depth_ratio] (see [depth_ratio]). The
   verdict, diagnostics and output of every request go to RESULTS for the
   oracle; per-layer metrics are printed to stdout as one JSON object. *)

module Diag = Irdl_support.Diag
module Monotonic = Irdl_support.Monotonic
module Context = Irdl_ir.Context
module Verifier = Irdl_ir.Verifier
module Frontend = Irdl_bytecode.Frontend
module Source = Frontend.Source
module Server = Irdl_server.Server

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ---- span recorder ---- *)

type span = {
  name : string;
  start : int64;
  mutable stop : int64;
  parent : int;
  doc : int;
  mutable words : float;
}

let recording = ref false
let spans = ref [||]
let n_spans = ref 0
let open_spans = ref []

let span name doc f =
  if not !recording then f ()
  else begin
    let parent = match !open_spans with i :: _ -> i | [] -> -1 in
    let w0 = Gc.minor_words () in
    let s = { name; start = Monotonic.now_ns (); stop = 0L; parent; doc; words = 0. } in
    if !n_spans = Array.length !spans then
      spans := Array.append !spans (Array.make (max 1024 !n_spans) s);
    let idx = !n_spans in
    !spans.(idx) <- s;
    incr n_spans;
    open_spans := idx :: !open_spans;
    let r = f () in
    open_spans := List.tl !open_spans;
    s.stop <- Monotonic.now_ns ();
    s.words <- Gc.minor_words () -. w0;
    r
  end

let duration s = Int64.to_float (Int64.sub s.stop s.start) /. 1e9

(* Self time and self allocation: a span's own figures minus those of its
   direct children. *)
let self_costs () =
  let n = !n_spans in
  let time = Array.init n (fun i -> duration !spans.(i)) in
  let words = Array.init n (fun i -> !spans.(i).words) in
  for i = 0 to n - 1 do
    let p = !spans.(i).parent in
    if p >= 0 then begin
      time.(p) <- time.(p) -. duration !spans.(i);
      words.(p) <- words.(p) -. !spans.(i).words
    end
  done;
  (time, words)

let write_spans path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "[";
      for i = 0 to !n_spans - 1 do
        let s = !spans.(i) in
        Printf.fprintf oc "%s\n{\"id\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"parent\":%d,\"doc\":%d,\"minor_words\":%.0f}"
          (if i = 0 then "" else ",") i s.name s.start s.stop s.parent s.doc s.words
      done;
      output_string oc "\n]\n")

(* ---- the registry irdl-opt --cmath --corpus builds ---- *)

let load () =
  let ctx = Context.create () in
  let native = Irdl_core.Native.create () in
  Irdl_dialects.Cmath.register_hooks native;
  let ok = function Ok _ -> () | Error d -> failwith (Fmt.str "%a" Diag.pp d) in
  span "core.load" (-1) (fun () ->
      ok (Irdl_dialects.Corpus.load_all ~native ctx);
      ok (Irdl_core.Irdl.load_one ~native ctx Irdl_dialects.Cmath.source));
  ctx

let encode out_dir files =
  let ctx = load () in
  List.iter
    (fun path ->
      let ops =
        match
          Frontend.parse_module ~file:(Filename.basename path) ctx
            (Source.Text (read_file path))
        with
        | Ok ops -> ops
        | Error d -> failwith (Fmt.str "%a" Diag.pp d)
      in
      let sink = Frontend.Sink.bytecode () in
      List.iter (Frontend.Sink.push sink) ops;
      match Frontend.Sink.close sink with
      | Ok blob ->
          let base = Filename.remove_extension (Filename.basename path) in
          Out_channel.with_open_bin (Filename.concat out_dir (base ^ ".irdlbc"))
            (fun oc -> output_string oc blob)
      | Error d -> failwith (Fmt.str "%a" Diag.pp d))
    files

(* ---- one request through the layers ---- *)

type counts = {
  mutable text_ops : int;
  mutable printed_bytes : int;
  mutable diags : int;
  mutable verify_failed : int;
}

let counts = { text_ops = 0; printed_bytes = 0; diags = 0; verify_failed = 0 }

let parse ctx ~engine ~file payload =
  let session = Frontend.Stream.create ~file ~engine ctx payload in
  let rec drain acc =
    match Frontend.Stream.next session with
    | Ok (Some op) -> drain (op :: acc)
    | Ok None | Error _ -> List.rev acc
  in
  drain []

let layered ctx ~doc ~kind ~file payload =
  let engine = Diag.Engine.create () in
  let binary = Source.is_binary payload in
  let ops =
    span (if binary then "bytecode.reader" else "ir.parser") doc (fun () ->
        parse ctx ~engine ~file payload)
  in
  if not binary then counts.text_ops <- counts.text_ops + List.length ops;
  let parse_failed = Diag.Engine.has_errors engine in
  let vdiags =
    if parse_failed || kind = "parse" then []
    else
      span "ir.verifier" doc (fun () ->
          Verifier.merge_diags (List.concat_map (Verifier.verify_all ctx) ops))
  in
  if vdiags <> [] then counts.verify_failed <- counts.verify_failed + 1;
  List.iter (Diag.Engine.record engine) vdiags;
  let diags = Diag.Engine.diagnostics engine in
  let rendered =
    if diags = [] then ""
    else
      span "support.diag" doc (fun () ->
          let buf = Buffer.create 256 in
          let ppf = Format.formatter_of_buffer buf in
          List.iter (Diag.Engine.printer ppf) diags;
          Format.pp_print_flush ppf ();
          Buffer.contents buf)
  in
  counts.diags <- counts.diags + List.length diags;
  let output =
    if diags <> [] then ""
    else
      match kind with
      | "print" ->
          let out =
            span "ir.printer" doc (fun () ->
                let sink = Frontend.Sink.text ctx in
                List.iter (Frontend.Sink.push sink) ops;
                Diag.get_ok (Frontend.Sink.close sink))
          in
          counts.printed_bytes <- counts.printed_bytes + String.length out;
          out ^ "\n"
      | "emit-bytecode" ->
          span "bytecode.writer" doc (fun () ->
              let sink = Frontend.Sink.bytecode () in
              List.iter (Frontend.Sink.push sink) ops;
              Diag.get_ok (Frontend.Sink.close sink))
      | _ -> ""
  in
  List.iter Frontend.Stream.release ops;
  Diag.Sources.drop file;
  let status =
    if parse_failed then "parse_error" else if vdiags <> [] then "verify_error" else "ok"
  in
  (status, rendered, output)

let handled ctx ~doc ~kind ~file payload =
  let rq =
    {
      Server.rq_id = string_of_int doc;
      rq_kind = Option.get (Server.kind_of_string kind);
      rq_file = file;
      rq_limits = Irdl_support.Limits.unlimited;
      rq_payload = payload;
    }
  in
  let rs = span "server.handle" doc (fun () -> Server.handle ctx Server.default_config rq) in
  Server.status_to_string rs.Server.rs_status

(* A context loaded outside any span: only the traced loop's own load
   counts towards core.load. *)
let load_unrecorded () =
  let was = !recording in
  recording := false;
  let ctx = load () in
  recording := was;
  ctx

(* ---- the depth probe ---- *)

(* Parse time of one document on a freshly loaded context, so that nothing
   interned by earlier documents weighs on it. The probes run before the
   traced loop: a heap grown by the loop slows them down. *)
let fresh_parse_s ~file payload =
  let ctx = load_unrecorded () in
  let t0 = Monotonic.now_ns () in
  ignore (parse ctx ~engine:(Diag.Engine.create ()) ~file payload);
  let dt = Monotonic.elapsed_s t0 in
  Diag.Sources.drop file;
  dt

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Parse time of the first document at the workload's largest nesting
   depth over that of the first at its smallest, each the median of five
   parses on fresh contexts: 16 when interning is quadratic in
   depth (the largest is 4 times the smallest), 4 when it is linear.
   Inside the loop every document also pays for the values interned
   before it, which would blur the two. 0 without two depths. *)
let depth_ratio requests payloads =
  let depths = Array.map (fun (_, _, d) -> d) requests in
  let first d =
    let i = ref 0 in
    while depths.(!i) <> d do incr i done;
    let _, path, _ = requests.(!i) in
    (Filename.basename path, payloads.(!i))
  in
  let nested = List.filter (fun d -> d > 0) (Array.to_list depths) in
  let lo = List.fold_left min max_int nested and hi = List.fold_left max 0 nested in
  if lo >= hi then 0.
  else
    let time d =
      let file, payload = first d in
      median (List.init 5 (fun _ -> fresh_parse_s ~file payload))
    in
    time hi /. time lo

(* ---- the traced loop ---- *)

let parse_list path =
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.split_on_char ' ' l with
         | [ kind; path; depth ] -> (kind, path, int_of_string depth)
         | _ -> failwith ("bad request line: " ^ l))
  |> Array.of_list

let trace ~list ~results ~spans_out ~record ~server =
  recording := record;
  let requests = parse_list list in
  let payloads = Array.map (fun (_, p, _) -> Source.classify (read_file p)) requests in
  let depth_ratio = depth_ratio requests payloads in
  let majors0 = (Gc.quick_stat ()).major_collections in
  let t_start = Monotonic.now_ns () in
  let ctx = load () in
  let uniq0 = (Context.stats ctx).st_uniquing and vc0 = (Context.stats ctx).st_verify in
  let t_loop = Monotonic.now_ns () in
  let answers =
    Array.mapi
      (fun doc (kind, path, _) ->
        let file = Filename.basename path in
        span "doc" doc (fun () -> layered ctx ~doc ~kind ~file payloads.(doc)))
      requests
  in
  let loop_s = Monotonic.elapsed_s t_loop and wall_s = Monotonic.elapsed_s t_start in
  let st = Context.stats ctx in
  let gc = Gc.quick_stat () in
  let handled_statuses =
    if not server then Array.map (fun (status, _, _) -> status) answers
    else begin
      let hctx = load_unrecorded () in
      Context.freeze hctx;
      Array.mapi
        (fun doc (kind, path, _) ->
          handled hctx ~doc ~kind ~file:(Filename.basename path)
            (Source.contents payloads.(doc)))
        requests
    end
  in
  Out_channel.with_open_bin results (fun rc ->
      Array.iteri
        (fun doc (status, rendered, output) ->
          let _, path, _ = requests.(doc) in
          Printf.fprintf rc "%s %s %s %d %d\n%s%s" (Filename.basename path) status
            handled_statuses.(doc) (String.length rendered) (String.length output) rendered
            output)
        answers);
  let self_time, self_words = self_costs () in
  let layer name =
    let t = ref 0. and w = ref 0. in
    Array.iteri
      (fun i s -> if s.name = name then (t := !t +. self_time.(i); w := !w +. self_words.(i)))
      (Array.sub !spans 0 !n_spans);
    (!t, !w /. 1e6)
  in
  let hits (s : Irdl_ir.Intern.stats) (s0 : Irdl_ir.Intern.stats) =
    (s.hits - s0.hits, s.misses - s0.misses)
  in
  let th, tm = hits st.st_uniquing.us_types uniq0.us_types in
  let ah, am = hits st.st_uniquing.us_attrs uniq0.us_attrs in
  let ratio a b = if b = 0 then 0. else float a /. float b in
  let vh = st.st_verify.vs_hits - vc0.vs_hits and vm = st.st_verify.vs_misses - vc0.vs_misses in
  let layers =
    [ "core.load"; "ir.parser"; "bytecode.reader"; "ir.verifier"; "ir.printer";
      "bytecode.writer"; "support.diag" ]
  in
  let costs = List.map (fun l -> (l, layer l)) ("server.handle" :: layers) in
  let s l = fst (List.assoc l costs) and mw l = snd (List.assoc l costs) in
  let per_s n t = if t > 0. then float n /. t else 0. in
  let metrics =
    [ ("core.load.s", s "core.load"); ("core.load.alloc_mw", mw "core.load");
      ("ir.parser.s", s "ir.parser");
      ("ir.parser.ops_per_s", per_s counts.text_ops (s "ir.parser"));
      ("ir.parser.alloc_mw", mw "ir.parser"); ("ir.parser.depth_ratio", depth_ratio);
      ("bytecode.reader.s", s "bytecode.reader"); ("bytecode.reader.alloc_mw", mw "bytecode.reader");
      ("ir.verifier.s", s "ir.verifier"); ("ir.verifier.alloc_mw", mw "ir.verifier");
      ("ir.verifier.failed", float counts.verify_failed);
      ("ir.verify_cache.hit_rate", ratio vh (vh + vm)); ("ir.verify_cache.misses", float vm);
      ("ir.intern.hit_rate", ratio (th + ah) (th + ah + tm + am));
      ("ir.intern.nodes", float (st.st_uniquing.us_types.nodes + st.st_uniquing.us_attrs.nodes));
      ("ir.printer.s", s "ir.printer");
      ("ir.printer.bytes_per_s", per_s counts.printed_bytes (s "ir.printer"));
      ("ir.printer.alloc_mw", mw "ir.printer"); ("bytecode.writer.s", s "bytecode.writer");
      ("support.diag.s", s "support.diag"); ("support.diag.count", float counts.diags);
      ("server.handle.s", s "server.handle");
      ("gc.major_collections", float (gc.major_collections - majors0));
      ("gc.top_heap_mb", float (gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
      ("trace.loop_s", loop_s); ("trace.wall_s", wall_s); ("trace.spans", float !n_spans) ]
    @ List.map (fun l -> (l ^ ".share", if record then s l /. wall_s else 0.)) layers
  in
  if record then write_spans spans_out;
  print_string "{";
  List.iteri
    (fun i (k, v) -> Printf.printf "%s\"%s\": %.17g" (if i = 0 then "" else ", ") k v)
    metrics;
  print_string "}\n"

let () =
  match Array.to_list Sys.argv with
  | _ :: "encode" :: out_dir :: files -> encode out_dir files
  | [ _; "trace"; list; results; spans_out; record; server ] ->
      trace ~list ~results ~spans_out ~record:(record = "1") ~server:(server = "1")
  | _ ->
      prerr_endline
        "usage: layers encode OUT_DIR FILE...\n\
        \       layers trace LIST RESULTS SPANS RECORD SERVER";
      exit 2
