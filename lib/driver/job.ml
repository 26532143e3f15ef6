(* See the interface. *)

open Irdl_support
module Verifier = Irdl_ir.Verifier
module Frontend = Irdl_bytecode.Frontend
module Pass_manager = Irdl_pass.Pass_manager

type sink = Discard | Text | Bytecode

type config = {
  streaming : bool;
  verify : bool;
  pipeline : Pass_manager.t option;
  sink : sink;
  generic : bool;
  limits : Limits.t;
}

let default =
  {
    streaming = true;
    verify = true;
    pipeline = None;
    sink = Discard;
    generic = false;
    limits = Limits.unlimited;
  }

type result = {
  parse_failed : bool;
  verify_failed : bool;
  output : string option;
  report : Pass_manager.report option;
}

let make_sink ctx config =
  match config.sink with
  | Discard -> None
  | Text -> Some (Frontend.Sink.text ~generic:config.generic ctx)
  | Bytecode -> Some (Frontend.Sink.bytecode ())

(* Parse the chunk in one pass over its session. The streaming path
   verifies, emits and releases each op as it arrives and keeps none; the
   materializing path keeps every op. The second component yields the
   verification diagnostics, in [Verifier.verify_ops_all] order either
   way. A session that ends on an error keeps nothing, as
   [Frontend.parse_module] does. *)
let parse ctx config ~engine ~path ~streamed sink payload =
  let session =
    Frontend.Stream.create ~file:path ~engine ~limits:config.limits ctx payload
  in
  let rec go kept vdiags =
    match Frontend.Stream.next session with
    | Ok None -> (List.rev kept, vdiags)
    | Error _ -> ([], vdiags)
    | Ok (Some op) when streamed ->
        let vdiags =
          if config.verify then Verifier.verify_all ctx op :: vdiags else vdiags
        in
        Option.iter (fun s -> Frontend.Sink.push s op) sink;
        Frontend.Stream.release op;
        go kept vdiags
    | Ok (Some op) -> go (op :: kept) vdiags
  in
  let ops, vdiags = go [] [] in
  ( ops,
    fun () ->
      if streamed then Verifier.merge_diags (List.concat (List.rev vdiags))
      else if config.verify then Verifier.verify_ops_all ctx ops
      else [] )

(* Run the pipeline (even over an empty module: the timing report is still
   produced). Returns whether the passes succeeded and the transformed IR
   still verifies, and the report of a pipeline that ran to completion. *)
let run_pipeline ctx ~engine ops = function
  | None -> (true, None)
  | Some mgr -> (
      match Pass_manager.run mgr ctx ops with
      | Error d ->
          Diag.Engine.emit engine d;
          (false, None)
      | Ok report ->
          let post = Verifier.verify_ops_all ctx ops in
          List.iter (Diag.Engine.emit engine) post;
          (post = [], Some report))

let run ctx config ~engine ~path payload =
  let e0 = Diag.Engine.error_count engine in
  let clean () = Diag.Engine.error_count engine = e0 in
  let result ?(parse_failed = false) ?(verify_failed = false) ?output ?report
      () =
    { parse_failed; verify_failed; output; report }
  in
  let streamed = config.streaming && config.pipeline = None in
  let sink = make_sink ctx config in
  let ops, verify = parse ctx config ~engine ~path ~streamed sink payload in
  if not (clean ()) then result ~parse_failed:true ()
  else
    let vdiags = verify () in
    List.iter (Diag.Engine.emit engine) vdiags;
    if vdiags <> [] then result ~verify_failed:true ()
    else
      let passed, report = run_pipeline ctx ~engine ops config.pipeline in
      if not (passed && clean ()) then result ~verify_failed:true ?report ()
      else begin
        if not streamed then
          Option.iter (fun s -> List.iter (Frontend.Sink.push s) ops) sink;
        match Option.map Frontend.Sink.close sink with
        | None -> result ?report ()
        | Some (Ok output) -> result ~output ?report ()
        | Some (Error d) ->
            Diag.Engine.emit engine d;
            result ~verify_failed:true ?report ()
      end
