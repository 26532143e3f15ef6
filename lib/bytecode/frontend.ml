(* The unified frontend: every input — file, stdin, batch entry — becomes a
   [Source.payload] classified by magic sniffing (text or bytecode), every
   output flows through a [Sink] (textual printer or bytecode emitter), and
   [Stream] erases the text/bytecode distinction behind the pull-based
   session API of [Ir.Parser.Stream]. Drivers compose these uniformly
   across --split-input-file, --batch, --jobs and streaming instead of
   growing per-format input paths. *)

open Irdl_support
module Graph = Irdl_ir.Graph
module Context = Irdl_ir.Context
module Printer = Irdl_ir.Printer
module Ir_parser = Irdl_ir.Parser
module Resolve = Irdl_core.Resolve
module Native = Irdl_core.Native

module Source = struct
  type payload = Text of string | Binary of string

  let classify s = if Bytecode.sniff s then Binary s else Text s
  let contents = function Text s | Binary s -> s
  let is_binary = function Binary _ -> true | Text _ -> false

  (* Classify a channel that cannot seek (stdin): peek just the magic-sized
     prefix, then push it back by prepending — never [seek_in]. *)
  let of_channel ic =
    let mlen = String.length Bytecode.magic in
    let buf = Bytes.create mlen in
    let rec fill off =
      if off = mlen then off
      else
        match input ic buf off (mlen - off) with
        | 0 -> off
        | n -> fill (off + n)
    in
    let got = fill 0 in
    let prefix = Bytes.sub_string buf 0 got in
    classify (prefix ^ In_channel.input_all ic)

  let read path =
    if path = "-" then begin
      In_channel.set_binary_mode stdin true;
      of_channel stdin
    end
    else
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> classify (really_input_string ic (in_channel_length ic)))

  (* The unit-of-work split: '// -----' chunks for text, document
     boundaries for bytecode. Without [split] the payload is one chunk —
     a multi-document bytecode buffer still reads fine, the documents are
     just processed as one unit. *)
  let chunks ~split payload =
    match payload with
    | Text s ->
        let parts = if split then Diag_harness.split_input s else [ s ] in
        List.map (fun c -> Text c) parts
    | Binary b ->
        if split then
          List.map (fun c -> Binary c) (Bytecode.split_documents b)
        else [ payload ]
end

module Sink = struct
  type t =
    | Text_sink of {
        printer : Printer.t;
        buf : Buffer.t;
        mutable first : bool;
      }
    | Binary_sink of { w : Bytecode.Write.t; mutable err : Diag.t option }

  let text ?generic ctx =
    Text_sink
      {
        printer = Printer.create ?generic ctx;
        buf = Buffer.create 256;
        first = true;
      }

  let bytecode () = Binary_sink { w = Bytecode.Write.create (); err = None }
  let is_binary = function Binary_sink _ -> true | Text_sink _ -> false

  let push t op =
    match t with
    | Text_sink s ->
        if s.first then s.first <- false else Buffer.add_char s.buf '\n';
        Buffer.add_string s.buf
          (Fmt.str "%a" (Printer.pp_op s.printer) op)
    | Binary_sink s ->
        if s.err = None then (
          match
            Diag.protect_any (fun () -> Bytecode.Write.push_op s.w op)
          with
          | Ok () -> ()
          | Error d -> s.err <- Some d)

  let close = function
    | Text_sink s -> Ok (Buffer.contents s.buf)
    | Binary_sink s -> (
        match s.err with
        | Some d -> Error d
        | None -> Bytecode.Write.close s.w)
end

module Stream = struct
  type t =
    | Text_stream of Ir_parser.Stream.session
    | Binary_stream of Bytecode.Stream.session

  let create ?file ?engine ?limits ctx payload =
    match payload with
    | Source.Text s ->
        Text_stream (Ir_parser.Stream.create ?file ?engine ?limits ctx s)
    | Source.Binary b ->
        Binary_stream (Bytecode.Stream.create ?file ?engine ?limits ctx b)

  let next = function
    | Text_stream s -> Ir_parser.Stream.next s
    | Binary_stream s -> Bytecode.Stream.next s

  let release = Graph.release
end

let parse_module ?file ?engine ?limits ctx payload =
  let s = Stream.create ?file ?engine ?limits ctx payload in
  Ir_parser.drain ~fail_soft:(Option.is_some engine) (fun () -> Stream.next s)

let load_dialects ?native ?file ?engine ctx payload =
  match (payload, engine) with
  | Source.Text src, None ->
      Irdl_core.Irdl.load ?native ?file ctx src
  | Source.Text src, Some engine ->
      Ok (Irdl_core.Irdl.load_collect ?native ?file ~engine ctx src)
  | Source.Binary b, None ->
      Result.bind (Bytecode.read_dialects ?file b) (fun dls ->
          let rec reg = function
            | [] -> Ok dls
            | dl :: tl ->
                Result.bind
                  (Irdl_core.Registration.register ?native ctx dl)
                  (fun () -> reg tl)
          in
          reg dls)
  | Source.Binary b, Some engine -> (
      match Bytecode.read_dialects ?file ~engine b with
      | Error d -> Error d
      | Ok dls ->
          List.iter
            (fun dl ->
              List.iter (Diag.Engine.emit engine)
                (Irdl_core.Registration.register_collect ?native ctx
                   dl))
            dls;
          Ok dls)
