(** Versioned binary serialization ("IRDL bytecode") for IR modules and
    resolved IRDL dialect definitions.

    A bytecode buffer is a sequence of self-delimiting {e documents}, each
    [magic version kind payload_len payload]; documents concatenate freely
    (the binary analog of [// -----] chunks). Module payloads carry
    deduplicated string and type/attribute tables that intern directly on
    load, plus a byte-length index of the top-level ops so a streaming
    reader can {!Stream.skip} an op — regions included — without decoding
    it.

    The reader never crashes on malformed input: every read is
    bounds-checked and surfaces as a located diagnostic (an [Error], or an
    emit on the fail-soft [?engine]). See DESIGN.md "Bytecode format" for
    the layout and compatibility policy. *)

open Irdl_support
module Graph = Irdl_ir.Graph
module Context = Irdl_ir.Context
module Resolve = Irdl_core.Resolve

val magic : string
(** The 8-byte document magic; the lead byte is invalid UTF-8, so bytecode
    never collides with textual IR. *)

val version : int
(** The format version this library writes; the reader accepts
    [1..version]. *)

val sniff : string -> bool
(** Does the buffer start with the bytecode magic? *)

type kind = Module_doc | Dialect_doc

type doc_info = {
  di_kind : kind;
  di_version : int;
  di_offset : int;  (** byte offset of the document in the buffer *)
  di_length : int;  (** total document length, header included *)
}

val documents : ?file:string -> string -> doc_info list
(** Walk the document headers without decoding payloads. An undecodable
    tail is returned as one final opaque slice (version 0), so consumers
    still visit — and report — it. *)

val split_documents : ?file:string -> string -> string list
(** The buffer split at document boundaries (the bytecode analog of
    splitting text on [// -----]). A buffer holding zero or one document
    is returned whole. *)

(** Serializing: an incremental module writer (ops pushed one at a time —
    the streaming emit path) plus whole-value convenience entry points. *)
module Write : sig
  type t

  val create : unit -> t

  val push_op : t -> Graph.op -> unit
  (** Append one top-level op.
      @raise Diag.Error_exn on unserializable structure (a successor
      outside the enclosing region). *)

  val close : t -> (string, Diag.t) result
  (** The finished single-document buffer. [Error] when a value used by
      the emitted ops was never defined by them. *)

  val module_to_string : Graph.op list -> (string, Diag.t) result
  val dialects_to_string : Resolve.dialect list -> (string, Diag.t) result
end

val read_module :
  ?file:string ->
  ?engine:Diag.Engine.t ->
  ?limits:Irdl_support.Limits.t ->
  Context.t ->
  string ->
  (Graph.op list, Diag.t) result
(** Materialize every module document of the buffer. Fail-fast without
    [engine] (first error, as [Error]); fail-soft with it (errors emitted,
    decoding resumes at the next document boundary, always [Ok] with the
    ops that decoded). It is [Irdl_ir.Parser.drain] over {!Stream}, so
    diagnostics are identical to the streaming path. [limits] caps
    payload size, decoded ops, region depth and wall time across the
    whole buffer; a blown budget ends the session even in fail-soft mode,
    where the budget diagnostic is emitted and the result is [Ok []], as
    for text. *)

val read_dialects :
  ?file:string ->
  ?engine:Diag.Engine.t ->
  string ->
  (Resolve.dialect list, Diag.t) result
(** Decode every dialect document of the buffer; error discipline as
    {!read_module}. The surface AST is not serialized: loaded dialects
    carry a minimal [dl_ast] holding only the enum definitions. *)

(** Pull-based reading, API-compatible with {!Irdl_ir.Parser.Stream}: one
    fully-materialized top-level op at a time, in document order. *)
module Stream : sig
  type session

  val create :
    ?file:string ->
    ?engine:Diag.Engine.t ->
    ?limits:Irdl_support.Limits.t ->
    Context.t ->
    string ->
    session

  val next : session -> (Graph.op option, Diag.t) result
  (** The next top-level op, [Ok None] at end of input. As with the
      textual stream, an op is yielded only once every forward value
      reference pending at its decode has resolved. In fail-fast mode the
      first error is sticky; with an engine, errors are emitted and the
      session resumes at the next document — except budget violations
      (diagnostic code [resource_exhausted]/[deadline_exceeded]), which
      are sticky in both modes. *)

  val skip : session -> (bool, Diag.t) result
  (** Skip the next top-level op {e without decoding it} — one hop through
      the byte-length index, regions included. [Ok false] at end of
      input. Values defined by skipped ops surface as [Released]
      placeholders to later uses, mirroring a streamed-and-released
      subtree. *)

  val release : Graph.op -> unit
  (** Alias of {!Graph.release}. *)
end

(** Structural equality oracles for round-trip tests: values and blocks
    are paired by definition position, identities and locations are
    ignored. *)
module Equal : sig
  val module_eq : Graph.op list -> Graph.op list -> bool
  val dialect_eq : Resolve.dialect -> Resolve.dialect -> bool
end
