(** The document pipeline: one chunk of one input, parsed (or decoded),
    verified, optionally transformed by a pass pipeline, and emitted.

    This is the single implementation behind every driver — the one-shot
    [irdl-opt] run, its [--jobs] workers and the resident server's
    requests — so their outputs and diagnostics cannot drift apart.

    Two paths compute the same result byte for byte:
    - {b streaming} (the default): parse, verify, emit and release one
      top-level op at a time, so peak memory is bounded by the largest op
      rather than the chunk. Per-op verification results are held back
      and merged into {!Irdl_ir.Verifier.verify_ops_all}'s stable order at
      end of stream.
    - {b materializing}: parse the whole chunk first. Taken when
      [streaming = false] (the reference path the determinism gates compare
      against) and whenever a pass pipeline runs, since passes transform
      the module as a whole.

    Parse diagnostics flow through the engine in parse order. A chunk that
    fails to parse is not verified; a chunk that fails to verify is not
    transformed; output is produced only when nothing failed. A pipeline
    runs even over an empty chunk, so its timing report always exists. *)

open Irdl_support

type sink =
  | Discard  (** verify only *)
  | Text  (** the textual printer; ops joined by newlines *)
  | Bytecode  (** one self-delimiting bytecode document *)

type config = {
  streaming : bool;  (** [false] forces the materializing path *)
  verify : bool;  (** [false] stops after parsing *)
  pipeline : Irdl_pass.Pass_manager.t option;
      (** run over the verified module, then re-verify *)
  sink : sink;
  generic : bool;  (** print in generic form *)
  limits : Limits.t;  (** budgets for the parse; see {!Limits} *)
}

val default : config
(** Streaming, verifying, no pipeline, no output, unlimited budgets. *)

type result = {
  parse_failed : bool;
  verify_failed : bool;  (** verifier, pass or emitter failure *)
  output : string option;  (** [None] on failure or with [Discard] *)
  report : Irdl_pass.Pass_manager.report option;
      (** the pipeline's timing report, when it ran to completion *)
}

val run :
  Irdl_ir.Context.t ->
  config ->
  engine:Diag.Engine.t ->
  path:string ->
  Irdl_bytecode.Frontend.Source.payload ->
  result
(** Process one chunk, reporting every diagnostic to [engine] (which may
    already hold diagnostics of earlier chunks). [path] names the chunk in
    diagnostics. *)
