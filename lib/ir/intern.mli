(** Hash-consing uniquer tables (MLIR's [MLIRContext] uniquing).

    A table maps every constructed value of a domain to a canonical physical
    node carrying a unique integer id, so that structural equality of interned
    values collapses to pointer/id comparison. Instantiated by {!Attr} for
    the type and attribute domains, whose keys hash and compare in O(1) per
    node, so a lookup is one probe however deep the node is. *)

type stats = {
  nodes : int;  (** distinct canonical nodes currently in the table *)
  hits : int;  (** resolved nodes answered by an existing node *)
  misses : int;  (** resolved nodes inserted as new canonical nodes *)
}

val hit_rate : stats -> float
(** Fraction of lookups answered from the table, in [0..1]; 0 when empty. *)

val add_stats : stats -> stats -> stats
(** Pointwise sum, for merging per-domain shard counters. Summed [nodes]
    counts canonical copies per shard, not distinct structures. *)

val pp_stats : Format.formatter -> stats -> unit

(** The identity of the interned domain. [equal]/[hash] must agree on the
    nodes a caller inserts ([equal a b] implies [hash a = hash b]); a probe
    whose hash disagrees just misses. Both should cost O(1) in the depth of
    a node: {!Attr} compares children by pointer and reads their stored
    hashes, which is exact because only nodes with canonical children are
    ever inserted. *)
module type HASHED = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

module type S = sig
  type node
  type table

  val create : ?size:int -> unit -> table

  val find : table -> node -> (node * int) option
  (** One probe: the node in the table equal to [x] under [H.equal], with
      its id. Counts a hit when found; a miss is counted by {!add}. *)

  val add : table -> node -> node * int
  (** Insert [x] as canonical under a fresh id and count a miss. [x] must
      not be equal to any node already in the table. Ids are dense,
      starting at 0, and never reused within a table. *)

  val stats : table -> stats
end

module Make (H : HASHED) : S with type node = H.t
