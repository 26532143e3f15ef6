(** Hash-consing uniquer tables.

    MLIR's [MLIRContext] uniques every type and attribute it creates so that
    equality is pointer comparison and re-construction of an existing node is
    a table hit. This module provides the same mechanism for our runtime:
    a {!Make}-generated table maps every constructed value to a canonical
    physical node carrying a unique integer id. The domain supplies a key
    whose hash and equality cost O(1) per node (see {!HASHED}), so one
    probe decides a lookup however deep the node is.

    The table is strong (nodes live as long as the process, like MLIR's
    context-owned storage): the attribute population of a compilation session
    is small and heavily shared, so reclaiming unused nodes is not worth the
    weak-pointer bookkeeping.

    Instantiated by {!Attr} for the type and attribute domains; the counters
    back the uniquing statistics reported through {!Context}. *)

type stats = {
  nodes : int;  (** distinct canonical nodes currently in the table *)
  hits : int;  (** resolved nodes answered by an existing node *)
  misses : int;  (** resolved nodes inserted as new canonical nodes *)
}

let hit_rate { hits; misses; _ } =
  let total = hits + misses in
  if total = 0 then 0. else float_of_int hits /. float_of_int total

(* Pointwise sum, for merging the per-domain shard tables' counters. Note
   that summed [nodes] counts canonical copies per shard, not distinct
   structures: two domains that each interned [i32] contribute two nodes. *)
let add_stats a b =
  { nodes = a.nodes + b.nodes; hits = a.hits + b.hits;
    misses = a.misses + b.misses }

let pp_stats ppf s =
  Fmt.pf ppf "%d nodes, %d hits / %d misses (%.1f%% hit rate)" s.nodes s.hits
    s.misses
    (100. *. hit_rate s)

(** The identity of the interned domain. [equal]/[hash] must agree on the
    nodes a caller inserts ([equal a b] implies [hash a = hash b]); a probe
    whose hash disagrees just misses. Both must be O(1) in the depth of a
    node — {!Attr} compares children by pointer and reads their stored
    hashes — so that no operation here walks a subtree. *)
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
  (** One probe: the node in the table equal to [x], with its id. Counts a
      hit when found; a miss is counted by {!add}. *)

  val add : table -> node -> node * int
  (** Insert [x] as canonical under a fresh id and count a miss. [x] must
      not be equal to any node already in the table. Ids are dense,
      starting at 0, and never reused within a table. *)

  val stats : table -> stats
end

module Make (H : HASHED) : S with type node = H.t = struct
  type node = H.t

  module Tbl = Hashtbl.Make (H)

  type table = {
    tbl : (node * int) Tbl.t;  (** canonical node ↦ itself and its id *)
    mutable hits : int;
    mutable misses : int;
  }

  let create ?(size = 1024) () = { tbl = Tbl.create size; hits = 0; misses = 0 }

  let find t x =
    match Tbl.find_opt t.tbl x with
    | Some _ as r ->
        t.hits <- t.hits + 1;
        r
    | None -> None

  let add t x =
    let r = (x, Tbl.length t.tbl) in
    t.misses <- t.misses + 1;
    Tbl.add t.tbl x r;
    r

  let stats t = { nodes = Tbl.length t.tbl; hits = t.hits; misses = t.misses }end
