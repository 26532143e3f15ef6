(** Types and attributes of the IR.

    Following xDSL (and unlike MLIR's C++ split), types and attributes live in
    one recursive value domain: a type can appear as an attribute ({!Type})
    and dynamic (IRDL-defined) types carry attribute parameters. This makes
    IRDL parameter constraints uniform: they all constrain attributes.

    Builtin types mirror the MLIR builtins that the paper's corpus depends
    on: signless/signed/unsigned integers, the standard float kinds, [index],
    and function/tuple aggregates. Everything else is a {!Dynamic} type or
    {!Dyn_attr} attribute introduced at runtime by dialect registration.

    {b Uniquing.} Like MLIR's [MLIRContext], every node built through the
    constructors below is hash-consed into a uniquer ({!Intern}) — one
    shard per domain, so parallel workers never share a table: within a
    domain structurally equal attributes are physically equal, and
    {!equal}/{!equal_ty} decide interned operands with a pointer comparison.
    Composite nodes carry their structural hash, computed once at
    construction from their own fields and their children's stored hashes,
    and the uniquer compares children by pointer, so interning a node costs
    O(its own width) however deep it is. The variant constructors remain
    exposed for pattern matching; a value assembled from them directly must
    go through {!intern}/{!intern_ty}, which recomputes its hash. *)

open Irdl_support

type signedness = Signless | Signed | Unsigned

type float_kind = BF16 | F16 | F32 | F64

type ty =
  | Integer of { width : int; signedness : signedness }
  | Float of float_kind
  | Index
  | None_ty
  | Function of { inputs : ty list; outputs : ty list; hash : int }
  | Tuple of { elems : ty list; hash : int }
  | Dynamic of { dialect : string; name : string; params : t list; hash : int }

and t =
  | Unit
  | Bool of bool
  | Int of { value : int64; ty : ty }
  | Float_attr of { value : float; ty : ty }
  | String of string
  | Array of { elems : t list; hash : int }
  | Dict of { entries : (string * t) list; hash : int }
  | Type of ty
  | Enum of { dialect : string; enum : string; case : string }
  | Symbol of string
  | Location of { file : string; line : int; col : int }
  | Type_id of string
  | Opaque of { tag : string; repr : string }
      (** Escape hatch for IRDL-C++ [TypeOrAttrParam] parameters: [tag] names
          the registered native parameter kind, [repr] its printed form. *)
  | Dyn_attr of { dialect : string; name : string; params : t list; hash : int }
      (** An attribute defined at runtime by an IRDL [Attribute] definition. *)

(* ------------------------------------------------------------------ *)
(* Structural equality                                                 *)
(* ------------------------------------------------------------------ *)

(* The structural walks below carry a physical fast path at every level:
   once sub-terms are interned, comparing two attributes only descends until
   it meets canonical nodes, so equality of interned values never walks.
   Stored hashes are not compared: a hand-assembled node may carry any. *)

let rec structural_equal_ty (a : ty) (b : ty) =
  a == b
  ||
  match (a, b) with
  | Integer a, Integer b -> a.width = b.width && a.signedness = b.signedness
  | Float a, Float b -> a = b
  | Index, Index | None_ty, None_ty -> true
  | Function a, Function b ->
      List.equal structural_equal_ty a.inputs b.inputs
      && List.equal structural_equal_ty a.outputs b.outputs
  | Tuple a, Tuple b -> List.equal structural_equal_ty a.elems b.elems
  | Dynamic a, Dynamic b ->
      a.dialect = b.dialect && a.name = b.name
      && List.equal structural_equal a.params b.params
  | ( ( Integer _ | Float _ | Index | None_ty | Function _ | Tuple _
      | Dynamic _ ),
      _ ) ->
      false

and structural_equal (a : t) (b : t) =
  a == b
  ||
  match (a, b) with
  | Unit, Unit -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> Int64.equal a.value b.value && structural_equal_ty a.ty b.ty
  | Float_attr a, Float_attr b ->
      (* Bitwise comparison so that attribute equality is reflexive even for
         NaN payloads appearing in folded constants. *)
      Int64.equal (Int64.bits_of_float a.value) (Int64.bits_of_float b.value)
      && structural_equal_ty a.ty b.ty
  | String a, String b -> String.equal a b
  | Array a, Array b -> List.equal structural_equal a.elems b.elems
  | Dict a, Dict b ->
      (* Dictionaries are canonicalized to sorted key order at construction
         time, so the ordered comparison is key-order-insensitive for any
         value built through {!dict} or {!intern}. *)
      List.equal
        (fun (ka, va) (kb, vb) -> String.equal ka kb && structural_equal va vb)
        a.entries b.entries
  | Type a, Type b -> structural_equal_ty a b
  | Enum a, Enum b ->
      a.dialect = b.dialect && a.enum = b.enum && a.case = b.case
  | Symbol a, Symbol b -> String.equal a b
  | Location a, Location b ->
      String.equal a.file b.file && a.line = b.line && a.col = b.col
  | Type_id a, Type_id b -> String.equal a b
  | Opaque a, Opaque b -> a.tag = b.tag && a.repr = b.repr
  | Dyn_attr a, Dyn_attr b ->
      a.dialect = b.dialect && a.name = b.name
      && List.equal structural_equal a.params b.params
  | ( ( Unit | Bool _ | Int _ | Float_attr _ | String _ | Array _ | Dict _
      | Type _ | Enum _ | Symbol _ | Location _ | Type_id _ | Opaque _
      | Dyn_attr _ ),
      _ ) ->
      false

(** Interned operands decide on the pointer; the structural walk remains as
    a correct fallback for values that bypassed the uniquer. *)
let equal_ty a b = a == b || structural_equal_ty a b

let equal a b = a == b || structural_equal a b

(* ------------------------------------------------------------------ *)
(* Hashing (O(1) per child)                                            *)
(* ------------------------------------------------------------------ *)

(* Multiply–xorshift mixing: every bit of the result depends on every bit of
   both inputs, so the low bits that pick a table bucket stay spread even
   along a long chain of same-shaped nodes. *)
let combine h k =
  let h = (h lxor k) * 0x2545f4914f6cdd1d in
  h lxor (h lsr 29)

let hash_string h s = combine h (Hashtbl.hash (s : string))
let hash_int64 h (v : int64) = combine (combine h (Int64.to_int v)) 17

let hash_signedness = function Signless -> 1 | Signed -> 2 | Unsigned -> 3
let hash_float_kind = function BF16 -> 1 | F16 -> 2 | F32 -> 3 | F64 -> 4

(* A node's hash from its own fields and its children's hashes. Composite
   nodes return the hash they stored at construction, so this never walks:
   a child costs O(1) however deep it is. *)
let ty_hash (ty : ty) =
  match ty with
  | Integer { width; signedness } ->
      combine (combine 3 width) (hash_signedness signedness)
  | Float k -> combine 5 (hash_float_kind k)
  | Index -> 7
  | None_ty -> 11
  | Function { hash; _ } | Tuple { hash; _ } | Dynamic { hash; _ } -> hash

let attr_hash (a : t) =
  match a with
  | Unit -> 23
  | Bool b -> combine 29 (Bool.to_int b)
  | Int { value; ty } -> combine (hash_int64 31 value) (ty_hash ty)
  | Float_attr { value; ty } ->
      (* Hash the bits to match the bitwise equality (NaN-safe). *)
      combine (hash_int64 37 (Int64.bits_of_float value)) (ty_hash ty)
  | String s -> hash_string 41 s
  | Type ty -> combine 53 (ty_hash ty)
  | Enum { dialect; enum; case } ->
      hash_string (hash_string (hash_string 59 dialect) enum) case
  | Symbol s -> hash_string 61 s
  | Location { file; line; col } ->
      combine (combine (hash_string 67 file) line) col
  | Type_id s -> hash_string 71 s
  | Opaque { tag; repr } -> hash_string (hash_string 73 tag) repr
  | Array { hash; _ } | Dict { hash; _ } | Dyn_attr { hash; _ } -> hash

(* The hashes composite nodes store, from their canonical children. *)
let hash_list f seed xs = List.fold_left (fun h x -> combine h (f x)) seed xs

let function_hash inputs outputs =
  hash_list ty_hash (combine (hash_list ty_hash 13 inputs) 0) outputs

let tuple_hash elems = hash_list ty_hash 17 elems

let dynamic_hash dialect name params =
  hash_list attr_hash (hash_string (hash_string 19 dialect) name) params

let array_hash elems = hash_list attr_hash 43 elems

let dict_hash entries =
  List.fold_left (fun h (k, v) -> combine (hash_string h k) (attr_hash v)) 47
    entries

let dyn_attr_hash dialect name params =
  hash_list attr_hash (hash_string (hash_string 79 dialect) name) params

(* ------------------------------------------------------------------ *)
(* The uniquer                                                         *)
(* ------------------------------------------------------------------ *)

(* The uniquer's key equality: a node's own fields by value, its children
   by pointer. This is exact because the table only holds nodes whose
   children are canonical in the same shard: a probe whose children are
   those very nodes has the same structure, and a probe with a child that
   is not canonical finds nothing and gets rebuilt (see [resolve_ty]). *)
let same xs ys = List.equal ( == ) xs ys

let key_equal_ty (a : ty) (b : ty) =
  a == b
  ||
  match (a, b) with
  | Function a, Function b -> same a.inputs b.inputs && same a.outputs b.outputs
  | Tuple a, Tuple b -> same a.elems b.elems
  | Dynamic a, Dynamic b ->
      String.equal a.dialect b.dialect
      && String.equal a.name b.name && same a.params b.params
  | (Function _ | Tuple _ | Dynamic _), _ -> false
  | (Integer _ | Float _ | Index | None_ty), _ -> structural_equal_ty a b

let key_equal (a : t) (b : t) =
  a == b
  ||
  match (a, b) with
  | Int a, Int b -> Int64.equal a.value b.value && a.ty == b.ty
  | Float_attr a, Float_attr b ->
      Int64.equal (Int64.bits_of_float a.value) (Int64.bits_of_float b.value)
      && a.ty == b.ty
  | Array a, Array b -> same a.elems b.elems
  | Dict a, Dict b ->
      List.equal
        (fun (ka, va) (kb, vb) -> String.equal ka kb && va == vb)
        a.entries b.entries
  | Type a, Type b -> a == b
  | Dyn_attr a, Dyn_attr b ->
      String.equal a.dialect b.dialect
      && String.equal a.name b.name && same a.params b.params
  | (Int _ | Float_attr _ | Array _ | Dict _ | Type _ | Dyn_attr _), _ -> false
  | ( ( Unit | Bool _ | String _ | Enum _ | Symbol _ | Location _ | Type_id _
      | Opaque _ ),
      _ ) ->
      structural_equal a b

module Ty_uniquer = Intern.Make (struct
  type t = ty

  let equal = key_equal_ty
  let hash = ty_hash
end)

module Attr_uniquer = Intern.Make (struct
  type nonrec t = t

  let equal = key_equal
  let hash = attr_hash
end)

(* One uniquer pair per domain, owned conceptually by {!Context} (which
   reports its statistics): attribute construction must work before any
   context exists — dialect corpus helpers, constant pools — exactly as
   MLIR's builtin attribute storage outlives dialect registration.

   The pair is domain-local (Domain.DLS) rather than process-wide so that
   parallel verification workers never contend on — or race inside — the
   hash tables: each domain uniques into its own shard, physical equality
   and dense ids hold within a domain (which is where [==] fast paths and
   id-keyed caches are consulted), and cross-domain comparisons fall back
   to the structural walk that every equality in this module keeps anyway.
   A registry of all shards backs the merged statistics. *)
type uniquer_shard = {
  sh_tys : Ty_uniquer.table;
  sh_attrs : Attr_uniquer.table;
}

let shard_registry : uniquer_shard list ref = ref []
let shard_registry_lock = Mutex.create ()

let uniquer_key : uniquer_shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let sh =
        { sh_tys = Ty_uniquer.create (); sh_attrs = Attr_uniquer.create () }
      in
      Mutex.lock shard_registry_lock;
      shard_registry := sh :: !shard_registry;
      Mutex.unlock shard_registry_lock;
      sh)

let shard () = Domain.DLS.get uniquer_key

(** Canonicalize a dictionary's entries: sorted by key so equality and
    hashing are key-order-insensitive, with duplicate keys rejected.
    Entries already in strictly increasing key order come back
    physically unchanged. *)
let canonicalize_dict kvs =
  let rec strictly_sorted = function
    | (k1, _) :: ((k2, _) :: _ as rest) ->
        String.compare k1 k2 < 0 && strictly_sorted rest
    | _ -> true
  in
  if strictly_sorted kvs then kvs
  else
    let sorted =
      List.stable_sort (fun (a, _) (b, _) -> String.compare a b) kvs
    in
    let rec check = function
      | (k1, _) :: ((k2, _) :: _ as rest) ->
          if String.equal k1 k2 then
            Diag.raise_error "duplicate key '%s' in dictionary attribute" k1;
          check rest
      | _ -> ()
    in
    check sorted;
    sorted

(* [List.map f xs], but [xs] itself when [f] returns every element
   unchanged: re-checking a node whose children are canonical allocates
   nothing. *)
let rec map_shared f xs =
  match xs with
  | [] -> xs
  | x :: rest ->
      let x' = f x in
      let rest' = map_shared f rest in
      if x' == x && rest' == rest then xs else x' :: rest'

(* The canonical node equal to [ty] and its id, counting exactly one hit or
   miss. One probe answers a node whose children are canonical and whose
   stored hash is right — everything the smart constructors build. On a
   miss its children are resolved in turn (one probe each when they are
   canonical); if none changes and the hash checks out, the node itself is
   inserted. Anything else (a hand-assembled value, or a node canonical in
   another domain's shard) is rebuilt from its resolved children and probed
   once more. *)
let rec resolve_ty sh (ty : ty) : ty * int =
  match Ty_uniquer.find sh.sh_tys ty with
  | Some r -> r
  | None -> (
      let ty' = rebuild_ty sh ty in
      if ty' == ty then Ty_uniquer.add sh.sh_tys ty
      else
        match Ty_uniquer.find sh.sh_tys ty' with
        | Some r -> r
        | None -> Ty_uniquer.add sh.sh_tys ty')

and rebuild_ty sh (ty : ty) : ty =
  match ty with
  | Integer _ | Float _ | Index | None_ty -> ty
  | Function { inputs; outputs; hash } ->
      let inputs' = map_shared (canonical_ty sh) inputs in
      let outputs' = map_shared (canonical_ty sh) outputs in
      let hash' = function_hash inputs' outputs' in
      if inputs' == inputs && outputs' == outputs && hash' = hash then ty
      else Function { inputs = inputs'; outputs = outputs'; hash = hash' }
  | Tuple { elems; hash } ->
      let elems' = map_shared (canonical_ty sh) elems in
      let hash' = tuple_hash elems' in
      if elems' == elems && hash' = hash then ty
      else Tuple { elems = elems'; hash = hash' }
  | Dynamic { dialect; name; params; hash } ->
      let params' = map_shared (canonical sh) params in
      let hash' = dynamic_hash dialect name params' in
      if params' == params && hash' = hash then ty
      else Dynamic { dialect; name; params = params'; hash = hash' }

and resolve sh (a : t) : t * int =
  match Attr_uniquer.find sh.sh_attrs a with
  | Some r -> r
  | None -> (
      let a' = rebuild sh a in
      if a' == a then Attr_uniquer.add sh.sh_attrs a
      else
        match Attr_uniquer.find sh.sh_attrs a' with
        | Some r -> r
        | None -> Attr_uniquer.add sh.sh_attrs a')

and rebuild sh (a : t) : t =
  match a with
  | Unit | Bool _ | String _ | Enum _ | Symbol _ | Location _ | Type_id _
  | Opaque _ ->
      a
  | Int { value; ty } ->
      let ty' = canonical_ty sh ty in
      if ty' == ty then a else Int { value; ty = ty' }
  | Float_attr { value; ty } ->
      let ty' = canonical_ty sh ty in
      if ty' == ty then a else Float_attr { value; ty = ty' }
  | Type ty ->
      let ty' = canonical_ty sh ty in
      if ty' == ty then a else Type ty'
  | Array { elems; hash } ->
      let elems' = map_shared (canonical sh) elems in
      let hash' = array_hash elems' in
      if elems' == elems && hash' = hash then a
      else Array { elems = elems'; hash = hash' }
  | Dict { entries; hash } ->
      let entries' =
        canonicalize_dict
          (map_shared
             (fun ((k, v) as kv) ->
               let v' = canonical sh v in
               if v' == v then kv else (k, v'))
             entries)
      in
      let hash' = dict_hash entries' in
      if entries' == entries && hash' = hash then a
      else Dict { entries = entries'; hash = hash' }
  | Dyn_attr { dialect; name; params; hash } ->
      let params' = map_shared (canonical sh) params in
      let hash' = dyn_attr_hash dialect name params' in
      if params' == params && hash' = hash then a
      else Dyn_attr { dialect; name; params = params'; hash = hash' }

and canonical_ty sh ty = fst (resolve_ty sh ty)
and canonical sh a = fst (resolve sh a)

(** Deeply intern an attribute/type, whether built by the constructors
    below (one probe) or assembled elsewhere (tests, deserializers). *)
let intern_ty ty = canonical_ty (shard ()) ty

let intern a = canonical (shard ()) a
let id a = snd (resolve (shard ()) a)
let id_ty ty = snd (resolve_ty (shard ()) ty)
let hash a = attr_hash (intern a)
let hash_ty ty = ty_hash (intern_ty ty)

(** The calling domain's shard counters. Single-domain programs see exactly
    the historical process-wide numbers (there is only one shard). *)
let uniquer_stats () =
  let sh = shard () in
  (Ty_uniquer.stats sh.sh_tys, Attr_uniquer.stats sh.sh_attrs)

(** Counters summed over every domain's shard. [nodes] counts canonical
    copies per shard, not globally distinct structures. *)
let uniquer_stats_merged () =
  Mutex.lock shard_registry_lock;
  let shards = !shard_registry in
  Mutex.unlock shard_registry_lock;
  List.fold_left
    (fun (tys, attrs) sh ->
      ( Intern.add_stats tys (Ty_uniquer.stats sh.sh_tys),
        Intern.add_stats attrs (Attr_uniquer.stats sh.sh_attrs) ))
    ( { Intern.nodes = 0; hits = 0; misses = 0 },
      { Intern.nodes = 0; hits = 0; misses = 0 } )
    shards

(* ------------------------------------------------------------------ *)
(* Smart constructors (every node they build is interned)              *)
(* ------------------------------------------------------------------ *)

(* Convenience type constructors. *)

let i1 = intern_ty (Integer { width = 1; signedness = Signless })
let i8 = intern_ty (Integer { width = 8; signedness = Signless })
let i16 = intern_ty (Integer { width = 16; signedness = Signless })
let i32 = intern_ty (Integer { width = 32; signedness = Signless })
let i64 = intern_ty (Integer { width = 64; signedness = Signless })
let f16 = intern_ty (Float F16)
let f32 = intern_ty (Float F32)
let f64 = intern_ty (Float F64)
let bf16 = intern_ty (Float BF16)
let index = intern_ty Index
let none = intern_ty None_ty

let integer ?(signedness = Signless) width =
  if width <= 0 then invalid_arg "Attr.integer: width must be positive";
  intern_ty (Integer { width; signedness })

let dynamic ~dialect ~name params =
  intern_ty
    (Dynamic { dialect; name; params; hash = dynamic_hash dialect name params })

let function_ty ~inputs ~outputs =
  intern_ty (Function { inputs; outputs; hash = function_hash inputs outputs })

let tuple elems = intern_ty (Tuple { elems; hash = tuple_hash elems })

(* Convenience attribute constructors. *)

let unit = intern Unit
let bool b = intern (Bool b)
let int ?(ty = i64) value = intern (Int { value; ty })
let int_of ~ty value = intern (Int { value = Int64.of_int value; ty })
let float ?(ty = f64) value = intern (Float_attr { value; ty })
let string s = intern (String s)
let array elems = intern (Array { elems; hash = array_hash elems })

let dict kvs =
  let entries = canonicalize_dict kvs in
  intern (Dict { entries; hash = dict_hash entries })

let typ ty = intern (Type ty)
let enum ~dialect ~enum:e case = intern (Enum { dialect; enum = e; case })
let symbol s = intern (Symbol s)
let location ~file ~line ~col = intern (Location { file; line; col })
let type_id s = intern (Type_id s)
let opaque ~tag repr = intern (Opaque { tag; repr })

let dyn_attr ~dialect ~name params =
  intern
    (Dyn_attr { dialect; name; params; hash = dyn_attr_hash dialect name params })


let pp_signedness ppf = function
  | Signless -> Fmt.string ppf "i"
  | Signed -> Fmt.string ppf "si"
  | Unsigned -> Fmt.string ppf "ui"

let pp_float_kind ppf k =
  Fmt.string ppf
    (match k with BF16 -> "bf16" | F16 -> "f16" | F32 -> "f32" | F64 -> "f64")

let rec pp_ty ppf (ty : ty) =
  match ty with
  | Integer { width; signedness } ->
      Fmt.pf ppf "%a%d" pp_signedness signedness width
  | Float k -> pp_float_kind ppf k
  | Index -> Fmt.string ppf "index"
  | None_ty -> Fmt.string ppf "none"
  | Function { inputs; outputs; _ } ->
      Fmt.pf ppf "(%a) -> (%a)"
        Fmt.(list ~sep:(any ", ") pp_ty)
        inputs
        Fmt.(list ~sep:(any ", ") pp_ty)
        outputs
  | Tuple { elems; _ } ->
      Fmt.pf ppf "tuple<%a>" Fmt.(list ~sep:(any ", ") pp_ty) elems
  | Dynamic { dialect; name; params = []; _ } -> Fmt.pf ppf "!%s.%s" dialect name
  | Dynamic { dialect; name; params; _ } ->
      Fmt.pf ppf "!%s.%s<%a>" dialect name Fmt.(list ~sep:(any ", ") pp) params

and pp ppf (a : t) =
  match a with
  | Unit -> Fmt.string ppf "unit"
  | Bool b -> Fmt.bool ppf b
  | Int { value; ty } -> Fmt.pf ppf "%Ld : %a" value pp_ty ty
  | Float_attr { value; ty } ->
      (* Shortest decimal form that round-trips; the parser requires a '.'
         or exponent to lex a float, which %.1f / %g guarantee here. *)
      let repr =
        if Float.is_integer value && Float.abs value < 1e15 then
          Printf.sprintf "%.1f" value
        else
          let s = Printf.sprintf "%.15g" value in
          if float_of_string s = value then s
          else Printf.sprintf "%.17g" value
      in
      Fmt.pf ppf "%s : %a" repr pp_ty ty
  | String s -> Fmt.pf ppf "%S" s
  | Array { elems; _ } -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ", ") pp) elems
  | Dict { entries; _ } ->
      Fmt.pf ppf "{%a}"
        Fmt.(list ~sep:(any ", ") (fun ppf (k, v) -> pf ppf "%s = %a" k pp v))
        entries
  | Type ty -> pp_ty ppf ty
  | Enum { dialect; enum; case } -> Fmt.pf ppf "#%s<%s.%s>" dialect enum case
  | Symbol s -> Fmt.pf ppf "@%s" s
  | Location { file; line; col } -> Fmt.pf ppf "loc(%S:%d:%d)" file line col
  | Type_id id -> Fmt.pf ppf "#typeid<%s>" id
  | Opaque { tag; repr } -> Fmt.pf ppf "#native<%s, %S>" tag repr
  | Dyn_attr { dialect; name; params = []; _ } -> Fmt.pf ppf "#%s.%s" dialect name
  | Dyn_attr { dialect; name; params; _ } ->
      Fmt.pf ppf "#%s.%s<%a>" dialect name Fmt.(list ~sep:(any ", ") pp) params

let ty_to_string ty = Fmt.str "%a" pp_ty ty
let to_string a = Fmt.str "%a" pp a

(** The [i1] constant [true]/[false] used by conditional branches. *)
let bool_int b = int ~ty:i1 (if b then 1L else 0L)

let is_float_ty = function Float _ -> true | _ -> false
let is_integer_ty = function Integer _ -> true | _ -> false

(** Dictionary lookup helper used throughout verifier generation. *)
let dict_find key = function
  | Dict { entries; _ } -> List.assoc_opt key entries
  | _ -> None
