(** Textual IR output.

    Prints the MLIR-like generic form for every operation:

    {v
    %0 = "cmath.norm"(%p) : (!cmath.complex<f32>) -> f32
    v}

    and, when the operation's definition carries a compiled declarative
    format (paper §4.7), the custom pretty form:

    {v
    %0 = cmath.norm %p : f32
    v}

    Printing never fails: if a custom format cannot be applied to a
    (possibly invalid) operation, the printer falls back to the generic
    form for that operation. *)

type t = {
  ctx : Context.t;
  value_names : (int, string) Hashtbl.t;
  block_names : (int, string) Hashtbl.t;
  mutable next_value : int;
  mutable next_block : int;
  generic : bool;  (** Force generic form even when a format is registered. *)
}

let create ?(generic = false) ctx =
  {
    ctx;
    value_names = Hashtbl.create 64;
    block_names = Hashtbl.create 16;
    next_value = 0;
    next_block = 0;
    generic;
  }

let value_name t (v : Graph.value) =
  match Hashtbl.find_opt t.value_names v.v_id with
  | Some n -> n
  | None ->
      let n = Printf.sprintf "%%%d" t.next_value in
      t.next_value <- t.next_value + 1;
      Hashtbl.add t.value_names v.v_id n;
      n

let block_name t (b : Graph.block) =
  match Hashtbl.find_opt t.block_names b.blk_id with
  | Some n -> n
  | None ->
      let n = Printf.sprintf "^bb%d" t.next_block in
      t.next_block <- t.next_block + 1;
      Hashtbl.add t.block_names b.blk_id n;
      n

exception Fallback
(* Raised when a custom format cannot be applied; caught to emit generic
   form instead. *)

let project_ty (op : Graph.op) (proj : Opfmt.ty_proj) : Attr.ty =
  let base =
    match proj.source with
    | `Operand i ->
        if i < Graph.Op.num_operands op then
          Graph.Value.ty (Graph.Op.operand op i)
        else raise Fallback
    | `Result i ->
        if i < Graph.Op.num_results op then
          Graph.Value.ty (Graph.Op.result op i)
        else raise Fallback
  in
  List.fold_left
    (fun ty idx ->
      match (ty : Attr.ty) with
      | Attr.Dynamic { params; _ } -> (
          match List.nth_opt params idx with
          | Some (Attr.Type ty') -> ty'
          | _ -> raise Fallback)
      | _ -> raise Fallback)
    base proj.path

(* Indentation is capped so that pathologically deep region nesting (the
   50k-level regression test) produces O(n) output instead of O(n²). *)
let max_indent = 64
let indent_string n = String.make (min n max_indent) ' '

let pp_custom t ppf (op : Graph.op) (f : Opfmt.t) =
  (* The custom form prints only the attributes its format names; any
     other would be silently dropped. *)
  if
    List.exists
      (fun (k, _) -> not (List.mem (Opfmt.Attr_ref k) f.items))
      op.attrs
  then raise Fallback;
  Fmt.pf ppf "%s" op.op_name;
  List.iter
    (fun (item : Opfmt.item) ->
      match item with
      | Opfmt.Lit s ->
          (* Punctuation hugs the previous token; words get a space. *)
          if s = "," || s = ">" || s = ")" then Fmt.string ppf s
          else Fmt.pf ppf " %s" s
      | Opfmt.Operand_ref i ->
          if i < Graph.Op.num_operands op then
            Fmt.pf ppf " %s" (value_name t (Graph.Op.operand op i))
          else raise Fallback
      | Opfmt.Operand_group start ->
          let rec drop n l =
            if n = 0 then l
            else match l with [] -> [] | _ :: tl -> drop (n - 1) tl
          in
          let group = drop start (Graph.Op.operands op) in
          Fmt.pf ppf " %s"
            (String.concat ", " (List.map (value_name t) group))
      | Opfmt.Attr_ref name -> (
          match Graph.Op.attr op name with
          | Some a -> Fmt.pf ppf " %a" Attr.pp a
          | None -> raise Fallback)
      | Opfmt.Ty_directive { proj; _ } ->
          Fmt.pf ppf " %a" Attr.pp_ty (project_ty op proj))
    f.items

(* The printer drives an explicit job stack instead of recursing through
   regions, so nesting depth is bounded only by memory. Value and block
   names are assigned strictly at emission time, which keeps the numbering
   (and thus the output) identical to the former recursive printer. *)
type job =
  | J_text of string
  | J_op of int * Graph.op  (** print one op at the given indent level *)
  | J_region of int * Graph.region
  | J_block_label of int * bool * Graph.block

let pp_op ?(level = 0) t ppf (op : Graph.op) =
  let stack = ref [ J_op (level, op) ] in
  let push_in_order jobs = List.iter (fun j -> stack := j :: !stack) (List.rev jobs) in
  let emit_generic level (op : Graph.op) =
    Fmt.pf ppf "%S(%s)" op.op_name
      (String.concat ", " (List.map (value_name t) (Graph.Op.operands op)));
    (match op.successors with
    | [] -> ()
    | succs ->
        Fmt.pf ppf "[%s]"
          (String.concat ", " (List.map (block_name t) succs)));
    (* Everything after the regions contains no value names, so it can be
       rendered now and deferred as plain text. *)
    let tail =
      let attrs_part =
        match op.attrs with
        | [] -> ""
        | attrs ->
            Fmt.str " {%s}"
              (String.concat ", "
                 (List.map
                    (fun (k, v) -> Fmt.str "%s = %a" k Attr.pp v)
                    attrs))
      in
      attrs_part
      ^ Fmt.str " : (%s) -> (%s)"
          (String.concat ", "
             (List.map Attr.ty_to_string (Graph.Op.operand_tys op)))
          (String.concat ", "
             (List.map Attr.ty_to_string (Graph.Op.result_tys op)))
    in
    match op.regions with
    | [] -> Fmt.string ppf tail
    | regions ->
        Fmt.string ppf " (";
        let jobs = ref [] in
        List.iteri
          (fun i r ->
            if i > 0 then jobs := J_text ", " :: !jobs;
            jobs := J_region (level, r) :: !jobs)
          regions;
        jobs := J_text (")" ^ tail) :: !jobs;
        push_in_order (List.rev !jobs)
  in
  let emit_op level (op : Graph.op) =
    (* Results are named before the body so that custom formats see them. *)
    let result_names = List.map (value_name t) (Graph.Op.results op) in
    (match result_names with
    | [] -> ()
    | names -> Fmt.pf ppf "%s = " (String.concat ", " names));
    let custom_format =
      if t.generic then None
      else
        match Context.lookup_op t.ctx op.op_name with
        | Some { od_format = Some f; _ } -> Some f
        | _ -> None
    in
    match custom_format with
    | Some f -> (
        (* Render to a buffer first: on Fallback, nothing partial is
           emitted. Custom formats never nest regions, so this stays flat. *)
        let buf = Buffer.create 64 in
        let bppf = Format.formatter_of_buffer buf in
        try
          pp_custom t bppf op f;
          Format.pp_print_flush bppf ();
          Fmt.string ppf (Buffer.contents buf)
        with Fallback -> emit_generic level op)
    | None -> emit_generic level op
  in
  let emit_region level (r : Graph.region) =
    let inner = level + 2 in
    Fmt.string ppf "{";
    let nblocks = Graph.Region.num_blocks r in
    let jobs = ref [] in
    let i = ref 0 in
    Graph.Region.iter_blocks r ~f:(fun b ->
        (* The entry block's label is implicit when it has no arguments and
           is the only block, matching MLIR's convention. *)
        let needs_label =
          !i > 0 || Graph.Block.num_args b > 0 || nblocks > 1
        in
        incr i;
        jobs := J_block_label (level, needs_label, b) :: !jobs;
        Graph.Block.iter_ops b ~f:(fun o ->
            jobs :=
              J_op (inner, o) :: J_text ("\n" ^ indent_string inner) :: !jobs));
    jobs := J_text ("\n" ^ indent_string level ^ "}") :: !jobs;
    push_in_order (List.rev !jobs)
  in
  let emit_block_label level needs_label (b : Graph.block) =
    if needs_label then begin
      Fmt.pf ppf "\n%s%s" (indent_string level) (block_name t b);
      (match Graph.Block.args b with
      | [] -> ()
      | args ->
          Fmt.pf ppf "(%s)"
            (String.concat ", "
               (List.map
                  (fun v ->
                    Fmt.str "%s: %a" (value_name t v) Attr.pp_ty
                      (Graph.Value.ty v))
                  args)));
      Fmt.string ppf ":"
    end
  in
  let rec run () =
    match !stack with
    | [] -> ()
    | job :: rest ->
        stack := rest;
        (match job with
        | J_text s -> Fmt.string ppf s
        | J_op (lvl, o) -> emit_op lvl o
        | J_region (lvl, r) -> emit_region lvl r
        | J_block_label (lvl, needs, b) -> emit_block_label lvl needs b);
        run ()
  in
  run ()

let op_to_string ?generic ctx op =
  let t = create ?generic ctx in
  Fmt.str "%a" (pp_op t) op

(** Print a list of top-level operations, one per line. *)
let ops_to_string ?generic ctx ops =
  let t = create ?generic ctx in
  String.concat "\n" (List.map (fun o -> Fmt.str "%a" (pp_op t) o) ops)
