(** Parser for the textual IR syntax produced by {!Printer}.

    Accepts both the generic form ["cmath.mul"(%a, %b) : (t, t) -> t] and,
    for operations registered with a declarative format, the custom pretty
    form [cmath.mul %a, %b : f32]. Forward references to values and blocks
    are allowed within a region (SSA dominance is not a parsing concern). *)

open Irdl_support

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | Value_id of string  (** [%x] *)
  | Block_id of string  (** [^bb0] *)
  | Symbol_id of string  (** [@sym] *)
  | Bang_id of string  (** [!cmath.complex] (dotted) *)
  | Hash_id of string  (** [#cmath.attr] (dotted) *)
  | Ident of string  (** bare, possibly dotted: [cmath.mul], [f32] *)
  | Str of string
  | Int_lit of int64
  | Float_lit of float
  | Punct of string  (** one of ( ) { } [ ] < > , : = - and "->" *)
  | Eof

type lexed = { tok : token; tloc : Loc.t }

let keyword_chars c = Sbuf.is_ident_char c || c = '.'

let lex_string buf loc_start =
  let b = Buffer.create 16 in
  let rec go () =
    match Sbuf.next buf with
    | None -> Diag.raise_error ~loc:(Loc.point loc_start) "unterminated string"
    | Some '"' -> Buffer.contents b
    | Some '\\' -> (
        match Sbuf.next buf with
        | Some 'n' -> Buffer.add_char b '\n'; go ()
        | Some 't' -> Buffer.add_char b '\t'; go ()
        | Some '\\' -> Buffer.add_char b '\\'; go ()
        | Some '"' -> Buffer.add_char b '"'; go ()
        | Some c -> Buffer.add_char b c; go ()
        | None ->
            Diag.raise_error ~loc:(Loc.point loc_start) "unterminated string")
    | Some c ->
        Buffer.add_char b c;
        go ()
  in
  go ()

let rec skip_trivia buf =
  Sbuf.skip_while buf Sbuf.is_space;
  (* Line comments: // ... \n *)
  match (Sbuf.peek buf, Sbuf.peek2 buf) with
  | Some '/', Some '/' ->
      Sbuf.skip_while buf (fun c -> c <> '\n');
      skip_trivia buf
  | _ -> ()

let is_number_start buf =
  match Sbuf.peek buf with
  | Some c when Sbuf.is_digit c -> true
  | Some '-' -> (
      match Sbuf.peek2 buf with Some c -> Sbuf.is_digit c | None -> false)
  | _ -> false

let lex_number buf =
  let start = Sbuf.pos buf in
  ignore (Sbuf.accept buf '-');
  (* Hex floats (0x1.9p+1) and hex ints (0xff). *)
  let is_hex =
    Sbuf.peek buf = Some '0'
    && (Sbuf.peek2 buf = Some 'x' || Sbuf.peek2 buf = Some 'X')
  in
  if is_hex then (
    Sbuf.advance buf;
    Sbuf.advance buf;
    Sbuf.skip_while buf (fun c ->
        Sbuf.is_digit c
        || (c >= 'a' && c <= 'f')
        || (c >= 'A' && c <= 'F')
        || c = '.' || c = 'p' || c = 'P' || c = '+' || c = '-'))
  else (
    Sbuf.skip_while buf Sbuf.is_digit;
    if Sbuf.peek buf = Some '.'
       && (match Sbuf.peek2 buf with Some c -> Sbuf.is_digit c | None -> false)
    then (
      Sbuf.advance buf;
      Sbuf.skip_while buf Sbuf.is_digit);
    if Sbuf.peek buf = Some 'e' || Sbuf.peek buf = Some 'E' then (
      Sbuf.advance buf;
      ignore (Sbuf.accept buf '+' || Sbuf.accept buf '-');
      Sbuf.skip_while buf Sbuf.is_digit));
  let text = Sbuf.slice buf start (Sbuf.pos buf) in
  let float_lit () =
    match float_of_string_opt text with
    | Some f -> Float_lit f
    | None ->
        Diag.raise_error
          ~loc:(Loc.span start (Sbuf.pos buf))
          "malformed numeric literal '%s'" text
  in
  if
    String.contains text '.'
    || (not is_hex) && (String.contains text 'e' || String.contains text 'E')
    || (is_hex && (String.contains text 'p' || String.contains text 'P'))
  then float_lit ()
  else
    match Int64.of_string_opt text with
    | Some i -> Int_lit i
    | None -> float_lit ()

let next_token buf : lexed =
  skip_trivia buf;
  let start = Sbuf.pos buf in
  let mk tok = { tok; tloc = Sbuf.loc_from buf start } in
  match Sbuf.peek buf with
  | None -> mk Eof
  | Some '"' ->
      Sbuf.advance buf;
      mk (Str (lex_string buf start))
  | Some '%' ->
      Sbuf.advance buf;
      mk (Value_id (Sbuf.take_while buf Sbuf.is_ident_char))
  | Some '^' ->
      Sbuf.advance buf;
      mk (Block_id (Sbuf.take_while buf Sbuf.is_ident_char))
  | Some '@' ->
      Sbuf.advance buf;
      mk (Symbol_id (Sbuf.take_while buf keyword_chars))
  | Some '!' ->
      Sbuf.advance buf;
      mk (Bang_id (Sbuf.take_while buf keyword_chars))
  | Some '#' ->
      Sbuf.advance buf;
      mk (Hash_id (Sbuf.take_while buf keyword_chars))
  | Some '-' when Sbuf.peek2 buf = Some '>' ->
      Sbuf.advance buf;
      Sbuf.advance buf;
      mk (Punct "->")
  | Some c when Sbuf.is_digit c -> mk (lex_number buf)
  | Some '-' when is_number_start buf -> mk (lex_number buf)
  | Some c when Sbuf.is_ident_start c ->
      mk (Ident (Sbuf.take_while buf keyword_chars))
  | Some (('(' | ')' | '{' | '}' | '[' | ']' | '<' | '>' | ',' | ':' | '=' | '-') as c)
    ->
      Sbuf.advance buf;
      mk (Punct (String.make 1 c))
  | Some c ->
      (* Consume the offending character so every lexer error leaves the
         buffer strictly advanced — fail-soft retry relies on that. *)
      Sbuf.advance buf;
      Diag.raise_error ~loc:(Loc.point start) "unexpected character %C" c

let pp_token ppf = function
  | Value_id s -> Fmt.pf ppf "%%%s" s
  | Block_id s -> Fmt.pf ppf "^%s" s
  | Symbol_id s -> Fmt.pf ppf "@%s" s
  | Bang_id s -> Fmt.pf ppf "!%s" s
  | Hash_id s -> Fmt.pf ppf "#%s" s
  | Ident s -> Fmt.string ppf s
  | Str s -> Fmt.pf ppf "%S" s
  | Int_lit i -> Fmt.pf ppf "%Ld" i
  | Float_lit f -> Fmt.float ppf f
  | Punct s -> Fmt.string ppf s
  | Eof -> Fmt.string ppf "<eof>"

(* ------------------------------------------------------------------ *)
(* Parser state                                                        *)
(* ------------------------------------------------------------------ *)

type t = {
  ctx : Context.t;
  buf : Sbuf.t;
  engine : Diag.Engine.t option;
      (** when set, lexing and op sequences recover instead of aborting *)
  budget : Limits.budget;
      (** resource accounting; blown budgets raise {!Diag.Fatal_exn}, which
          deliberately escapes the fail-soft recovery below *)
  mutable lookahead : lexed;
  values : (string, Graph.value) Hashtbl.t;
  forwards : (string * Loc.t) Graph.Forwards.t;
      (** forward placeholders, with the name and location of their first
          use *)
}

(* Lex the next token; in fail-soft mode lexer errors go to the engine and
   lexing is retried (every lexer raise leaves the buffer advanced). *)
let next_token_safe p =
  match p.engine with
  | None -> next_token p.buf
  | Some e ->
      let rec go () =
        match Diag.protect (fun () -> next_token p.buf) with
        | Ok t -> t
        | Error d ->
            Diag.Engine.emit e d;
            go ()
      in
      go ()

let create ?(file = "<string>") ?engine ?(limits = Limits.unlimited) ctx src =
  let budget = Limits.budget limits in
  Limits.check_payload budget ~file (String.length src);
  Failpoints.hit "parse";
  let buf = Sbuf.of_string ~file src in
  let p =
    { ctx; buf; engine; budget; lookahead = { tok = Eof; tloc = Loc.unknown };
      values = Hashtbl.create 64; forwards = Graph.Forwards.create () }
  in
  p.lookahead <- next_token_safe p;
  p

let peek p = p.lookahead.tok
let loc p = p.lookahead.tloc

let advance p =
  let l = p.lookahead in
  p.lookahead <- next_token_safe p;
  l

let fail p fmt =
  Diag.raise_error ~loc:(loc p)
    ("%a: " ^^ fmt)
    (fun ppf () -> Fmt.pf ppf "at '%a'" pp_token (peek p))
    ()

let expect_punct p s =
  match peek p with
  | Punct s' when s = s' -> ignore (advance p)
  | _ -> fail p "expected '%s'" s

let accept_punct p s =
  match peek p with
  | Punct s' when s = s' ->
      ignore (advance p);
      true
  | _ -> false

let expect_ident p =
  match peek p with
  | Ident s ->
      ignore (advance p);
      s
  | _ -> fail p "expected identifier"

(* ------------------------------------------------------------------ *)
(* Types and attributes                                                *)
(* ------------------------------------------------------------------ *)

let int_ty_of_ident s : Attr.ty option =
  let parse_width prefix signedness =
    let plen = String.length prefix in
    if
      String.length s > plen
      && String.sub s 0 plen = prefix
      && String.for_all Sbuf.is_digit
           (String.sub s plen (String.length s - plen))
    then
      match int_of_string_opt (String.sub s plen (String.length s - plen)) with
      | Some width when width > 0 -> Some (Attr.integer ~signedness width)
      | _ -> None (* zero or absurdly wide: not a builtin integer type *)
    else None
  in
  match parse_width "si" Attr.Signed with
  | Some ty -> Some ty
  | None -> (
      match parse_width "ui" Attr.Unsigned with
      | Some ty -> Some ty
      | None -> parse_width "i" Attr.Signless)

let builtin_ty_of_ident s : Attr.ty option =
  match s with
  | "f16" -> Some Attr.f16
  | "f32" -> Some Attr.f32
  | "f64" -> Some Attr.f64
  | "bf16" -> Some Attr.bf16
  | "index" -> Some Attr.index
  | "none" -> Some Attr.none
  | _ -> int_ty_of_ident s

let split_dialect_name p s =
  match String.index_opt s '.' with
  | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> fail p "expected 'dialect.name', got '%s'" s

let rec parse_ty p : Attr.ty =
  match peek p with
  | Ident "tuple" ->
      ignore (advance p);
      expect_punct p "<";
      let tys = parse_ty_list_until p ">" in
      Attr.tuple tys
  | Ident s -> (
      match builtin_ty_of_ident s with
      | Some ty ->
          ignore (advance p);
          ty
      | None -> fail p "unknown builtin type '%s'" s)
  | Bang_id s ->
      ignore (advance p);
      let dialect, name = split_dialect_name p s in
      let params =
        if accept_punct p "<" then parse_attr_list_until p ">" else []
      in
      Attr.dynamic ~dialect ~name params
  | Punct "(" ->
      ignore (advance p);
      let inputs = parse_ty_list_until p ")" in
      expect_punct p "->";
      let outputs =
        if accept_punct p "(" then parse_ty_list_until p ")"
        else [ parse_ty p ]
      in
      Attr.function_ty ~inputs ~outputs
  | _ -> fail p "expected a type"

and parse_ty_list_until p closer =
  if accept_punct p closer then []
  else
    let rec go acc =
      let ty = parse_ty p in
      if accept_punct p "," then go (ty :: acc)
      else (
        expect_punct p closer;
        List.rev (ty :: acc))
    in
    go []

and parse_attr p : Attr.t =
  match peek p with
  | Ident "unit" ->
      ignore (advance p);
      Attr.unit
  | Ident "true" ->
      ignore (advance p);
      Attr.bool true
  | Ident "false" ->
      ignore (advance p);
      Attr.bool false
  | Ident "loc" ->
      ignore (advance p);
      expect_punct p "(";
      let file =
        match advance p with
        | { tok = Str s; _ } -> s
        | _ -> fail p "expected file string in loc"
      in
      expect_punct p ":";
      let line =
        match advance p with
        | { tok = Int_lit i; _ } -> Int64.to_int i
        | _ -> fail p "expected line number in loc"
      in
      expect_punct p ":";
      let col =
        match advance p with
        | { tok = Int_lit i; _ } -> Int64.to_int i
        | _ -> fail p "expected column number in loc"
      in
      expect_punct p ")";
      Attr.location ~file ~line ~col
  | Str s ->
      ignore (advance p);
      Attr.string s
  | Int_lit v ->
      ignore (advance p);
      let ty = if accept_punct p ":" then parse_ty p else Attr.i64 in
      Attr.int ~ty v
  | Float_lit v ->
      ignore (advance p);
      let ty = if accept_punct p ":" then parse_ty p else Attr.f64 in
      Attr.float ~ty v
  | Symbol_id s ->
      ignore (advance p);
      Attr.symbol s
  | Punct "[" ->
      ignore (advance p);
      Attr.array (parse_attr_list_until p "]")
  | Punct "{" ->
      ignore (advance p);
      Attr.dict (parse_attr_dict_entries p)
  | Hash_id "typeid" ->
      ignore (advance p);
      expect_punct p "<";
      let id = expect_ident p in
      expect_punct p ">";
      Attr.type_id id
  | Hash_id "native" ->
      ignore (advance p);
      expect_punct p "<";
      let tag = expect_ident p in
      expect_punct p ",";
      let repr =
        match advance p with
        | { tok = Str s; _ } -> s
        | _ -> fail p "expected string repr in #native"
      in
      expect_punct p ">";
      Attr.opaque ~tag repr
  | Hash_id s when String.contains s '.' ->
      ignore (advance p);
      let dialect, name = split_dialect_name p s in
      let params =
        if accept_punct p "<" then parse_attr_list_until p ">" else []
      in
      Attr.dyn_attr ~dialect ~name params
  | Hash_id dialect ->
      (* Enum attribute: #dialect<enum.Case> *)
      ignore (advance p);
      expect_punct p "<";
      let path = expect_ident p in
      let enum, case = split_dialect_name p path in
      expect_punct p ">";
      Attr.enum ~dialect ~enum case
  | Ident _ | Bang_id _ | Punct "(" -> Attr.typ (parse_ty p)
  | _ -> fail p "expected an attribute"

and parse_attr_list_until p closer =
  if accept_punct p closer then []
  else
    let rec go acc =
      let a = parse_attr p in
      if accept_punct p "," then go (a :: acc)
      else (
        expect_punct p closer;
        List.rev (a :: acc))
    in
    go []

and parse_attr_dict_entries p =
  if accept_punct p "}" then []
  else
    let rec go acc =
      let key = expect_ident p in
      expect_punct p "=";
      let v = parse_attr p in
      if accept_punct p "," then go ((key, v) :: acc)
      else (
        expect_punct p "}";
        List.rev ((key, v) :: acc))
    in
    go []

(* ------------------------------------------------------------------ *)
(* Values and blocks                                                   *)
(* ------------------------------------------------------------------ *)

(** Resolve a value use; creates a forward placeholder on first use before
    definition, remembering where that first use was for error reporting. *)
let use_value p ~loc name =
  match Hashtbl.find_opt p.values name with
  | Some v -> v
  | None ->
      let v = Graph.Value.forward_ref name in
      Hashtbl.replace p.values name v;
      Graph.Forwards.add p.forwards (name, loc) v;
      v

(** Bind a definition for [name]. If a forward placeholder exists it is
    patched in place (keeping use identity) and returned, which resolves
    it in [p.forwards]. *)
let define_value p name (fresh : Graph.value) =
  match Hashtbl.find_opt p.values name with
  | Some ({ v_def = Graph.Forward_ref _; _ } as placeholder) ->
      placeholder.v_ty <- fresh.v_ty;
      placeholder.v_def <- fresh.v_def;
      placeholder
  | _ ->
      Hashtbl.replace p.values name fresh;
      fresh

let expect_value_id p =
  match peek p with
  | Value_id s ->
      ignore (advance p);
      s
  | _ -> fail p "expected SSA value name"

let parse_value_use p =
  let use_loc = loc p in
  use_value p ~loc:use_loc (expect_value_id p)

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

(* Whether a token can plausibly start an operation (or block label) —
   the sync points of panic-mode recovery. *)
let op_start_token = function
  | Value_id _ | Str _ | Block_id _ -> true
  | Ident s -> String.contains s '.'
  | _ -> false

(* Skip tokens after a failed operation until something that can start the
   next one, a closing [}] of the enclosing region (left unconsumed for the
   region parser), or end of file. Brace/paren nesting is tracked so tokens
   inside the abandoned op's sub-structure are not mistaken for sync
   points. *)
let resync_op p =
  let rec go depth =
    match peek p with
    | Eof -> ()
    | Punct "}" when depth = 0 -> ()
    | t when depth = 0 && op_start_token t -> ()
    | Punct ("{" | "(") ->
        ignore (advance p);
        go (depth + 1)
    | Punct ("}" | ")") ->
        ignore (advance p);
        go (max 0 (depth - 1))
    | _ ->
        ignore (advance p);
        go depth
  in
  go 0

type block_scope = (string, Graph.block) Hashtbl.t

let scope_block (scope : block_scope) name =
  match Hashtbl.find_opt scope name with
  | Some b -> b
  | None ->
      let b = Graph.Block.create () in
      Hashtbl.replace scope name b;
      b

let rec parse_op p ~(scope : block_scope option) : Graph.op =
  let op_loc = loc p in
  (* Budget accounting happens before anything is consumed; a blown budget
     raises [Fatal_exn], which skips op-boundary recovery entirely. *)
  Limits.tick_op p.budget ~loc:op_loc;
  (* Optional result list: %a, %b = ... *)
  let result_names =
    match peek p with
    | Value_id _ ->
        let rec go acc =
          let n = expect_value_id p in
          if accept_punct p "," then go (n :: acc) else List.rev (n :: acc)
        in
        let names = go [] in
        expect_punct p "=";
        names
    | _ -> []
  in
  let op =
    match peek p with
    | Str name ->
        ignore (advance p);
        parse_generic_body p ~scope ~name ~op_loc
    | Ident name when String.contains name '.' -> (
        ignore (advance p);
        match Context.lookup_op p.ctx name with
        | Some ({ od_format = Some f; _ } as od) ->
            parse_custom_body p ~name ~od ~format:f ~op_loc
        | Some _ ->
            fail p
              "operation '%s' has no declarative format; use the generic \
               \"%s\"(...) form"
              name name
        | None -> fail p "unknown operation '%s' in custom form" name)
    | _ -> fail p "expected an operation"
  in
  if result_names <> [] then (
    if List.length result_names <> Graph.Op.num_results op then
      Diag.raise_error ~loc:op_loc
        "'%s' produces %d results but %d names were bound" op.Graph.op_name
        (Graph.Op.num_results op)
        (List.length result_names);
    (* Forward placeholders are patched in place and substituted for the
       fresh result values, keeping the identity earlier uses point at. *)
    List.iteri
      (fun i name ->
        op.Graph.op_results.(i) <-
          define_value p name op.Graph.op_results.(i))
      result_names);
  op

and parse_generic_body p ~scope ~name ~op_loc : Graph.op =
  expect_punct p "(";
  let operands =
    if accept_punct p ")" then []
    else
      let rec go acc =
        let v = parse_value_use p in
        if accept_punct p "," then go (v :: acc)
        else (
          expect_punct p ")";
          List.rev (v :: acc))
      in
      go []
  in
  let successors =
    if accept_punct p "[" then (
      let scope =
        match scope with
        | Some s -> s
        | None ->
            Diag.raise_error ~loc:op_loc
              "successors are only allowed inside a region"
      in
      let rec go acc =
        match advance p with
        | { tok = Block_id b; _ } ->
            let blk = scope_block scope b in
            if accept_punct p "," then go (blk :: acc)
            else (
              expect_punct p "]";
              List.rev (blk :: acc))
        | _ -> fail p "expected block name"
      in
      go [])
    else []
  in
  let regions =
    if accept_punct p "(" then
      let rec go acc =
        let r = parse_region p in
        if accept_punct p "," then go (r :: acc)
        else (
          expect_punct p ")";
          List.rev (r :: acc))
      in
      go []
    else []
  in
  let attrs = if accept_punct p "{" then parse_attr_dict_entries p else [] in
  expect_punct p ":";
  expect_punct p "(";
  let operand_tys = parse_ty_list_until p ")" in
  expect_punct p "->";
  let result_tys =
    if accept_punct p "(" then parse_ty_list_until p ")" else [ parse_ty p ]
  in
  if List.length operand_tys <> List.length operands then
    Diag.raise_error ~loc:op_loc
      "'%s': %d operands but %d operand types" name (List.length operands)
      (List.length operand_tys);
  (* Set (for forwards) or check operand types. *)
  List.iter2
    (fun (v : Graph.value) ty ->
      match v.v_def with
      | Graph.Forward_ref _ -> v.v_ty <- ty
      | _ ->
          if not (Attr.equal_ty v.v_ty ty) then
            Diag.raise_error ~loc:op_loc
              "'%s': operand has type %s but was declared with %s" name
              (Attr.ty_to_string v.v_ty) (Attr.ty_to_string ty))
    operands operand_tys;
  Graph.Op.create ~operands ~result_tys ~attrs ~regions ~successors
    ~loc:op_loc name

and parse_region p : Graph.region =
  let region_start = loc p in
  Limits.enter_region p.budget ~loc:region_start;
  Fun.protect ~finally:(fun () -> Limits.leave_region p.budget) @@ fun () ->
  expect_punct p "{";
  let scope : block_scope = Hashtbl.create 4 in
  let region = Graph.Region.create () in
  (* Implicit entry block: operations before any ^label. In fail-soft mode
     each operation is parsed under its own protection, so one bad op in a
     block does not abandon the ops after it. *)
  let parse_block_body blk =
    let continue = ref true in
    while !continue do
      match peek p with
      | Punct "}" | Block_id _ | Eof -> continue := false
      | _ -> (
          match p.engine with
          | None ->
              let op = parse_op p ~scope:(Some scope) in
              Graph.Block.append blk op
          | Some e ->
              if Diag.Engine.limit_reached e then continue := false
              else begin
                let before = (loc p).start_pos.offset in
                match Diag.protect (fun () -> parse_op p ~scope:(Some scope))
                with
                | Ok op -> Graph.Block.append blk op
                | Error d ->
                    Diag.Engine.emit e d;
                    resync_op p;
                    (* Never loop without consuming. *)
                    if
                      (loc p).start_pos.offset = before
                      && (match peek p with
                         | Eof | Punct "}" | Block_id _ -> false
                         | _ -> true)
                    then ignore (advance p)
              end)
    done
  in
  (match peek p with
  | Punct "}" -> ()
  | Block_id _ -> ()
  | _ ->
      let entry = Graph.Block.create () in
      Graph.Region.add_block region entry;
      parse_block_body entry);
  let rec labeled_blocks () =
    match peek p with
    | Block_id label ->
        ignore (advance p);
        let blk = scope_block scope label in
        if blk.Graph.blk_parent <> None then
          Diag.raise_error ~loc:(loc p) "duplicate block label ^%s" label;
        (* Block arguments: (%a: ty, ...) *)
        if accept_punct p "(" then
          if not (accept_punct p ")") then begin
            let rec args () =
              let name = expect_value_id p in
              expect_punct p ":";
              let ty = parse_ty p in
              let v = Graph.Block.add_arg blk ty in
              (* As with results: a forward placeholder is patched in place
                 and substituted into the argument slot, keeping the
                 identity earlier uses point at. *)
              let bound = define_value p name v in
              if bound != v then
                blk.Graph.blk_args.(Graph.Block.num_args blk - 1) <- bound;
              if accept_punct p "," then args () else expect_punct p ")"
            in
            args ()
          end;
        expect_punct p ":";
        Graph.Region.add_block region blk;
        parse_block_body blk;
        labeled_blocks ()
    | _ -> ()
  in
  labeled_blocks ();
  expect_punct p "}";
  (* Every referenced block must have been defined (attached). *)
  Hashtbl.iter
    (fun name (b : Graph.block) ->
      if b.blk_parent = None then
        Diag.raise_error ~loc:region_start "use of undefined block ^%s" name)
    scope;
  region

and parse_custom_body p ~name ~od:_ ~(format : Opfmt.t) ~op_loc : Graph.op =
  let directives = Hashtbl.create 4 in
  let fixed = Hashtbl.create 4 in
  let group = ref None in
  let attrs = ref [] in
  List.iter
    (fun (item : Opfmt.item) ->
      match item with
      | Opfmt.Lit s -> (
          match (peek p, s) with
          | Punct s', _ when s = s' -> ignore (advance p)
          | Ident s', _ when s = s' -> ignore (advance p)
          | _ -> fail p "expected '%s' in '%s' custom syntax" s name)
      | Opfmt.Operand_ref i -> Hashtbl.replace fixed i (parse_value_use p)
      | Opfmt.Operand_group _start ->
          let rec go acc =
            let v = parse_value_use p in
            if accept_punct p "," then go (v :: acc) else List.rev (v :: acc)
          in
          let vs = match peek p with Value_id _ -> go [] | _ -> [] in
          group := Some vs
      | Opfmt.Attr_ref key ->
          let a = parse_attr p in
          attrs := (key, a) :: !attrs
      | Opfmt.Ty_directive { index; _ } ->
          Hashtbl.replace directives index (parse_ty p))
    format.items;
  let directive i =
    match Hashtbl.find_opt directives i with
    | Some ty -> ty
    | None ->
        Diag.raise_error ~loc:op_loc
          "'%s': format did not bind type directive %d" name i
  in
  let rec eval_ty (e : Opfmt.ty_expr) : Attr.ty =
    match e with
    | Opfmt.Known ty -> ty
    | Opfmt.From_directive i -> directive i
    | Opfmt.Param_of (i, j) -> (
        match directive i with
        | Attr.Dynamic { params; _ } -> (
            match List.nth_opt params j with
            | Some (Attr.Type ty) -> ty
            | _ ->
                Diag.raise_error ~loc:op_loc
                  "'%s': type directive %d has no type parameter %d" name i j)
        | ty ->
            Diag.raise_error ~loc:op_loc
              "'%s': type %s has no parameters" name (Attr.ty_to_string ty))
    | Opfmt.Wrap { dialect; name = tname; params } ->
        Attr.dynamic ~dialect ~name:tname
          (List.map (fun e -> Attr.typ (eval_ty e)) params)
  in
  let num_fixed =
    List.length format.operand_tys - (match !group with Some _ -> 1 | None -> 0)
  in
  let fixed_operands =
    List.init num_fixed (fun i ->
        match Hashtbl.find_opt fixed i with
        | Some v -> v
        | None ->
            Diag.raise_error ~loc:op_loc
              "'%s': format did not bind operand %d" name i)
  in
  let operands = fixed_operands @ Option.value ~default:[] !group in
  (* Reconstruct operand types: set forward placeholders, check the rest. *)
  let operand_ty i =
    if i < num_fixed then List.nth format.operand_tys i
    else List.nth format.operand_tys num_fixed
  in
  List.iteri
    (fun i (v : Graph.value) ->
      let ty = eval_ty (operand_ty i) in
      match v.v_def with
      | Graph.Forward_ref _ -> v.v_ty <- ty
      | _ ->
          if not (Attr.equal_ty v.v_ty ty) then
            Diag.raise_error ~loc:op_loc
              "'%s': operand %d has type %s, expected %s" name i
              (Attr.ty_to_string v.v_ty) (Attr.ty_to_string ty))
    operands;
  let result_tys = List.map eval_ty format.result_tys in
  Graph.Op.create ~operands ~result_tys ~attrs:(List.rev !attrs) ~loc:op_loc
    name

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* End of input: a value used but never defined is an error — the first
   one raised when fail-fast, every one emitted when fail-soft. *)
let finish p =
  List.iter
    (fun ((name, use_loc), _) ->
      let d = Diag.error ~loc:use_loc "use of undefined value %%%s" name in
      match p.engine with
      | None -> raise (Diag.Error_exn d)
      | Some e -> Diag.Engine.emit e d)
    (Graph.Forwards.unresolved p.forwards)

(* ------------------------------------------------------------------ *)
(* Streaming sessions                                                  *)
(* ------------------------------------------------------------------ *)

(* The one top-level loop of the text format: one fully-parsed top-level
   operation at a time, so a driver can parse → verify → print → release
   each op without the whole module ever being resident. [parse_ops] is
   this session drained without release. *)
module Stream = struct
  (* A parsed op is only handed out once every forward reference created
     before its parse finished has been resolved: a consumer verifying (or
     printing) the op immediately must see the same patched values a
     whole-module parse ends with. Ops are queued FIFO, each with the
     forward count at the end of its parse; the head is yielded once that
     many forwards are settled. Modules with no top-level forward
     references keep the queue at length one. *)
  type pending = {
    pd_op : Graph.op;
    pd_forwards : int;
        (** [Graph.Forwards.count] when [pd_op] finished parsing *)
  }

  type session = {
    mutable s_parser : (t, Diag.t) result;
        (** [Error] once the session has ended on that diagnostic (a failed
            open, a fail-fast error, a blown budget): sticky, and the
            parser is no longer held. *)
    s_queue : pending Queue.t;
    mutable s_eof : bool;
        (** Input consumed and the undefined-value check done; queued ops
            are handed out as they are. *)
  }

  let create ?file ?engine ?limits ctx src =
    (* Session open can itself fail — payload over budget, injected fault —
       and must fail like everything else in a session: a sticky [Error]
       from [next], not an exception out of [create]. *)
    let s_parser =
      Diag.protect_any (fun () -> create ?file ?engine ?limits ctx src)
    in
    (match (s_parser, engine) with
    | Error d, Some e -> Diag.Engine.emit e d
    | _ -> ());
    { s_parser; s_queue = Queue.create (); s_eof = false }

  (* Consume one top-level item. Fail-fast, a parse error raises. Fail-soft,
     it is emitted and parsing resumes at the next operation boundary; a
     stray [}] is consumed, and the loop never stands still. *)
  let step s p =
    let enqueue op =
      Queue.add
        { pd_op = op; pd_forwards = Graph.Forwards.count p.forwards }
        s.s_queue
    in
    let limited =
      match p.engine with
      | Some e -> Diag.Engine.limit_reached e
      | None -> false
    in
    if limited || peek p = Eof then begin
      finish p;
      s.s_eof <- true
    end
    else
      match (p.engine, peek p) with
      | None, _ -> enqueue (parse_op p ~scope:None)
      | Some e, Punct "}" ->
          (* Fallout of an earlier abandoned op — or a genuinely stray
             brace. Consume it either way so it cannot poison the ops after
             it. *)
          let brace_loc = loc p in
          ignore (advance p);
          if not (Diag.Engine.has_errors e) then
            Diag.Engine.emit e (Diag.error ~loc:brace_loc "unexpected '}'")
      | Some e, _ -> (
          let before = (loc p).start_pos.offset in
          match Diag.protect (fun () -> parse_op p ~scope:None) with
          | Ok op -> enqueue op
          | Error d ->
              Diag.Engine.emit e d;
              resync_op p;
              if (loc p).start_pos.offset = before && peek p <> Eof then
                ignore (advance p))

  let next s : (Graph.op option, Diag.t) result =
    match s.s_parser with
    | Error d -> Error d
    | Ok p -> (
        let rec go () =
          match Queue.peek_opt s.s_queue with
          | Some pd
            when s.s_eof || Graph.Forwards.settled p.forwards >= pd.pd_forwards
            ->
              Some (Queue.pop s.s_queue).pd_op
          | _ when s.s_eof -> None
          | _ ->
              step s p;
              go ()
        in
        match Diag.protect_any go with
        | Ok _ as ok -> ok
        | Error d ->
            (* Fail-fast sessions end on their first error; fail-soft ones
               only on a blown budget or an internal error, which escape
               [protect] and end the whole parse. *)
            Option.iter (fun e -> Diag.Engine.emit e d) p.engine;
            s.s_parser <- Error d;
            Error d)

  let release = Graph.release
end

(* Materialize a session. Fail-fast, the first [Error] is the result;
   fail-soft, the session has already emitted it, and an error that ends a
   fail-soft session (a blown budget) yields [Ok []]. *)
let drain ~fail_soft next =
  let rec go acc =
    match next () with
    | Ok (Some op) -> go (op :: acc)
    | Ok None -> Ok (List.rev acc)
    | Error _ when fail_soft -> Ok []
    | Error d -> Error d
  in
  go []

let parse_ops ?file ?engine ?limits ctx src =
  let s = Stream.create ?file ?engine ?limits ctx src in
  drain ~fail_soft:(Option.is_some engine) (fun () -> Stream.next s)

(** Parse exactly one operation. *)
let parse_op_string ?file ctx src =
  Diag.protect_any (fun () ->
      let p = create ?file ctx src in
      let op = parse_op p ~scope:None in
      (match peek p with
      | Eof -> ()
      | _ -> fail p "trailing input after operation");
      finish p;
      op)

(** Parse a standalone type, e.g. ["!cmath.complex<f32>"]. *)
let parse_type_string ?file ctx src =
  Diag.protect_any (fun () ->
      let p = create ?file ctx src in
      let ty = parse_ty p in
      (match peek p with Eof -> () | _ -> fail p "trailing input after type");
      ty)

(** Parse a standalone attribute. *)
let parse_attr_string ?file ctx src =
  Diag.protect_any (fun () ->
      let p = create ?file ctx src in
      let a = parse_attr p in
      (match peek p with
      | Eof -> ()
      | _ -> fail p "trailing input after attribute");
      a)
