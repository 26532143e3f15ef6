(** The paper's running example: the [cmath] dialect of Listings 1 and 3,
    extended with every construct introduced in §4 and §5 (Listings 4–11):
    aliases, attributes, optional operands, regions with terminators,
    successors, enums, IRDL-C++ constraints and native parameters. *)

let name = "cmath"

let source =
  {|
Dialect cmath {
  // Listing 3: aliases and the complex type.
  Alias !FloatType = !AnyOf<!f32, !f64>

  Type complex {
    Parameters (elementType: !FloatType)
    Summary "A complex number"
  }

  // Listing 4: aliases for types and parametric constraint aliases.
  Alias !Complexf32 = !complex<!f32>
  Alias !ComplexOr<T> = AnyOf<!complex<!AnyType>, T>

  Operation mul {
    ConstraintVars (!T: !complex<FloatType>)
    Operands (lhs: !T, rhs: !T)
    Results (res: !T)
    Format "$lhs, $rhs : $T.elementType"
    Summary "Multiply two complex numbers"
  }

  Operation norm {
    ConstraintVars (!T: !FloatType)
    Operands (c: !complex<!T>)
    Results (res: !T)
    Format "$c : $T"
    Summary "Compute the norm of a complex number"
  }

  // Listing 5: attributes add static information to operations.
  Operation create_constant {
    Results (res: !complex<!f32>)
    Attributes (re: #f32_attr, im: #f32_attr)
    Summary "Create a constant complex number"
  }

  // Listing 6: optional operands encode a default parameter.
  Operation log {
    Operands (c: !complex<!f32>, base: Optional<!f32>)
    Results (res: !complex<!f32>)
    Summary "Complex logarithm with an optional base"
  }

  // Listing 7: regions with arguments and terminators.
  Operation range_loop_terminator {
    Successors ()
    Summary "Terminates a range_loop body"
  }

  Operation range_loop {
    Operands (lower_bound: !i32, upper_bound: !i32, step: !i32)
    Region body {
      Arguments (induction_variable: !i32)
      Terminator range_loop_terminator
    }
    Summary "A loop iterating over an integer range"
  }

  // Listing 8: successors pass control to other basic blocks.
  Operation conditional_branch {
    Operands (condition: !i1)
    Successors (next_bb_true, next_bb_false)
    Summary "Branch on a condition"
  }

  // Listing 9: enumerations used in types.
  Enum signedness { Signless, Signed, Unsigned }

  Type integer {
    Parameters (bitwidth: uint32_t, signed: signedness)
    Summary "An integer with explicit signedness"
  }

  Alias signed_integer = !integer<uint32_t, signedness.Signed>

  // Listing 10: IRDL-C++ constraints and operation invariants.
  Constraint BoundedInteger : uint32_t {
    Summary "integer value between 0 and 32"
    CppConstraint "$_self <= 32"
  }

  Type BoundedVector {
    Parameters (typ: !AnyType, size: BoundedInteger)
  }

  Operation append_vector {
    ConstraintVars (T: !AnyType)
    Operands (lhs: !BoundedVector<T, BoundedInteger>,
              rhs: !BoundedVector<T, BoundedInteger>)
    Results (res: !BoundedVector<T, BoundedInteger>)
    CppConstraint "$_self.lhs().size() + $_self.rhs().size() == $_self.res().size()"
  }

  // Listing 11: native parameters (IRDL-C++ TypeOrAttrParam).
  TypeOrAttrParam StringParam {
    Summary "A string parameter"
    CppClassName "char*"
    CppParser "parseStringParam($self)"
    CppPrinter "printStringParam($self)"
  }

  Attribute StringAttr {
    Parameters (data: StringParam)
  }
}
|}

open Irdl_ir

(** Size of a !cmath.BoundedVector value's [size] parameter. *)
let bounded_vector_size (ty : Attr.ty) : int64 option =
  match ty with
  | Attr.Dynamic { dialect = "cmath"; name = "BoundedVector"; params = [ _; Attr.Int { value; _ } ]; _ }
    ->
      Some value
  | _ -> None

(** Bind OCaml meaning to the dialect's IRDL-C++ snippets (paper §5: the
    snippets are opaque to IRDL itself; the host language interprets them). *)
let register_hooks (native : Irdl_core.Native.t) =
  Irdl_core.Native.register_param_hook native "$_self <= 32" (fun a ->
      match a with
      | Attr.Int { value; _ } ->
          Int64.compare value 0L >= 0 && Int64.compare value 32L <= 0
      | _ -> false);
  Irdl_core.Native.register_op_hook native
    "$_self.lhs().size() + $_self.rhs().size() == $_self.res().size()"
    (fun op ->
      match (Graph.Op.operands op, Graph.Op.results op) with
      | [ lhs; rhs ], [ res ] -> (
          match
            ( bounded_vector_size (Graph.Value.ty lhs),
              bounded_vector_size (Graph.Value.ty rhs),
              bounded_vector_size (Graph.Value.ty res) )
          with
          | Some a, Some b, Some c -> Int64.add a b = c
          | _ -> false)
      | _ -> false);
  Irdl_core.Native.register_codec native "StringParam"
    {
      Irdl_core.Native.codec_parse =
        (fun s -> Some (Attr.opaque ~tag:"StringParam" s));
      codec_print =
        (fun a ->
          match a with
          | Attr.Opaque { tag = "StringParam"; repr } -> Some repr
          | _ -> None);
    }

(** Load cmath into a context with its native hooks registered. *)
let load ?(native = Irdl_core.Native.create ()) ctx =
  register_hooks native;
  Irdl_core.Irdl.load_one ~native ctx source
