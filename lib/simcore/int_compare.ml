(* Int-typed comparison operators.  A module that opens this cannot
   compile a generic compare by accident: the polymorphic [=]/[<]/
   [compare] go through [caml_equal]/[caml_lessthan]/[caml_compare] on
   every call, which costs a C call per comparison on hot paths.  The
   [external] declarations keep them compiler primitives, so each use
   compiles to one machine compare.  Compare floats with [Float.equal]
   and friends. *)

external ( = ) : int -> int -> bool = "%equal"
external ( <> ) : int -> int -> bool = "%notequal"
external ( < ) : int -> int -> bool = "%lessthan"
external ( > ) : int -> int -> bool = "%greaterthan"
external ( <= ) : int -> int -> bool = "%lessequal"
external ( >= ) : int -> int -> bool = "%greaterequal"
external compare : int -> int -> int = "%compare"
