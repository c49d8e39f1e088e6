(** Environment switches. Every [MM_*] flag and integer the runtime reads
    goes through these two readers, so one truthiness rule holds
    everywhere. *)

val flag : ?default:bool -> string -> bool
(** [flag name] reads a boolean switch. [1|true|yes|on] mean on and
    [0|false|no|off] mean off. Unset, empty or any other value gives
    [default] (false unless stated). *)

val pos_int : string -> int option
(** [pos_int name] is [Some n] when the variable holds an integer [n >= 1],
    and [None] when it is unset, empty, not an integer or below 1. *)
