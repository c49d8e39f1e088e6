let flag ?(default = false) name =
  match Sys.getenv_opt name with
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some ("0" | "false" | "no" | "off") -> false
  | _ -> default

let pos_int name =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some n when n >= 1 -> Some n
  | _ -> None
