(** Reference outputs that do not come from the compiler under test: the
    hand-written [expected] strings of [lib/programs], and small OCaml
    models of the programs that have none. *)

(** destroy replaces a subtree of height [depth - replace_depth] by a fresh
    one of the same height, so the tree keeps all [sum branch^i] nodes, and
    every replacement adds the fresh root's value to the checksum. *)
let destroy ~branch ~depth ~replace_depth ~iterations =
  let rec nodes d = if d = 0 then 1 else 1 + (branch * nodes (d - 1)) in
  Printf.sprintf "destroy: nodes=%d checksum=%d\n" (nodes depth)
    (iterations * (depth - replace_depth))

(** fieldlist splits six command lines into whitespace-separated fields;
    "echo" prints the rest of its line, "count" prints how many follow. *)
let fieldlist () =
  let commands =
    [
      "echo hello world";
      "   count a b c   d ";
      "ls -l /usr/local/bin";
      "echo   gc tables   are small";
      "count";
      "echo done";
    ]
  in
  let split line =
    List.filter (fun f -> f <> "") (String.split_on_char ' ' line)
  in
  let out = Buffer.create 128 in
  let fields, echoed =
    List.fold_left
      (fun (fields, echoed) line ->
        let fs = split line in
        let ran =
          match fs with
          | "echo" :: rest ->
              Buffer.add_string out (String.concat " " rest ^ "\n");
              List.length rest
          | "count" :: rest ->
              Buffer.add_string out (string_of_int (List.length rest) ^ "\n");
              List.length rest
          | _ -> 0
        in
        (fields + List.length fs, echoed + ran))
      (0, 0) commands
  in
  Printf.bprintf out "fieldlist: fields=%d echoed=%d\n" fields echoed;
  Buffer.contents out

(** typereg registers types once per structural-equivalence class and
    counts every other registration as a hit. *)
type ty = Prim | Ptr of ty | Array of ty * int | Record of ty list

let typereg () =
  let registry = ref [] and registered = ref 0 and hits = ref 0 in
  let register t =
    if List.mem t !registry then incr hits
    else begin
      registry := t :: !registry;
      incr registered
    end
  in
  let rec chain d = if d = 0 then Prim else Ptr (chain (d - 1)) in
  for i = 1 to 40 do
    register (chain (i mod 13));
    register (chain (i mod 13))
  done;
  for i = 1 to 40 do
    register (Array (chain (i mod 7), (i mod 9) + 1));
    register (Array (chain (i mod 7), (i mod 9) + 1))
  done;
  for i = 1 to 30 do
    for j = 1 to 3 do
      register (Record (List.init ((i mod 5) + 1) (fun _ -> chain j)))
    done
  done;
  Printf.sprintf "typereg: registered=%d hits=%d probes>0=1\n" !registered !hits
