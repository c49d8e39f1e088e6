(** The compile workload's corpus: the six programs of [lib/programs] plus
    generated modules of straight-line procedures, all from one seed.

    Procedure lengths follow a long-tailed (Pareto) distribution taken at
    fixed quantiles, so every seed has the same lengths and the same count
    of gc-points per procedure, grouped into modules the same way; the
    seed decides the statements and their order. The long tail is
    what makes per-block costs that grow faster than linearly show. The
    generator also evaluates what it generates, which gives each generated
    module a reference output that does not depend on the compiler. *)

type program = {
  name : string;
  source : string;
  heap_words : int; (* semispace words when the corpus runs *)
  expected : string;
}

(* --- generated straight-line procedures ------------------------------ *)

let modulus = 1000003
let nx = 6 (* INTEGER locals x0..x5 *)
let np = 4 (* List locals p0..p3, never NIL *)

type stmt =
  | Arith of int * int * int * int (* xi := (xj * c + xk) MOD m *)
  | Load of int * int (* xi := (xi + pj.v) MOD m *)
  | Cons of int * int * int (* pi := Cons(xj, pk): a call that allocates *)
  | Inline of int * int * int (* q := NEW(List); q.v := xj; q.next := pk; pi := q *)

(** The procedure's result for argument [a], computed by the generator. *)
let eval (body : stmt list) a =
  let x = Array.init nx (fun i -> a + i) in
  let p = Array.init np (fun i -> [ a + i ]) in
  List.iter
    (function
      | Arith (i, j, c, k) -> x.(i) <- ((x.(j) * c) + x.(k)) mod modulus
      | Load (i, j) -> x.(i) <- (x.(i) + List.hd p.(j)) mod modulus
      | Cons (i, j, k) | Inline (i, j, k) -> p.(i) <- x.(j) :: p.(k))
    body;
  let sum l = List.fold_left (fun s v -> (s + v) mod modulus) 0 l in
  (Array.fold_left ( + ) 0 x + Array.fold_left (fun acc l -> acc + sum l) 0 p) mod modulus

(* Exact proportions, so every seed generates the same mix: half of the
   gc-points call Cons and half allocate inline, a quarter of the other
   statements load through a pointer. The seed picks order and operands. *)
let gen_body rng ~len ~gcpoints =
  let loads = (len - gcpoints) / 4 in
  let kinds =
    Array.init len (fun i ->
        if i < gcpoints / 2 then `Cons
        else if i < gcpoints then `Inline
        else if i < gcpoints + loads then `Load
        else `Arith)
  in
  for i = len - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = kinds.(i) in
    kinds.(i) <- kinds.(j);
    kinds.(j) <- t
  done;
  let r n = Random.State.int rng n in
  Array.to_list
    (Array.map
       (function
         | `Cons -> Cons (r np, r nx, r np)
         | `Inline -> Inline (r np, r nx, r np)
         | `Load -> Load (r nx, r np)
         | `Arith -> Arith (r nx, r nx, 1 + r 9, r nx))
       kinds)

let print_proc b name body =
  let xs = List.init nx (Printf.sprintf "x%d") and ps = List.init np (Printf.sprintf "p%d") in
  Printf.bprintf b "PROCEDURE %s(a: INTEGER): INTEGER;\nVAR %s: INTEGER; %s, q: List;\nBEGIN\n" name
    (String.concat ", " xs) (String.concat ", " ps);
  List.iteri (fun i v -> Printf.bprintf b "  %s := a + %d;\n" v i) xs;
  List.iteri (fun i v -> Printf.bprintf b "  %s := Cons(a + %d, NIL);\n" v i) ps;
  List.iter
    (function
      | Arith (i, j, c, k) -> Printf.bprintf b "  x%d := (x%d * %d + x%d) MOD %d;\n" i j c k modulus
      | Load (i, j) -> Printf.bprintf b "  x%d := (x%d + p%d.v) MOD %d;\n" i i j modulus
      | Cons (i, j, k) -> Printf.bprintf b "  p%d := Cons(x%d, p%d);\n" i j k
      | Inline (i, j, k) ->
          Printf.bprintf b "  q := NEW(List); q.v := x%d; q.next := p%d; p%d := q;\n" j k i)
    body;
  Printf.bprintf b "  RETURN (%s + %s) MOD %d\nEND %s;\n\n" (String.concat " + " xs)
    (String.concat " + " (List.map (Printf.sprintf "Sum(%s)") ps))
    modulus name

(** One module: its procedures run [reps] times each from a loop in the
    main body, and each prints a running checksum of its results. *)
let gen_module ~name ~reps (procs : (string * stmt list) list) =
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "MODULE %s;\n\n\
     TYPE\n\
    \  Cell = RECORD v: INTEGER; next: List END;\n\
    \  List = REF Cell;\n\n\
     VAR acc, r: INTEGER;\n\n\
     PROCEDURE Cons(v: INTEGER; t: List): List;\n\
     VAR c: List;\n\
     BEGIN c := NEW(List); c.v := v; c.next := t; RETURN c END Cons;\n\n\
     PROCEDURE Sum(l: List): INTEGER;\n\
     VAR s: INTEGER;\n\
     BEGIN\n\
    \  s := 0;\n\
    \  WHILE l # NIL DO s := (s + l.v) MOD %d; l := l.next END;\n\
    \  RETURN s\n\
     END Sum;\n\n"
    name modulus;
  List.iter (fun (pname, body) -> print_proc b pname body) procs;
  Buffer.add_string b "BEGIN\n";
  let expected = Buffer.create 256 in
  List.iter
    (fun (pname, body) ->
      Printf.bprintf b
        "  acc := 0;\n\
        \  FOR r := 1 TO %d DO acc := (acc * 7 + %s(r)) MOD %d END;\n\
        \  PutInt(acc); PutLn();\n"
        reps pname modulus;
      let acc = ref 0 in
      for r = 1 to reps do
        acc := ((!acc * 7) + eval body r) mod modulus
      done;
      Printf.bprintf expected "%d\n" !acc)
    procs;
  Printf.bprintf b "END %s.\n" name;
  (Buffer.contents b, Buffer.contents expected)

(** Shape of the generated part of the corpus. *)
type shape = {
  procs : int; (* generated procedures *)
  per_module : int;
  min_len : int; (* statements in the shortest procedure *)
  max_len : int; (* cap on the longest *)
  alpha : float; (* Pareto tail index: smaller is a longer tail *)
  gc_share : float; (* share of statements that are gc-points *)
  reps : int; (* calls of each procedure when the module runs *)
}

let full =
  { procs = 48; per_module = 6; min_len = 6; max_len = 360; alpha = 1.1; gc_share = 0.4; reps = 40 }

let smoke = { full with procs = 12; max_len = 80; reps = 4 }

(** Lengths at the quantiles (i + 1/2)/n of the Pareto distribution. *)
let lengths s =
  List.init s.procs (fun i ->
      let u = (float_of_int i +. 0.5) /. float_of_int s.procs in
      min s.max_len
        (int_of_float (float_of_int s.min_len *. ((1.0 -. u) ** (-1.0 /. s.alpha)))))

let generated ~seed s =
  let rng = Random.State.make [| 0x5eed; seed |] in
  let procs =
    Array.of_list
      (List.map
         (fun len ->
           let gcpoints = int_of_float (Float.round (s.gc_share *. float_of_int len)) in
           (len, gcpoints, gen_body rng ~len ~gcpoints))
         (lengths s))
  in
  (* Module m holds the procedures at quantiles m, m + nmod, m + 2 nmod, ...:
     one of each length band, the same for every seed, so the modules' heap
     sizes and live data (and with them the collection pauses) do not
     depend on the seed. *)
  let nmod = (Array.length procs + s.per_module - 1) / s.per_module in
  List.init nmod (fun m ->
      let members =
        List.filteri (fun i _ -> i mod nmod = m) (Array.to_list procs)
      in
      let name = Printf.sprintf "Gen%d" m in
      let source, expected =
        gen_module ~name ~reps:s.reps
          (List.mapi (fun i (_, _, body) -> (Printf.sprintf "P%d" i, body)) members)
      in
      (* live data peaks at one call's cells (3 words each) *)
      let live = List.fold_left (fun a (_, g, _) -> max a (3 * (g + np + 2))) 0 members in
      { name = String.lowercase_ascii name; source; heap_words = max 1024 (4 * live); expected })

(* --- the paper's programs -------------------------------------------- *)

let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then invalid_arg ("Corpus.replace_first: " ^ sub)
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

(** destroy's in-program LCG starts from [lcg_seed] instead of 12345. *)
let destroy_source ~lcg_seed src =
  replace_first ~sub:"seed := 12345;" ~by:(Printf.sprintf "seed := %d;" lcg_seed) src

let lcg_seed_of seed = 1 + (Hashtbl.hash (seed, "destroy") mod 1_000_000)

let paper_programs ~seed =
  let destroy =
    destroy_source ~lcg_seed:(lcg_seed_of seed)
      (Programs.Destroy_src.make ~branch:3 ~depth:6 ~replace_depth:3 ~iterations:60)
  in
  [
    { name = "takl"; source = Programs.Takl_src.src; heap_words = 400;
      expected = Programs.Takl_src.expected };
    { name = "destroy"; source = destroy; heap_words = 5800;
      expected = Refs.destroy ~branch:3 ~depth:6 ~replace_depth:3 ~iterations:60 };
    { name = "typereg"; source = Programs.Typereg_src.src; heap_words = 3000;
      expected = Refs.typereg () };
    { name = "fieldlist"; source = Programs.Fieldlist_src.src; heap_words = 300;
      expected = Refs.fieldlist () };
    { name = "indirect"; source = Programs.Indirect_src.src; heap_words = 1000;
      expected = Programs.Indirect_src.expected };
    { name = "ambig"; source = Programs.Ambig_src.src; heap_words = 400;
      expected = Programs.Ambig_src.expected };
  ]

let make ~seed shape = paper_programs ~seed @ generated ~seed shape
