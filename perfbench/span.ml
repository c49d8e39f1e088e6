(** Spans recorded by the benchmark around its calls into each layer.

    A span has a name, a start, an end and the span that caused it; every
    span of one process shares the recorder's run id. Spans stay in memory
    until the run ends, when {!write_chrome} dumps them as a Chrome trace
    and {!self_times} folds them into per-layer self time. A disabled
    recorder ([off]) costs one branch per call and records nothing. *)

type span = { id : int; name : string; parent : int; t0 : int64; t1 : int64 }

type t = {
  run_id : string;
  enabled : bool;
  mutable spans : span list; (* newest first *)
  mutable stack : int list; (* open spans, innermost first *)
  mutable next_id : int;
}

let create ~run_id = { run_id; enabled = true; spans = []; stack = []; next_id = 0 }
let off = { run_id = ""; enabled = false; spans = []; stack = []; next_id = 0 }
let current r = match r.stack with p :: _ -> p | [] -> -1

let fresh_id r =
  let id = r.next_id in
  r.next_id <- id + 1;
  id

(** Run [f] inside a span named [name]. *)
let with_ r name f =
  if not r.enabled then f ()
  else begin
    let id = fresh_id r in
    let parent = current r in
    r.stack <- id :: r.stack;
    let t0 = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now_ns () in
        r.stack <- List.tl r.stack;
        r.spans <- { id; name; parent; t0; t1 } :: r.spans)
      f
  end

(** Record a finished leaf span under the innermost open span (for hooks
    that time themselves and learn their span's name only afterwards). *)
let add r name ~t0 ~t1 =
  if r.enabled then
    r.spans <- { id = fresh_id r; name; parent = current r; t0; t1 } :: r.spans

let dur_s s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e9

let dur_ns s = Int64.sub s.t1 s.t0

(* Duration each span's children cover, in nanoseconds, by parent id. *)
let children_ns r =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Int64.add (dur_ns s) (Option.value ~default:0L (Hashtbl.find_opt child s.parent))))
    r.spans;
  child

let self_ns child s = Int64.sub (dur_ns s) (Option.value ~default:0L (Hashtbl.find_opt child s.id))

(** Self time per span name, in seconds, with the number of spans: a
    span's duration minus the part its children cover. When {!check} finds
    nothing, the self times of all spans under one root add up to the
    root's duration. *)
let self_times r : (string, float * int) Hashtbl.t =
  let child = children_ns r in
  let acc = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self = Int64.to_float (self_ns child s) /. 1e9 in
      let t, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (t +. self, n + 1))
    r.spans;
  acc

(** What is wrong with the recorded tree, first problems first: a span
    that ends before it starts, that names no recorded parent, that does
    not lie inside its parent's interval, or whose children cover more
    than its own duration (overlapping children: negative self time). *)
let check r =
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) r.spans;
  let child = children_ns r in
  let problems =
    List.filter_map
      (fun s ->
        let where = Printf.sprintf "span %d (%s)" s.id s.name in
        if Int64.compare s.t1 s.t0 < 0 then Some (where ^ " ends before it starts")
        else if Int64.compare (self_ns child s) 0L < 0 then
          Some (where ^ " has a negative self time")
        else if s.parent < 0 then None
        else
          match Hashtbl.find_opt by_id s.parent with
          | None -> Some (Printf.sprintf "%s names a missing parent %d" where s.parent)
          | Some p when Int64.compare s.t0 p.t0 < 0 || Int64.compare s.t1 p.t1 > 0 ->
              Some (Printf.sprintf "%s lies outside its parent %d (%s)" where p.id p.name)
          | Some _ -> None)
      (List.rev r.spans)
  in
  List.filteri (fun i _ -> i < 5) problems

(** Total duration of the spans named [name]. *)
let total r name =
  List.fold_left (fun a s -> if s.name = name then a +. dur_s s else a) 0.0 r.spans

let json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(** Write every span as a Chrome trace ("X" complete events, microseconds
    from the first span's start). *)
let write_chrome r path =
  let spans = List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) r.spans in
  let origin = match spans with s :: _ -> s.t0 | [] -> 0L in
  let us t = Int64.to_float (Int64.sub t origin) /. 1e3 in
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b "{\"name\":";
      json_string b s.name;
      Buffer.add_string b
        (Printf.sprintf ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f" (us s.t0)
           (us s.t1 -. us s.t0));
      Buffer.add_string b (Printf.sprintf ",\"args\":{\"id\":%d,\"parent\":%d,\"run\":" s.id s.parent);
      json_string b r.run_id;
      Buffer.add_string b "}}")
    spans;
  Buffer.add_string b "]}\n";
  let oc = open_out_bin path in
  Buffer.output_buffer oc b;
  close_out oc
