(** Ambiguous-roots (Boehm-style) mark–sweep baseline (paper §7).

    No tables are consulted: every word in the registers, the whole stack,
    and the global area is treated as a potential pointer; anything that
    {e looks like} a pointer into an allocated object pins that object.
    Objects never move (so no compaction and no derived-value update is
    needed — and none is possible), and interior pointers must pin the
    enclosing object, which is exactly the concern Boehm's gc-safety work
    addresses.

    Reclaimed objects go to a first-fit free list consumed by the
    allocator. The collector tracks allocations through the VM's
    [on_alloc] hook to know object boundaries, standing in for the
    allocator metadata a real conservative collector keeps. *)

module T = Telemetry

let c_collections = T.Metrics.counter "gc.collections"
let h_pause = T.Metrics.histogram "gc.pause_ns"
let h_marked = T.Metrics.histogram "gc.marked_objects"
let h_swept = T.Metrics.histogram "gc.swept_objects"

type t = {
  st : Vm.Interp.t;
  objects : (int, int) Hashtbl.t; (* address -> size in words *)
  mutable sorted : (int * int) array; (* rebuilt per collection *)
  mutable interior : bool; (* recognize interior pointers *)
  mutable marked_last : int;
  mutable swept_last : int;
  mutable false_roots : int; (* root words that looked like pointers *)
}

let register_alloc c addr size = Hashtbl.replace c.objects addr size

(* Find the object containing [v] (or starting at [v] when interior
   recognition is off). *)
let find_object c v =
  let arr = c.sorted in
  let n = Array.length arr in
  if n = 0 then None
  else begin
    let rec bsearch lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if fst arr.(mid) <= v then bsearch mid hi else bsearch lo mid
    in
    if v < fst arr.(0) then None
    else
      let i = bsearch 0 n in
      let addr, size = arr.(i) in
      if c.interior then if v >= addr && v < addr + size then Some addr else None
      else if v = addr then Some addr
      else None
  end

let collect_now (c : t) =
  let st = c.st in
  let t0 = T.Control.now_ns () in
  let gcs = st.Vm.Interp.gc in
  gcs.Vm.Interp.collections <- gcs.Vm.Interp.collections + 1;
  T.Metrics.incr c_collections;
  T.Trace.begin_span ~cat:"gc"
    ~args:[ ("collection", T.Json.Int gcs.Vm.Interp.collections) ]
    "gc.collect.conservative";
  c.sorted <-
    (let l = Hashtbl.fold (fun a s acc -> (a, s) :: acc) c.objects [] in
     let arr = Array.of_list l in
     Array.sort compare arr;
     arr);
  let marked = Hashtbl.create (Hashtbl.length c.objects) in
  let work = Queue.create () in
  let consider v =
    match find_object c v with
    | Some addr when not (Hashtbl.mem marked addr) ->
        Hashtbl.replace marked addr true;
        Queue.push addr work
    | _ -> ()
  in
  (* Ambiguous roots: registers, entire stack, entire global/static area. *)
  for r = 0 to Machine.Reg.ngeneral - 1 do
    consider st.Vm.Interp.regs.(r)
  done;
  for a = Vm.Interp.sp st to st.Vm.Interp.image.Vm.Image.stack_top - 1 do
    consider st.Vm.Interp.mem.{a}
  done;
  (* The static area ends at the stack (the map is statics, stack, heap):
     scanning up to [heap_base] would treat dead stack slots below sp as
     global roots and pin garbage. *)
  for a = st.Vm.Interp.image.Vm.Image.globals_base
      to st.Vm.Interp.image.Vm.Image.stack_base - 1
  do
    consider st.Vm.Interp.mem.{a}
  done;
  (* Mark transitively, scanning every word of every object (Boehm-style:
     the heap is ambiguous too). *)
  while not (Queue.is_empty work) do
    let addr = Queue.pop work in
    let size = Hashtbl.find c.objects addr in
    for i = 0 to size - 1 do
      consider st.Vm.Interp.mem.{addr + i}
    done
  done;
  (* Sweep: unmarked objects join the free list. *)
  let freed = ref [] in
  Hashtbl.iter
    (fun addr size -> if not (Hashtbl.mem marked addr) then freed := (addr, size) :: !freed)
    c.objects;
  List.iter (fun (addr, _) -> Hashtbl.remove c.objects addr) !freed;
  (* Coalesce adjacent free blocks. *)
  let blocks =
    List.sort compare (!freed @ st.Vm.Interp.free_list) |> fun sorted ->
    List.fold_left
      (fun acc (a, s) ->
        match acc with
        | (pa, ps) :: rest when pa + ps = a -> (pa, ps + s) :: rest
        | _ -> (a, s) :: acc)
      [] sorted
    |> List.rev
  in
  st.Vm.Interp.free_list <- blocks;
  c.marked_last <- Hashtbl.length marked;
  c.swept_last <- List.length !freed;
  let dt = Int64.sub (T.Control.now_ns ()) t0 in
  gcs.Vm.Interp.total_gc_ns <- Int64.add gcs.Vm.Interp.total_gc_ns dt;
  T.Trace.end_span
    ~args:
      [
        ("marked", T.Json.Int c.marked_last); ("swept", T.Json.Int c.swept_last);
      ]
    ();
  if T.Control.on () then begin
    T.Metrics.observe_ns h_pause dt;
    T.Metrics.observe h_marked (float_of_int c.marked_last);
    T.Metrics.observe h_swept (float_of_int c.swept_last)
  end

(** Fragmentation summary of the current free list. *)
let free_list_stats (st : Vm.Interp.t) =
  let blocks = st.Vm.Interp.free_list in
  let total = List.fold_left (fun a (_, s) -> a + s) 0 blocks in
  let largest = List.fold_left (fun a (_, s) -> max a s) 0 blocks in
  (List.length blocks, total, largest)

(** Words retained (live per the conservative collector). *)
let retained_words c =
  Hashtbl.fold (fun _ s acc -> acc + s) c.objects 0

let install ?(interior = true) (st : Vm.Interp.t) : t =
  let c =
    {
      st;
      objects = Hashtbl.create 1024;
      sorted = [||];
      interior;
      marked_last = 0;
      swept_last = 0;
      false_roots = 0;
    }
  in
  st.Vm.Interp.on_alloc <- Some (fun addr size -> register_alloc c addr size);
  st.Vm.Interp.collector <- Some (fun _st ~needed:_ -> collect_now c);
  c
