(** The three workloads, each one function of the seed.

    - [compile]: compile a seeded corpus to validated images, then run
      every program once against its reference output.
    - [destroy-gen]: destroy with a long-lived ballast under the
      generational collector.
    - [destroy-inc]: the same program family under the incremental
      collector with a pause budget.

    An untraced run ([trace = false]) gives the end-to-end metrics. A
    traced run records spans around every layer call, alternates traced
    repetitions with untraced ones (so it can state its own overhead) and
    gives the per-layer metrics. *)

module VI = Vm.Interp

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  attempted : int; (* programs run *)
  failed : int; (* wrong output or typed error *)
  failures : string list; (* "program: reason", first few *)
  metrics : metric list;
  notes : string list; (* configuration echo and sample counts, for humans *)
  exact : (string * string) list; (* values that must repeat exactly (self-test) *)
}

let names = [ "compile"; "destroy-gen"; "destroy-inc" ]

(* --- sizes ------------------------------------------------------------ *)

type destroy = {
  branch : int;
  depth : int;
  replace_depth : int;
  iterations : int;
  ballast : int; (* long-lived list cells *)
  heap_words : int; (* words per semispace *)
  nursery_words : int; (* generational only *)
  budget_us : int; (* incremental only: the pause budget *)
}

let destroy_gen =
  {
    branch = 4;
    depth = 5;
    replace_depth = 2;
    iterations = 2400;
    ballast = 14000;
    heap_words = 60000;
    nursery_words = 2000;
    budget_us = 0;
  }

(* The incremental collector needs more headroom than the nursery: with
   less, it loses the pacing race and falls back to forced full finishes. *)
let destroy_inc = { destroy_gen with heap_words = 160000; nursery_words = 0; budget_us = 100 }

let smoke d = { d with iterations = 60; ballast = 1000; heap_words = d.heap_words / 4; nursery_words = d.nursery_words / 2 }

(* The fewest measured repetitions in a run. *)
let min_reps = 6

(* The tail percentile each workload reports. Each must lie inside one
   population of pauses with room to spare: on compile one collection per
   corpus run, in one generated module, takes several times longer than
   the rest; at about 1% of pauses p99 would straddle it, so p95 is used; on
   destroy-gen majors are about 11% of pauses and on destroy-inc forced
   finishes about 0.2%, so p99 lies among majors and among slices. *)
let tail_p = function "compile" -> 0.95 | _ -> 0.99

(* --- run-time accounting ---------------------------------------------- *)

(** Counters summed over the programs of one repetition, read from the
    collector statistics that are always on ([gc_stats], [gen_state],
    [inc_state]). *)
type counts = {
  mutable icount : int;
  mutable allocs : int;
  mutable alloc_words : int;
  mutable collections : int;
  mutable minors : int;
  mutable words_copied : int;
  mutable frames : int;
  mutable trace_ns : int;
  mutable copy_ns : int;
  mutable barrier_execs : int;
  mutable remset_inserts : int;
  mutable slices : int;
  mutable cycles : int;
  mutable inc_barrier_execs : int;
  mutable swept_words : int;
  mutable overruns : int;
  mutable forced : int;
  mutable rescans : int;
  mutable spills : int;
  mutable max_slice_ns : int;
}

let zero_counts () =
  {
    icount = 0; allocs = 0; alloc_words = 0; collections = 0; minors = 0; words_copied = 0;
    frames = 0; trace_ns = 0; copy_ns = 0; barrier_execs = 0; remset_inserts = 0; slices = 0;
    cycles = 0; inc_barrier_execs = 0; swept_words = 0; overruns = 0; forced = 0; rescans = 0;
    spills = 0; max_slice_ns = 0;
  }

let add_counts c (st : VI.t) =
  let g = st.VI.gc in
  c.icount <- c.icount + st.VI.icount;
  c.allocs <- c.allocs + st.VI.alloc_count;
  c.alloc_words <- c.alloc_words + st.VI.alloc_words;
  c.collections <- c.collections + g.VI.collections;
  c.minors <- c.minors + g.VI.minor_collections;
  c.words_copied <- c.words_copied + g.VI.words_copied;
  c.frames <- c.frames + g.VI.frames_traced;
  c.trace_ns <- c.trace_ns + Int64.to_int g.VI.trace_ns;
  c.copy_ns <- c.copy_ns + Int64.to_int g.VI.copy_ns;
  (match st.VI.gen with
  | Some gs ->
      c.barrier_execs <- c.barrier_execs + gs.VI.barrier_execs;
      c.remset_inserts <- c.remset_inserts + gs.VI.remset_inserts
  | None -> ());
  match st.VI.inc with
  | Some i ->
      c.slices <- c.slices + i.VI.inc_slices;
      c.cycles <- c.cycles + i.VI.inc_cycles;
      c.inc_barrier_execs <- c.inc_barrier_execs + i.VI.inc_barrier_execs;
      c.swept_words <- c.swept_words + i.VI.inc_swept_words;
      c.overruns <- c.overruns + i.VI.inc_overruns;
      c.forced <- c.forced + i.VI.inc_forced;
      c.rescans <- c.rescans + i.VI.inc_rescans;
      c.spills <- c.spills + i.VI.inc_spills;
      c.max_slice_ns <- max c.max_slice_ns i.VI.inc_max_slice_ns
  | None -> ()

(** Pause samples in microseconds. One pause is one call of the installed
    collector, or one incremental slice. *)
type pauses = {
  mutable all : float list;
  mutable minor : float list;
  mutable major : float list;
  mutable slice : float list;
  mutable free_list : int list; (* free-list length at slice ends (traced) *)
  mutable rep_s : float; (* pause time in the current repetition *)
  mutable rep_collector_s : float; (* ... of it in collector calls *)
}

let new_pauses () =
  { all = []; minor = []; major = []; slice = []; free_list = []; rep_s = 0.0; rep_collector_s = 0.0 }

let us_of t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e3

(* The host factor (see {!Host}) of the current repetition, 1 in traced
   runs, and every factor measured in this run. End-to-end timings are
   recorded multiplied by it. *)
let scale = ref 1.0
let factors = ref []

(* Peak resident set (MiB) at the end of the first repetition: set-up and
   one run, as one invocation of the compiler and VM sees it. Later
   repetitions add only the benchmark's own sample lists and the OCaml
   heap's fragmentation, which grow with the run's length. *)
let first_rep_rss_mb = ref 0.0

let fulls (g : VI.gc_stats) = g.VI.collections - g.VI.minor_collections

(** Wrap the installed [collector] closure with two clock reads. A call is
    a minor pause only if a minor ran and no full collection did: the
    nursery can follow a minor with an emergency full collection in the
    same call. *)
let hook_collector sp pz (st : VI.t) =
  match st.VI.collector with
  | None -> ()
  | Some collect ->
      st.VI.collector <-
        Some
          (fun st ~needed ->
            let g = st.VI.gc in
            let minors0 = g.VI.minor_collections and fulls0 = fulls g in
            let t0 = Clock.now_ns () in
            collect st ~needed;
            let t1 = Clock.now_ns () in
            let us = us_of t0 t1 *. !scale in
            let minor = g.VI.minor_collections > minors0 && fulls g = fulls0 in
            pz.all <- us :: pz.all;
            if minor then pz.minor <- us :: pz.minor else pz.major <- us :: pz.major;
            pz.rep_s <- pz.rep_s +. (us /. 1e6);
            pz.rep_collector_s <- pz.rep_collector_s +. (us /. 1e6);
            Span.add sp
              (if minor then "gc.minor" else if st.VI.inc <> None then "inc.forced" else "gc.full")
              ~t0 ~t1)

(** Wrap the incremental slice poll. It runs at every gc-point, so the
    clock read it adds is paid often: repetitions that give [run_s] never
    carry this wrapper. *)
let hook_poll sp pz (st : VI.t) =
  match (st.VI.inc, st.VI.inc_slice) with
  | Some inc, Some poll ->
      st.VI.inc_slice <-
        Some
          (fun st ->
            let s0 = inc.VI.inc_slices in
            let t0 = Clock.now_ns () in
            poll st;
            if inc.VI.inc_slices <> s0 then begin
              let t1 = Clock.now_ns () in
              let us = us_of t0 t1 *. !scale in
              pz.all <- us :: pz.all;
              pz.slice <- us :: pz.slice;
              pz.rep_s <- pz.rep_s +. (us /. 1e6);
              Span.add sp "inc.slice" ~t0 ~t1;
              if sp.Span.enabled then pz.free_list <- List.length st.VI.free_list :: pz.free_list
            end)
  | _ -> ()

(* --- correctness ------------------------------------------------------- *)

type check = { mutable attempted : int; mutable failed : int; mutable failures : string list }

let new_check () = { attempted = 0; failed = 0; failures = [] }

let clip s = if String.length s > 80 then String.sub s 0 77 ^ "..." else s

let fail ck name reason =
  ck.failed <- ck.failed + 1;
  let line = name ^ ": " ^ reason in
  if List.length ck.failures < 20 && not (List.mem line ck.failures) then
    ck.failures <- line :: ck.failures

(** Run a machine under the threaded engine; typed errors are results. *)
let run_vm sp (st : VI.t) =
  Span.with_ sp "vm.run" (fun () ->
      let t0 = Clock.now_ns () in
      let r =
        match Vm.Threaded.run st with
        | () -> Ok ()
        | exception Vm.Vm_error.Error e -> Error (Vm.Vm_error.to_string e)
        | exception VI.Guest_error msg -> Error ("guest trap: " ^ msg)
      in
      (r, Clock.seconds_since t0))

let check_output ck ~name ~expected (st : VI.t) r =
  ck.attempted <- ck.attempted + 1;
  match r with
  | Error msg -> fail ck name msg
  | Ok () ->
      let got = VI.output st in
      if got <> expected then
        fail ck name (Printf.sprintf "output %S, expected %S" (clip got) (clip expected))

(* --- traced-run accumulators -------------------------------------------- *)

type traced = {
  mutable compiles : int; (* traced compiles of the workload's programs *)
  mutable instrs_lowered : int;
  mutable instrs_optimized : int;
  mutable gcpoints : int;
  mutable barriers : int;
  mutable elided : int;
  mutable proc_code : int;
  mutable config_bytes : (string * int) list;
  mutable run_traced : float list;
  mutable run_untraced : float list;
  mutable mutator : float list;
  mutable collector_s : float list;
  mutable last : counts;
}

let new_traced () =
  {
    compiles = 0; instrs_lowered = 0; instrs_optimized = 0; gcpoints = 0; barriers = 0;
    elided = 0; proc_code = 0; config_bytes = []; run_traced = []; run_untraced = [];
    mutator = []; collector_s = []; last = zero_counts ();
  }

(** Per-image static facts the traced run records once per compile. *)
let note_image tr sp (c : Layers.compiled) =
  let img = c.Layers.image in
  let t = Span.with_ sp "bench.tables" (fun () -> Layers.analyze_tables sp img) in
  tr.instrs_lowered <- tr.instrs_lowered + c.Layers.instrs_lowered;
  tr.instrs_optimized <- tr.instrs_optimized + c.Layers.instrs_optimized;
  tr.gcpoints <- tr.gcpoints + t.Layers.gcpoints;
  tr.barriers <- tr.barriers + img.Vm.Image.barriers;
  tr.elided <- tr.elided + img.Vm.Image.barriers_elided;
  tr.proc_code <- tr.proc_code + Layers.proc_code_bytes img;
  tr.config_bytes <-
    List.map
      (fun (k, v) -> (k, v + Option.value ~default:0 (List.assoc_opt k tr.config_bytes)))
      t.Layers.config_bytes

(* --- the measured phase -------------------------------------------------- *)

(** Repeat [rep] until [seconds] have passed and at least [min_reps] ran. *)
let repeat ~seconds ~min_reps rep =
  let t0 = Clock.now_ns () in
  let i = ref 0 in
  while !i < min_reps || Clock.seconds_since t0 < seconds do
    rep !i;
    incr i
  done;
  !i

(* --- metrics ------------------------------------------------------------- *)

let m name unit_ value = { name; unit_; value }

let tail_of name pz_all p =
  let a = Stats.sorted pz_all in
  let n = Array.length a in
  ( Stats.percentile a p,
    Printf.sprintf "%s: %d pauses; tail = p%g with %d samples beyond it%s" name n (100.0 *. p)
      (Stats.beyond n p)
      (if Stats.beyond n p < 10 then " (FEWER THAN 10: run longer)" else "") )

(** The per-layer metrics, in the order BENCHMARK.json lists them. *)
let layer_metrics ~workload ~(tr : traced) ~(pz : pauses) ~(sp : Span.t) ~selfs ~remainder_pct =
  let self name = match Hashtbl.find_opt selfs name with Some (t, _) -> t | None -> 0.0 in
  let per_compile name = self name /. float_of_int (max 1 tr.compiles) in
  let per n = float_of_int n /. float_of_int (max 1 tr.compiles) in
  let c = tr.last in
  let run_u = Stats.median tr.run_untraced and run_t = Stats.median tr.run_traced in
  let slice_tail, _ = tail_of "slices" pz.slice (tail_p workload) in
  let decode_us =
    if tr.gcpoints = 0 then 0.0 else 1e6 *. Span.total sp "gcmaps.decode" /. float_of_int tr.gcpoints
  in
  let compile_total = Span.total sp "bench.compile" in
  [
    m "m3l.check_s" "s" (per_compile "m3l.check");
    m "mir.lower_s" "s" (per_compile "mir.lower");
    m "opt.pipeline_s" "s" (per_compile "opt.pipeline");
    m "opt.loop_gcpoints_s" "s" (per_compile "opt.loop_gcpoints");
    m "opt.barrier_elim_s" "s" (per_compile "opt.barrier_elim");
    m "vm.image_build_s" "s" (per_compile "vm.image_build");
    m "vm.image_build_pct" "%" (Stats.pct (Span.total sp "vm.image_build") compile_total);
    m "gcmaps.encode_s" "s" (per_compile "gcmaps.encode");
    m "gcmaps.validate_s" "s" (per_compile "gcmaps.validate");
    m "vm.translate_s" "s" (per_compile "vm.translate");
    m "mir.instrs_lowered" "count" (per tr.instrs_lowered);
    m "mir.instrs_optimized" "count" (per tr.instrs_optimized);
    m "gcmaps.gcpoints" "count" (per tr.gcpoints);
    m "opt.barriers_elided_pct" "%"
      (Stats.pct (float_of_int tr.elided) (float_of_int (tr.barriers + tr.elided)));
  ]
  @ List.map
      (fun (k, bytes) ->
        m
          ("gcmaps.table_pct." ^ String.map (fun ch -> if ch = '/' then '-' else ch) k)
          "%"
          (Stats.pct (float_of_int bytes) (float_of_int tr.proc_code)))
      (List.rev tr.config_bytes)
  @ [
      m "gcmaps.decode_us_per_gcpoint" "us" decode_us;
      m "vm.icount" "count" (float_of_int c.icount);
      m "vm.mutator_s" "s" (Stats.median tr.mutator);
      m "vm.mips" "Minsn/s" (if run_u > 0.0 then float_of_int c.icount /. run_u /. 1e6 else 0.0);
      m "vm.allocs" "count" (float_of_int c.allocs);
      m "vm.alloc_words" "count" (float_of_int c.alloc_words);
      m "gc.collections" "count" (float_of_int c.collections);
      m "gc.pause_s" "s" (Stats.median tr.collector_s);
      m "gc.run_pct" "%" (Stats.pct (Stats.median tr.collector_s) run_t);
      m "gc.trace_s" "s" (float_of_int c.trace_ns /. 1e9);
      m "gc.copy_s" "s" (float_of_int c.copy_ns /. 1e9);
      m "gc.frames_traced" "count" (float_of_int c.frames);
      m "gc.us_per_frame" "us"
        (if c.frames = 0 then 0.0 else float_of_int c.trace_ns /. 1e3 /. float_of_int c.frames);
      m "gc.words_copied" "count" (float_of_int c.words_copied);
      m "gc.survival_pct" "%" (Stats.pct (float_of_int c.words_copied) (float_of_int c.alloc_words));
      m "nursery.minor_collections" "count" (float_of_int c.minors);
      m "nursery.minor_pause_p50_us" "us" (Stats.median pz.minor);
      m "nursery.major_pause_p50_us" "us" (if c.minors = 0 then 0.0 else Stats.median pz.major);
      m "nursery.barrier_execs" "count" (float_of_int c.barrier_execs);
      m "nursery.remset_inserts" "count" (float_of_int c.remset_inserts);
      m "inc.slices" "count" (float_of_int c.slices);
      m "inc.cycles" "count" (float_of_int c.cycles);
      m "inc.barrier_execs" "count" (float_of_int c.inc_barrier_execs);
      m "inc.swept_words" "count" (float_of_int c.swept_words);
      m "inc.slice_p50_us" "us" (Stats.median pz.slice);
      m "inc.slice_tail_us" "us" slice_tail;
      m "inc.max_slice_us" "us" (float_of_int c.max_slice_ns /. 1e3);
      m "inc.overrun_pct" "%" (Stats.pct (float_of_int c.overruns) (float_of_int c.slices));
      m "inc.forced" "count" (float_of_int c.forced);
      m "inc.rescans" "count" (float_of_int c.rescans);
      m "inc.spills" "count" (float_of_int c.spills);
      m "inc.free_list_len" "count" (Stats.mean (List.map float_of_int pz.free_list));
      m "bench.trace_overhead_pct" "%" (if run_u > 0.0 then 100.0 *. ((run_t /. run_u) -. 1.0) else 0.0);
      m "bench.remainder_pct" "%" remainder_pct;
    ]

(* The most of a traced run the benchmark's own glue (bench.* spans other
   than the untraced repetitions) may take. More would mean a layer call
   runs outside any layer span and its time is misattributed. *)
let remainder_ceiling_pct = 10.0

(** The time tree of a traced run: self time per span name. Layer self
    times, the untraced repetitions and the benchmark's own glue (the
    remainder) add up to the root span when every span lies inside its
    parent and no self time is negative. Returns the lines to print, the
    remainder's share of the total, and what is wrong with the tree. *)
let time_tree sp selfs =
  let total = Span.total sp "bench.run" in
  let rows = Hashtbl.fold (fun k (t, n) acc -> (k, t, n) :: acc) selfs [] in
  let rows = List.sort (fun (_, a, _) (_, b, _) -> compare b a) rows in
  let is_glue k = String.length k > 6 && String.sub k 0 6 = "bench." && k <> "bench.untraced" in
  let remainder = List.fold_left (fun a (k, t, _) -> if is_glue k then a +. t else a) 0.0 rows in
  let remainder_pct = Stats.pct remainder total in
  let problems =
    Span.check sp
    @
    if remainder_pct > remainder_ceiling_pct then
      [ Printf.sprintf "remainder %.2f%% of the traced run exceeds %.0f%%" remainder_pct remainder_ceiling_pct ]
    else []
  in
  let lines =
    List.filter_map
      (fun (k, t, n) ->
        if is_glue k then None
        else Some (Printf.sprintf "  %-22s %9.4f s self  %6.2f%%  (%d spans)" k t (Stats.pct t total) n))
      rows
    @ [
        Printf.sprintf "  %-22s %9.4f s self  %6.2f%%" "remainder (bench glue)" remainder remainder_pct;
        Printf.sprintf "  %-22s %9.4f s  (spans nested, self times >= 0, remainder <= %.0f%%: %s)" "total"
          total remainder_ceiling_pct
          (if problems = [] then "yes" else "NO");
      ]
  in
  (lines, remainder_pct, problems)

(* --- workloads ------------------------------------------------------------- *)

type env = {
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  trace_file : string option; (* Chrome trace of a traced run *)
}

(** Samples of the untraced repetitions. Every repetition sets up afresh,
    so set-up and compile times are medians over the whole measured phase
    too, not over a burst at its start. *)
type samples = {
  mutable setup_s : float list;
  mutable compile_s : float list;
  mutable run_s : float list;
  mutable exact : (string * string) list; (* from the first repetition *)
}

let exact_values ~code_bytes ~table_bytes ~proc_code (c : counts) =
  [
    ("code_bytes", string_of_int code_bytes);
    ("table_pct_code", Printf.sprintf "%.6f" (Stats.pct (float_of_int table_bytes) (float_of_int proc_code)));
    ("vm.icount", string_of_int c.icount);
    ("gc.collections", string_of_int c.collections);
    ("gc.words_copied", string_of_int c.words_copied);
  ]

(** The measured phase. An untraced run measures the host before each
    repetition. In a traced run even repetitions run untraced (so the run
    can state its own overhead) and odd ones are traced; its times are wall
    times. *)
let measure e sp rep =
  Span.with_ sp "bench.measure" (fun () ->
      repeat ~seconds:e.seconds ~min_reps (fun i ->
          if not e.trace then begin
            scale := Host.factor ();
            factors := !scale :: !factors
          end;
          (* Each repetition starts from a settled OCaml heap; the settling
             is its own row in the time tree, not bench glue. *)
          Span.with_ sp "ocaml.full_major" Stdlib.Gc.full_major;
          let traced = e.trace && i mod 2 = 1 in
          if e.trace && not traced then Span.with_ sp "bench.untraced" (fun () -> rep i ~traced Span.off)
          else Span.with_ sp "bench.rep" (fun () -> rep i ~traced sp);
          if i = 0 then first_rep_rss_mb := Clock.peak_rss_mb ()))

let record_run tr (s : samples) ~traced ~run ~counts (pz : pauses) =
  if traced then begin
    tr.run_traced <- run :: tr.run_traced;
    tr.mutator <- (run -. pz.rep_s) :: tr.mutator;
    tr.collector_s <- pz.rep_collector_s :: tr.collector_s;
    tr.last <- counts
  end
  else begin
    s.run_s <- (run *. !scale) :: s.run_s;
    tr.run_untraced <- run :: tr.run_untraced
  end

let e2e_metrics ~workload (s : samples) (pz : pauses) ~code_bytes ~table_bytes ~proc_code =
  let tail, tail_note = tail_of "pauses" pz.all (tail_p workload) in
  ( [
      m "setup_s" "s" (Stats.median s.setup_s);
      m "compile_s" "s" (Stats.median s.compile_s);
      m "code_bytes" "bytes" (float_of_int code_bytes);
      m "table_pct_code" "%" (Stats.pct (float_of_int table_bytes) (float_of_int proc_code));
      m "run_s" "s" (Stats.median s.run_s);
      m "pause_p50_us" "us" (Stats.median pz.all);
      m "pause_tail_us" "us" tail;
    ],
    [
      tail_note;
      (let a = Stats.sorted !factors in
       Printf.sprintf
         "host factor: median %.3f (p25 %.3f, p75 %.3f) over %d repetitions; timings are wall times x factor, in seconds of a host where the reference kernel takes %.0f ms"
         (Stats.median !factors) (Stats.percentile a 0.25) (Stats.percentile a 0.75)
         (Array.length a) (1e3 *. Host.reference_s));
      Printf.sprintf "pause kinds: %d minor, %d full or forced, %d slices" (List.length pz.minor)
        (List.length pz.major) (List.length pz.slice);
    ] )

(* One corpus generation takes about 3 ms, too short to time alone against
   the host's noise: each repetition times a batch and divides. *)
let setup_batch = 16

(** compile: set-up generates the corpus and its reference outputs; each
    repetition compiles the whole corpus, then runs every program once
    under the copying collector. *)
let compile_workload e sp ck pz tr =
  let shape = if e.smoke then Corpus.smoke else Corpus.full in
  let s = { setup_s = []; compile_s = []; run_s = []; exact = [] } in
  let code_bytes = ref 0 and table_bytes = ref 0 and proc_code = ref 0 in
  let rep i ~traced sp =
    let t0 = Clock.now_ns () in
    let corpus =
      Span.with_ sp "corpus.generate" (fun () ->
          for _ = 2 to setup_batch do
            ignore (Sys.opaque_identity (Corpus.make ~seed:e.seed shape))
          done;
          Corpus.make ~seed:e.seed shape)
    in
    let setup = Clock.seconds_since t0 /. float_of_int setup_batch in
    let t1 = Clock.now_ns () in
    let compiled =
      Span.with_ sp "bench.compile" (fun () ->
          List.map
            (fun (p : Corpus.program) ->
              ( p,
                match Layers.compile sp ~heap_words:p.Corpus.heap_words p.Corpus.source with
                | c -> Ok c
                | exception exn -> Error (Printexc.to_string exn) ))
            corpus)
    in
    let compile = Clock.seconds_since t1 in
    let counts = zero_counts () in
    pz.rep_s <- 0.0;
    pz.rep_collector_s <- 0.0;
    let run =
      List.fold_left
        (fun acc ((p : Corpus.program), c) ->
          match c with
          | Error msg ->
              ck.attempted <- ck.attempted + 1;
              fail ck p.Corpus.name ("compile error: " ^ msg);
              acc
          | Ok (c : Layers.compiled) ->
              let img = c.Layers.image in
              if i = 0 then begin
                code_bytes := !code_bytes + img.Vm.Image.code_bytes;
                table_bytes := !table_bytes + Layers.table_bytes img;
                proc_code := !proc_code + Layers.proc_code_bytes img
              end;
              if traced then note_image tr sp c;
              ignore (Span.with_ sp "vm.translate" (fun () -> Vm.Threaded.engine_for img));
              let st =
                Span.with_ sp "vm.create" (fun () ->
                    let st = VI.create img in
                    Gc.Cheney.install st;
                    st)
              in
              hook_collector sp pz st;
              let r, dt = run_vm sp st in
              check_output ck ~name:p.Corpus.name ~expected:p.Corpus.expected st r;
              add_counts counts st;
              acc +. dt)
        0.0 compiled
    in
    if traced then tr.compiles <- tr.compiles + 1
    else begin
      s.setup_s <- (setup *. !scale) :: s.setup_s;
      s.compile_s <- (compile *. !scale) :: s.compile_s
    end;
    record_run tr s ~traced ~run ~counts pz;
    if i = 0 then
      s.exact <- exact_values ~code_bytes:!code_bytes ~table_bytes:!table_bytes ~proc_code:!proc_code counts
  in
  let reps = measure e sp rep in
  let notes =
    [
      Printf.sprintf
        "corpus: 6 paper programs + %d generated procedures (lengths %d..%d, Pareto alpha %.2f, %.0f%% gc-points) in modules of %d; -O, loop gc-points, barrier elimination, delta/pp tables; copying collector"
        shape.Corpus.procs shape.Corpus.min_len shape.Corpus.max_len shape.Corpus.alpha
        (100.0 *. shape.Corpus.gc_share) shape.Corpus.per_module;
      Printf.sprintf "repetitions: %d (generate, compile and run the whole corpus each)" reps;
    ]
  in
  let e2e () =
    e2e_metrics ~workload:"compile" s pz ~code_bytes:!code_bytes ~table_bytes:!table_bytes
      ~proc_code:!proc_code
  in
  (notes, e2e, s.exact)

(** destroy-gen and destroy-inc: set-up is source -> validated image ->
    threaded translation -> machine -> collector installed, redone for each
    repetition; the repetition then runs the program once. *)
let destroy_workload ~incremental e sp ck pz tr =
  let d = if incremental then destroy_inc else destroy_gen in
  let d = if e.smoke then smoke d else d in
  let source =
    Corpus.destroy_source ~lcg_seed:(Corpus.lcg_seed_of e.seed)
      (Programs.Destroy_src.make_ballast ~ballast:d.ballast ~branch:d.branch ~depth:d.depth
         ~replace_depth:d.replace_depth ~iterations:d.iterations)
  in
  let expected =
    Refs.destroy ~branch:d.branch ~depth:d.depth ~replace_depth:d.replace_depth
      ~iterations:d.iterations
  in
  let s = { setup_s = []; compile_s = []; run_s = []; exact = [] } in
  let image0 = ref None in
  let rep i ~traced sp =
    let t0 = Clock.now_ns () in
    let c = Span.with_ sp "bench.compile" (fun () -> Layers.compile sp ~heap_words:d.heap_words source) in
    let compile = Clock.seconds_since t0 in
    let img = c.Layers.image in
    ignore (Span.with_ sp "vm.translate" (fun () -> Vm.Threaded.engine_for img));
    let st =
      Span.with_ sp "vm.create" (fun () ->
          let st = VI.create img in
          if incremental then ignore (Gc.Incremental.install ~pause_budget_us:d.budget_us st)
          else Gc.Nursery.install ~nursery_words:d.nursery_words st;
          st)
    in
    let setup = Clock.seconds_since t0 in
    if traced then begin
      tr.compiles <- tr.compiles + 1;
      note_image tr sp c
    end
    else begin
      s.setup_s <- (setup *. !scale) :: s.setup_s;
      s.compile_s <- (compile *. !scale) :: s.compile_s
    end;
    if i = 0 then image0 := Some img;
    (* Incremental: only odd repetitions wrap the slice poll; they give the
       pauses and never run_s. A traced run traces exactly those. *)
    let pause_rep = if incremental then i mod 2 = 1 else e.trace = traced in
    let pz' = if pause_rep then pz else new_pauses () in
    pz'.rep_s <- 0.0;
    pz'.rep_collector_s <- 0.0;
    if pause_rep || not incremental then hook_collector sp pz' st;
    if incremental && pause_rep then hook_poll sp pz' st;
    let r, run = run_vm sp st in
    check_output ck ~name:"destroy" ~expected st r;
    let counts = zero_counts () in
    add_counts counts st;
    if traced || not (incremental && pause_rep) then record_run tr s ~traced ~run ~counts pz';
    if i = 0 then
      s.exact <-
        exact_values ~code_bytes:img.Vm.Image.code_bytes ~table_bytes:(Layers.table_bytes img)
          ~proc_code:(Layers.proc_code_bytes img) counts
  in
  let reps = measure e sp rep in
  let notes =
    [
      Printf.sprintf
        "destroy: branch %d depth %d replace_depth %d iterations %d, ballast %d cells; semispace %d words; %s"
        d.branch d.depth d.replace_depth d.iterations d.ballast d.heap_words
        (if incremental then Printf.sprintf "incremental collector, pause budget %d us" d.budget_us
         else Printf.sprintf "generational collector, nursery %d words" d.nursery_words);
      Printf.sprintf "repetitions: %d (set up and run each)%s" reps
        (if incremental then "; even ones give run_s, odd ones wrap the slice poll and give the pauses"
         else "");
    ]
  in
  let e2e () =
    let img = Option.get !image0 in
    e2e_metrics ~workload:(if incremental then "destroy-inc" else "destroy-gen") s pz
      ~code_bytes:img.Vm.Image.code_bytes ~table_bytes:(Layers.table_bytes img)
      ~proc_code:(Layers.proc_code_bytes img)
  in
  (notes, e2e, s.exact)

(** Run one workload. *)
let run ~workload e =
  let ck = new_check () and pz = new_pauses () and tr = new_traced () in
  scale := 1.0;
  factors := [];
  first_rep_rss_mb := 0.0;
  let sp = if e.trace then Span.create ~run_id:(Printf.sprintf "%s-seed%d" workload e.seed) else Span.off in
  let body () =
    match workload with
    | "compile" -> compile_workload e sp ck pz tr
    | "destroy-gen" -> destroy_workload ~incremental:false e sp ck pz tr
    | "destroy-inc" -> destroy_workload ~incremental:true e sp ck pz tr
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  let notes, e2e, exact = Span.with_ sp "bench.run" body in
  let metrics, more =
    if e.trace then begin
      let selfs = Span.self_times sp in
      let lines, remainder_pct, problems = time_tree sp selfs in
      List.iter (fail ck "time tree") problems;
      Option.iter (Span.write_chrome sp) e.trace_file;
      ( layer_metrics ~workload ~tr ~pz ~sp ~selfs ~remainder_pct,
        ("time tree (self time per layer over the traced run):" :: lines) )
    end
    else
      let ms, lines = e2e () in
      (ms @ [ m "peak_rss_mb" "MB" !first_rep_rss_mb ], lines)
  in
  {
    attempted = ck.attempted;
    failed = ck.failed;
    failures = List.rev ck.failures;
    metrics;
    notes = notes @ more;
    exact;
  }
