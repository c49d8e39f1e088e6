(** A persistent pool of collector worker domains.

    The parallel copy phase ({!Cheney}) runs many short data-parallel jobs
    per collection — one per phase per round. Spawning domains at that rate
    would dwarf the work, so the pool spawns each worker domain once, on
    first use, and parks it on a condition variable between jobs. A job is
    dispatched by publishing a closure under the pool mutex and bumping a
    generation counter; the calling (mutator) thread participates as worker
    0, so [workers ()] = 1 never touches the pool at all.

    All cross-domain communication is through the pool mutex: the closure
    and its captured state are published before the wake-up broadcast, and
    workers retire through the same mutex before the dispatcher returns —
    so every memory write a worker makes during a job happens-before the
    dispatcher's next read, and the collector needs no atomics beyond the
    work-claiming cursor it manages itself.

    Worker count is a pure runtime switch: [--gc-workers]/[MM_GC_WORKERS],
    default 1 = the exact serial collector. The pool may hold more domains
    than a given job wants (the count can be lowered between collections);
    surplus domains wake, decline the job and retire, so a job dispatched
    for [k] workers is executed by exactly [k]. *)

(* --- configuration ------------------------------------------------- *)

let max_workers = 64

let forced_workers = ref None

(** Set the worker count (clamped to [1, 64]); overrides [MM_GC_WORKERS]. *)
let set_workers n = forced_workers := Some (min max_workers (max 1 n))

(** Collector workers for the next collection: the forced count, else
    [MM_GC_WORKERS], else 1 (serial). *)
let workers () =
  match !forced_workers with
  | Some n -> n
  | None -> (
      match Support.Env.pos_int "MM_GC_WORKERS" with
      | Some n -> min max_workers n
      | None -> 1)

(* Rounds narrower than this many objects are scanned serially even when
   workers > 1: a phase dispatch costs condition-variable wake-ups, which
   only amortize over wide rounds. Tests lower it (MM_GC_PAR_THRESHOLD or
   [set_par_threshold]) to force tiny heaps through the parallel phases. *)
let default_par_threshold = 512
let forced_threshold = ref None
let set_par_threshold n = forced_threshold := Some (max 1 n)

let par_threshold () =
  match !forced_threshold with
  | Some n -> n
  | None -> (
      match Support.Env.pos_int "MM_GC_PAR_THRESHOLD" with
      | Some n -> n
      | None -> default_par_threshold)

(* Per-round watchdog deadline for guarded dispatches. 0 (the default)
   means no deadline: the dispatcher blocks on the condition variable
   exactly as the unguarded path always has. A positive deadline switches
   the retirement wait to a polling loop (OCaml's [Condition] has no timed
   wait), after which a round whose workers have not retired is reported
   as [Timeout] and the caller degrades to the serial collector. *)
let forced_deadline_ms = ref None

(** Set the per-round deadline in milliseconds (0 disables); overrides
    [MM_GC_DEADLINE_MS]. *)
let set_deadline_ms n = forced_deadline_ms := Some (max 0 n)

let deadline_ns () =
  let ms =
    match !forced_deadline_ms with
    | Some n -> n
    | None -> Option.value ~default:0 (Support.Env.pos_int "MM_GC_DEADLINE_MS")
  in
  Int64.of_int (ms * 1_000_000)

(** Test-only fault injection: when set, the collector's parallel phases
    call this for every (phase, round, worker) before doing any work, so
    [lib/fault] can force a raise or a stall inside a chosen round of a
    chosen phase without patching collector code. *)
let fault_hook : (phase:string -> round:int -> worker:int -> unit) option ref =
  ref None

(* --- the pool ------------------------------------------------------ *)

type pool = {
  m : Mutex.t;
  cv_job : Condition.t; (* signalled when a job is published or on quit *)
  cv_done : Condition.t; (* signalled when the last domain retires *)
  mutable job : (int -> unit) option;
  mutable job_limit : int; (* domains with index >= job_limit decline *)
  mutable gen : int; (* job generation, distinguishes consecutive jobs *)
  mutable pending : int; (* domains that have not yet retired this job *)
  mutable failure : exn option; (* first worker exception, re-raised *)
  mutable quit : bool;
  mutable domains : unit Domain.t list;
  mutable spawned : int; (* domains alive; they carry indices 1..spawned *)
}

let pool =
  {
    m = Mutex.create ();
    cv_job = Condition.create ();
    cv_done = Condition.create ();
    job = None;
    job_limit = 0;
    gen = 0;
    pending = 0;
    failure = None;
    quit = false;
    domains = [];
    spawned = 0;
  }

let record_failure e =
  Mutex.lock pool.m;
  if pool.failure = None then pool.failure <- Some e;
  Mutex.unlock pool.m

let worker_body idx =
  let last = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.m;
    while pool.gen = !last && not pool.quit do
      Condition.wait pool.cv_job pool.m
    done;
    if pool.quit then begin
      Mutex.unlock pool.m;
      running := false
    end
    else begin
      last := pool.gen;
      let job = pool.job and limit = pool.job_limit in
      Mutex.unlock pool.m;
      (if idx < limit then
         match job with
         | Some f -> ( try f idx with e -> record_failure e)
         | None -> ());
      Mutex.lock pool.m;
      pool.pending <- pool.pending - 1;
      if pool.pending = 0 then Condition.signal pool.cv_done;
      Mutex.unlock pool.m
    end
  done

(* The monotonic telemetry clock: a wall-clock step must not trip the
   watchdog deadline. *)
let now_ns = Telemetry.Control.now_ns

let shutdown () =
  Mutex.lock pool.m;
  pool.quit <- true;
  Condition.broadcast pool.cv_job;
  let healthy = pool.pending = 0 in
  Mutex.unlock pool.m;
  (* Join only when every worker has retired. A stalled worker (watchdog
     Timeout) would make the join hang forever; leaving its domain to be
     reaped at process exit is the graceful option, and [quit] stays set
     so it exits its loop if it ever finishes. *)
  if healthy then begin
    List.iter Domain.join pool.domains;
    pool.domains <- [];
    pool.spawned <- 0;
    pool.quit <- false
  end

let ensure_spawned extra =
  if pool.spawned < extra then begin
    if pool.spawned = 0 then at_exit shutdown;
    for idx = pool.spawned + 1 to extra do
      pool.domains <- Domain.spawn (fun () -> worker_body idx) :: pool.domains
    done;
    pool.spawned <- extra
  end

(** Outcome of a guarded dispatch. [Fault] carries the first worker
    exception; [Timeout] means a worker missed the round deadline (or a
    worker stalled in an {e earlier} round never retired, in which case
    the pool refuses to dispatch at all). In both non-[Done] cases every
    side effect the job performed is already published or harmless, and
    the caller is expected to redo the round serially. *)
type status = Done | Fault of exn | Timeout

(** Run [f 0 .. f (k-1)] concurrently, [f 0] on the calling thread, and
    report how the round ended. [f] must partition its own work (e.g.
    through an [Atomic] cursor). With [deadline_ns <= 0] the retirement
    wait is the exact blocking wait the unguarded dispatcher always used;
    with a positive deadline the wait polls (brief cpu_relax spin, then
    0.1 ms sleeps) and gives up once the deadline passes, leaving the
    stalled worker un-retired — later dispatches refuse the pool until it
    retires ([quiesce]), so the collector degrades to serial rather than
    blocking. *)
let run_guarded ~workers:k ~deadline_ns (f : int -> unit) : status =
  if k <= 1 then ( try f 0; Done with e -> Fault e)
  else begin
    ensure_spawned (k - 1);
    Mutex.lock pool.m;
    if pool.pending > 0 then begin
      (* A worker from a previous round never retired: the pool is
         poisoned. Refuse the dispatch; the caller stays serial. *)
      Mutex.unlock pool.m;
      Timeout
    end
    else begin
      pool.failure <- None;
      pool.job <- Some f;
      pool.job_limit <- k;
      pool.pending <- pool.spawned;
      pool.gen <- pool.gen + 1;
      Condition.broadcast pool.cv_job;
      Mutex.unlock pool.m;
      let caller_fail = (try f 0; None with e -> Some e) in
      let timed_out =
        if Int64.compare deadline_ns 0L <= 0 then begin
          Mutex.lock pool.m;
          while pool.pending > 0 do
            Condition.wait pool.cv_done pool.m
          done;
          Mutex.unlock pool.m;
          false
        end
        else begin
          let t0 = now_ns () in
          let rec wait spins =
            Mutex.lock pool.m;
            let pending = pool.pending in
            Mutex.unlock pool.m;
            if pending = 0 then false
            else if Int64.compare (Int64.sub (now_ns ()) t0) deadline_ns > 0
            then true
            else begin
              if spins < 1000 then Domain.cpu_relax () else Unix.sleepf 1e-4;
              wait (spins + 1)
            end
          in
          wait 0
        end
      in
      if timed_out then Timeout
      else begin
        Mutex.lock pool.m;
        pool.job <- None;
        let fail = pool.failure in
        pool.failure <- None;
        Mutex.unlock pool.m;
        match (caller_fail, fail) with
        | Some e, _ | None, Some e -> Fault e
        | None, None -> Done
      end
    end
  end

(** Wait (bounded) for every worker of a timed-out round to retire, so the
    pool is healthy again. Tests call this between stall injections; the
    collector itself never waits — it degrades serially instead. *)
let quiesce ~timeout_s =
  let t0 = now_ns () in
  let limit = Int64.of_float (timeout_s *. 1e9) in
  let rec wait () =
    Mutex.lock pool.m;
    let pending = pool.pending in
    if pending = 0 then pool.job <- None;
    Mutex.unlock pool.m;
    if pending = 0 then true
    else if Int64.compare (Int64.sub (now_ns ()) t0) limit > 0 then false
    else begin
      Unix.sleepf 1e-3;
      wait ()
    end
  in
  wait ()

(** The unguarded dispatcher: [run_guarded] with no deadline, re-raising a
    worker exception once every worker has retired. *)
let run ~workers:k (f : int -> unit) =
  match run_guarded ~workers:k ~deadline_ns:0L f with
  | Done -> ()
  | Fault e -> raise e
  | Timeout -> failwith "Gc_pool.run: pool busy (un-retired stalled worker)"
