(** The host's speed, measured next to every repetition.

    On a shared virtual machine the speed of memory-heavy code drifts by up
    to ±30% over tens of seconds to minutes, with the other tenants' load;
    a 40-second run can sit wholly in a slow or a fast stretch. The
    benchmark runs a fixed reference kernel of its own before each
    repetition and reports end-to-end timings scaled by
    [reference_s / kernel time]: seconds on a host where the kernel takes
    [reference_s]. The kernel calls no code of the program under test, so a
    change to the program moves the scaled figures exactly as it moves wall
    time; a drift of the host moves the kernel and the program together and
    cancels. *)

(* A copying collection of a random graph of 3-word objects laid out in an
   int array, the way the VM's heap and its collector work: scattered loads
   and stores over about 1.5 MB, and unpredictable branches. It allocates
   nothing, so it leaves the OCaml heap and the peak resident set alone. *)
let half = 1 lsl 17
let heap = lazy (Array.make (2 * half) 0)
let objects = 30_000

let kernel () =
  let heap = Lazy.force heap in
  let copied = ref 0 in
  for round = 1 to 3 do
    let rng = Random.State.make [| 0x6b65726e; round |] in
    for i = 0 to objects - 1 do
      heap.(3 * i) <- 1;
      heap.((3 * i) + 1) <- 3 * Random.State.int rng objects;
      heap.((3 * i) + 2) <- 3 * Random.State.int rng objects
    done;
    for _ = 1 to 3 do
      (* Copy what object 0 reaches into [half, 2 half); a forwarded
         object's header holds -(new address) - 1. Then move it back. *)
      let free = ref half in
      let forward a =
        if heap.(a) < 0 then -heap.(a) - 1
        else begin
          let b = !free in
          free := b + 3;
          heap.(b) <- heap.(a);
          heap.(b + 1) <- heap.(a + 1);
          heap.(b + 2) <- heap.(a + 2);
          heap.(a) <- -b - 1;
          b
        end
      in
      ignore (forward 0);
      let scan = ref half in
      while !scan < !free do
        heap.(!scan + 1) <- forward heap.(!scan + 1);
        heap.(!scan + 2) <- forward heap.(!scan + 2);
        scan := !scan + 3
      done;
      let n = !free - half in
      copied := !copied + n;
      Array.blit heap half heap 0 n;
      for i = 0 to (n / 3) - 1 do
        heap.((3 * i) + 1) <- heap.((3 * i) + 1) - half;
        heap.((3 * i) + 2) <- heap.((3 * i) + 2) - half
      done
    done
  done;
  !copied

(** The kernel's time on the host the benchmark was tuned on, in a quiet
    stretch (2-vCPU Xeon at 2.0 GHz). *)
let reference_s = 0.008

(** Seconds one run of the kernel takes now. *)
let kernel_s () =
  let t0 = Clock.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  Clock.seconds_since t0

(** How much faster the host is now than the reference: wall times are
    multiplied by this to give reference seconds. *)
let factor () = reference_s /. kernel_s ()
