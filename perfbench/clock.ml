(** The benchmark's one clock: [CLOCK_MONOTONIC] in nanoseconds, the same
    source the collectors' own statistics use. *)

let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(** Smallest positive step seen over a burst of back-to-back reads. *)
let granularity_ns =
  lazy
    (let best = ref Int64.max_int in
     let prev = ref (now_ns ()) in
     for _ = 1 to 2000 do
       let t = now_ns () in
       let d = Int64.sub t !prev in
       if Int64.compare d 0L > 0 && Int64.compare d !best < 0 then best := d;
       prev := t
     done;
     if !best = Int64.max_int then 1L else !best)

(** Peak resident set of this process in MiB ([VmHWM]). *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v
