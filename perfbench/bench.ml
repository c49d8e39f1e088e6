(* The benchmark's command line: one workload, one seed, one run.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--trace-file PATH]

   Human-readable lines first (configuration, notes, every metric by name
   with its unit, fail_pct); the last line of standard output is one JSON
   object {"correct", "attempted", "failed", "metrics"}. *)

let usage =
  "bench.exe --workload (compile|destroy-gen|destroy-inc) --seed N --seconds S --trace 0|1 \
   [--trace-file PATH]"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s); exit 2) fmt

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let trace_file = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N input seed");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S length of the measured phase");
      ("--trace", Arg.Int (fun t -> trace := Some t), "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--trace-file", Arg.String (fun p -> trace_file := Some p), "PATH Chrome trace of a traced run");
    ]
    (fun a -> die "unexpected argument %s\n%s" a usage)
    usage;
  (* Driver.Compile and the collectors read MM_* switches (MM_GEN,
     MM_GC_INCREMENTAL, MM_THREADED, MM_POLICY, MM_HEAP_GROW, ...); any of
     them would silently change the workload. *)
  let mm =
    List.filter
      (fun kv -> String.length kv >= 3 && String.sub kv 0 3 = "MM_")
      (Array.to_list (Unix.environment ()))
  in
  if mm <> [] then die "refusing to run with MM_* variables set: %s" (String.concat " " mm);
  if not (List.mem !workload Perfbench.Workload.names) then die "unknown workload %S\n%s" !workload usage;
  let seed = match !seed with Some s -> s | None -> die "--seed is required" in
  let seconds = match !seconds with Some s when s >= 0.0 -> s | _ -> die "--seconds is required" in
  let trace =
    match !trace with Some 0 -> false | Some 1 -> true | _ -> die "--trace must be 0 or 1"
  in
  if not (Vm.Threaded.enabled ()) then die "the threaded engine is disabled";
  Printf.printf
    "config: workload=%s seed=%d seconds=%g trace=%d nproc=%d engine=threaded gc_workers=1 ocaml=%s clock=monotonic granularity=%Ldns\n%!"
    !workload seed seconds (Bool.to_int trace) (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Lazy.force Perfbench.Clock.granularity_ns);
  let o =
    Perfbench.Workload.run ~workload:!workload
      { Perfbench.Workload.seed; seconds; trace; smoke = false; trace_file = !trace_file }
  in
  let open Perfbench.Workload in
  List.iter (fun l -> Printf.printf "%s\n" l) o.notes;
  List.iter (fun l -> Printf.printf "FAILED %s\n" l) o.failures;
  List.iter (fun x -> Printf.printf "%-32s %14.6f %s\n" x.name x.value x.unit_) o.metrics;
  Printf.printf "%-32s %14.6f %s  (%d of %d programs)\n" "fail_pct"
    (Perfbench.Stats.pct (float_of_int o.failed) (float_of_int o.attempted))
    "%" o.failed o.attempted;
  Option.iter (Printf.printf "trace written to %s\n") !trace_file;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (o.failed = 0 && o.attempted > 0)
    o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (num x.value) x.unit_)
          o.metrics))
