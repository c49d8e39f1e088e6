(* Determinism self-check: every workload, run twice at smoke scale with
   one seed, must give output equal to its reference and repeat its
   deterministic counts exactly. *)

open Perfbench

let env ~trace = { Workload.seed = 7; seconds = 0.0; trace; smoke = true; trace_file = None }

(* Under a wall-clock pause budget the incremental collector's slice
   boundaries depend on timing, so its counts are reported, not compared. *)
let exempt workload key = workload = "destroy-inc" && key = "gc.collections"

let twice workload () =
  let a = Workload.run ~workload (env ~trace:false) in
  let b = Workload.run ~workload (env ~trace:false) in
  List.iter
    (fun (o : Workload.outcome) ->
      Alcotest.(check (list string)) "no failures" [] o.Workload.failures;
      Alcotest.(check bool) "programs ran" true (o.Workload.attempted > 0))
    [ a; b ];
  List.iter2
    (fun (k, va) (k', vb) ->
      Alcotest.(check string) "same key" k k';
      if exempt workload k then Printf.printf "%s %s: %s vs %s (exempt)\n" workload k va vb
      else Alcotest.(check string) (workload ^ " " ^ k) va vb)
    a.Workload.exact b.Workload.exact

(* A traced smoke run's failures include every problem the time tree has. *)
let traced workload () =
  let o = Workload.run ~workload (env ~trace:true) in
  Alcotest.(check (list string)) "no failures" [] o.Workload.failures

(* The time-tree check must catch a child outside its parent and
   overlapping children, and pass a sound tree. *)
let span_check () =
  let tree spans = { Span.run_id = "t"; enabled = true; spans; stack = []; next_id = 0 } in
  let sp id parent t0 t1 = { Span.id; name = "s"; parent; t0 = Int64.of_int t0; t1 = Int64.of_int t1 } in
  let root = sp 0 (-1) 0 100 in
  let problems spans = List.length (Span.check (tree spans)) in
  Alcotest.(check int) "sound" 0 (problems [ sp 2 0 50 90; sp 1 0 10 40; root ]);
  Alcotest.(check int) "outside parent" 1 (problems [ sp 1 0 50 120; root ]);
  Alcotest.(check int) "overlapping children" 1 (problems [ sp 2 0 30 90; sp 1 0 10 60; root ]);
  Alcotest.(check int) "missing parent" 1 (problems [ sp 1 7 10 20; root ])

(* Layers.compile calls the driver's -O pipeline pass by pass; it must
   build the same image as Driver.Compile.compile with loop gc-points. *)
let same_pipeline () =
  let options =
    { Driver.Compile.default_options with optimize = true; loop_gcpoints = true; heap_words = 60000 }
  in
  let d = Workload.smoke Workload.destroy_gen in
  let destroy =
    Corpus.destroy_source ~lcg_seed:(Corpus.lcg_seed_of 7)
      (Programs.Destroy_src.make_ballast ~ballast:d.ballast ~branch:d.branch ~depth:d.depth
         ~replace_depth:d.replace_depth ~iterations:d.iterations)
  in
  let sources = destroy :: List.map (fun (p : Corpus.program) -> p.Corpus.source) (Corpus.make ~seed:7 Corpus.smoke) in
  List.iteri
    (fun i source ->
      let a = (Layers.compile Span.off ~heap_words:60000 source).Layers.image in
      let b = Driver.Compile.compile ~options source in
      let what = Printf.sprintf "program %d " i in
      Alcotest.(check int) (what ^ "code_bytes") b.Vm.Image.code_bytes a.Vm.Image.code_bytes;
      Alcotest.(check int) (what ^ "table bytes") (Layers.table_bytes b) (Layers.table_bytes a);
      Alcotest.(check int) (what ^ "proc code bytes") (Layers.proc_code_bytes b) (Layers.proc_code_bytes a))
    sources

let () =
  Alcotest.run "perfbench"
    [
      ("determinism", List.map (fun w -> Alcotest.test_case w `Quick (twice w)) Workload.names);
      ("traced", List.map (fun w -> Alcotest.test_case w `Quick (traced w)) Workload.names);
      ( "checks",
        [
          Alcotest.test_case "span tree check" `Quick span_check;
          Alcotest.test_case "same pipeline as the driver" `Quick same_pipeline;
        ] );
    ]
