(** The compiler's layers, called one by one through their public entry
    points, each inside a span: the pipeline [Driver.Compile] runs at -O
    with loop gc-points, barrier elimination and δ-main packed tables
    ("delta/pp", the paper's smallest configuration). *)

type compiled = {
  image : Vm.Image.t;
  instrs_lowered : int; (* MIR instructions after lowering (traced runs only) *)
  instrs_optimized : int; (* ... after the optimizer passes (traced runs only) *)
}

let scheme = Gcmaps.Encode.Delta_main
let table_opts = { Gcmaps.Encode.packing = true; previous = true }

let mir_instrs (p : Mir.Ir.program) =
  Array.fold_left
    (fun a (f : Mir.Ir.func) ->
      Array.fold_left (fun a (b : Mir.Ir.block) -> a + List.length b.Mir.Ir.instrs) a f.Mir.Ir.blocks)
    0 p.Mir.Ir.funcs

(** Source to validated image. [Vm.Image.build] covers instruction
    selection, register allocation, frames, table encoding and the load-time
    table validation. *)
let compile sp ~heap_words source =
  let tast = Span.with_ sp "m3l.check" (fun () -> M3l.Typecheck.check_source source) in
  let prog = Span.with_ sp "mir.lower" (fun () -> Mir.Lower.program ~checks:true tast) in
  let instrs_lowered = if sp.Span.enabled then mir_instrs prog else 0 in
  Span.with_ sp "opt.pipeline" (fun () -> Opt.Pipeline.optimize prog);
  ignore (Span.with_ sp "opt.loop_gcpoints" (fun () -> Opt.Loop_gcpoints.run prog));
  Span.with_ sp "opt.barrier_elim" (fun () -> Opt.Barrier_elim.run prog);
  let instrs_optimized = if sp.Span.enabled then mir_instrs prog else 0 in
  let opts =
    {
      Vm.Image.heap_words;
      stack_words = 16384;
      select = Codegen.Select.default_options;
      scheme;
      table_opts;
    }
  in
  let image = Span.with_ sp "vm.image_build" (fun () -> Vm.Image.build ~opts prog) in
  { image; instrs_lowered; instrs_optimized }

let table_bytes (img : Vm.Image.t) = Gcmaps.Encode.total_table_bytes img.Vm.Image.tables

(** Code bytes as the paper's tables count them: the procedures' own code. *)
let proc_code_bytes (img : Vm.Image.t) =
  Array.fold_left (fun a pm -> a + pm.Gcmaps.Rawmaps.pm_code_bytes) 0 img.Vm.Image.rawmaps

(** What the traced run learns about one image's tables, by re-running the
    gcmaps layer on the image's raw maps. *)
type tables = {
  gcpoints : int;
  config_bytes : (string * int) list; (* Table 2 configurations *)
}

let analyze_tables sp (img : Vm.Image.t) =
  let raw = img.Vm.Image.rawmaps and t = img.Vm.Image.tables in
  ignore
    (Span.with_ sp "gcmaps.encode" (fun () ->
         Gcmaps.Encode.encode_program scheme table_opts raw t.Gcmaps.Encode.code_starts));
  Span.with_ sp "gcmaps.validate" (fun () -> Gcmaps.Decode.validate_tables ~against:raw t);
  let gcpoints =
    Span.with_ sp "gcmaps.decode" (fun () ->
        Array.fold_left
          (fun a ep -> a + List.length (snd (Gcmaps.Decode.decode_proc scheme table_opts ep)))
          0 t.Gcmaps.Encode.procs)
  in
  let config_bytes = Span.with_ sp "gcmaps.table_stats" (fun () -> Gcmaps.Table_stats.sizes raw) in
  { gcpoints; config_bytes }
