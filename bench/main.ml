(* Benchmark harness: one Bechamel test per table/figure of the paper.

   Each test measures the wall-clock cost of regenerating that table or
   figure on a reduced workload (one benchmark, small budgets), so the
   harness doubles as a performance-regression suite for the pipeline
   itself.  After the timings, the harness prints every table and figure
   at the quick experiment settings — the same rows/series the paper
   reports.

     dune exec bench/main.exe -- [--json FILE] [--dispatch-json FILE]
                                 [--cachesweep-json FILE] [--no-series]

   --json writes the timings in the stable pc-bench/1 schema (see
   EXPERIMENTS.md) so CI can archive them run over run; --dispatch-json
   distils the two funcsim rows into a pc-dispatch/1 comparison (seed
   interpreter vs threaded engine, retired-instrs/sec) that CI gates at
   >=5x; --cachesweep-json distils the two cache rows into a
   pc-cachesweep/1 comparison (simulated vs one-pass stack-distance
   28-config sweep, with per-config result agreement) that CI gates at
   >=5x and zero mismatches; --no-series skips the table/figure
   regeneration after the timings. *)

open Bechamel
module E = Perfclone.Experiments
module Pool = Pc_exec.Pool

(* Reduced settings so a single sample is millisecond-scale. *)
let bench_settings =
  {
    E.seed = 1;
    profile_instrs = 50_000;
    sim_instrs = 60_000;
    clone_dynamic = 20_000;
    benchmarks = [ "crc32" ];
    sample = None;
    plan_cache = None;
  }

(* Shared pipelines, built once: each test measures only its own
   experiment's incremental cost. *)
let pipelines = lazy (E.prepare bench_settings)

(* Serial-vs-parallel targets for the pc_exec pool: the same four-way
   profile+synthesize fan-out, once on one domain and once on the
   default worker count.  Goes through [Pipeline.clone_program] (not the
   memo store) so every sample pays the full pipeline cost. *)
let parallel_pool = Pool.create ~num_domains:(Pool.default_jobs ())

let fanout_programs =
  lazy
    (List.map
       (fun n -> Pc_workloads.Registry.(compile (find n)))
       [ "crc32"; "sha"; "qsort"; "fft" ])

let clone_fanout pool =
  Pool.map pool
    (fun p ->
      Perfclone.Pipeline.clone_program ~profile_instrs:50_000
        ~target_dynamic:20_000 p)
    (Lazy.force fanout_programs)

(* Sampled-vs-detailed timing pair, bypassing the memo stores so every
   sample pays the full simulation cost: CI compares these two rows to
   verify the wall-clock reduction sampling claims. *)
let sample_budget = 240_000
let sample_interval = 30_000
let sample_program = lazy (Pc_workloads.Registry.(compile (find "crc32")))

let sample_plan =
  lazy
    (Pc_sample.Sample.plan ~seed:1 ~interval:sample_interval
       ~max_instrs:sample_budget
       (Lazy.force sample_program))

(* Dispatch-throughput pair: the retained reference interpreter
   (Machine_ref, the seed engine) vs the pre-decoded threaded engine on
   the same ALU-dominant kernel and budget.  The kernel isolates
   dispatch cost — memory-heavy workloads dilute it behind page-cache
   traffic — and CI holds the ratio of these two rows (archived by
   --dispatch-json) at the >=5x retired-instrs/sec the rewrite claims. *)
let dispatch_budget = 200_000

let dispatch_program =
  lazy
    (let open Pc_isa.Instr in
     let body =
       [|
         Alu (Add, 5, 4, 3); Alu (Xor, 6, 5, 4); Alui (Sll, 7, 6, 7);
         Alu (Or, 8, 7, 5); Alui (Srl, 9, 8, 3); Alu (Sub, 4, 9, 6);
         Alui (Add, 5, 5, 17); Alu (And, 6, 5, 9);
       |]
     in
     let code =
       Array.concat
         [
           [| Li (3, 1_000_000_000L) |];
           body;
           [| Alui (Sub, 3, 3, 1); Br (Ne_z, 3, Abs 1); Halt |];
         ]
     in
     Pc_isa.Program.v ~name:"dispatch-kernel" ~code ~data:[] ~data_bytes:0)

(* Multi-tenant co-run targets: the shared-L2 arbiter engine on a duet
   and a quad mix, machines freshly loaded per sample so every run pays
   the full co-run cost.  Budgets are per tenant. *)
let scenario_budget = 30_000

let scenario_programs names =
  lazy
    (List.map
       (fun n -> (n, Pc_workloads.Registry.(compile (find n))))
       names)

let duet_programs = scenario_programs [ "crc32"; "qsort" ]
let quad_programs = scenario_programs [ "crc32"; "qsort"; "sha"; "dijkstra" ]

let co_run_mix programs =
  let inputs =
    Array.of_list
      (List.map
         (fun (name, p) ->
           {
             Pc_scenario.Scenario.label = name;
             budget = scenario_budget;
             source =
               Pc_scenario.Scenario.From_machine (Pc_funcsim.Machine.load p);
           })
         (Lazy.force programs))
  in
  Pc_scenario.Scenario.co_run Pc_uarch.Config.base inputs

(* Simulated-vs-one-pass cache-sweep pair: the same recorded address
   trace priced over the 28-configuration study grid by the 28 tag-array
   simulations and by the single stack-distance traversal.  The trace is
   recorded once (crc32, the registry's first benchmark) so both rows
   replay identical references; CI holds the ratio of the two rows
   (archived by --cachesweep-json) at the >=5x the one-pass rewrite
   claims, and the same artefact carries the result-agreement fields. *)
let sweep_budget = 200_000

let sweep_trace =
  lazy
    (let buf = ref (Array.make 4096 0) and n = ref 0 in
     let push a =
       if !n = Array.length !buf then begin
         let grown = Array.make (2 * !n) 0 in
         Array.blit !buf 0 grown 0 !n;
         buf := grown
       end;
       !buf.(!n) <- a;
       incr n
     in
     let m = Pc_funcsim.Machine.load (Lazy.force sample_program) in
     let instrs =
       Pc_funcsim.Machine.run ~max_instrs:sweep_budget m (fun ev ->
           if ev.Pc_funcsim.Machine.mem_addr >= 0 then push ev.Pc_funcsim.Machine.mem_addr)
     in
     (Array.sub !buf 0 !n, instrs))

let sweep_feed emit =
  let trace, instrs = Lazy.force sweep_trace in
  Array.iter emit trace;
  instrs

let sweep_ref () = Pc_caches.Study.run_trace sweep_feed
let sweep_onepass () = Pc_caches.Study.run_trace_onepass sweep_feed

let dispatch_ref () =
  let m = Pc_funcsim.Machine_ref.load (Lazy.force dispatch_program) in
  Pc_funcsim.Machine_ref.run ~max_instrs:dispatch_budget m ignore

let dispatch_new () =
  let m = Pc_funcsim.Machine.load (Lazy.force dispatch_program) in
  Pc_funcsim.Machine.run_batched ~max_instrs:dispatch_budget m ignore

let tests =
  [
    Test.make ~name:"table1:benchmark-registry"
      (Staged.stage (fun () -> List.length Pc_workloads.Registry.all));
    Test.make ~name:"table2:base-config"
      (Staged.stage (fun () -> Pc_uarch.Config.with_widths 2 Pc_uarch.Config.base));
    Test.make ~name:"fig3:single-stride-profile"
      (Staged.stage (fun () -> E.fig3 (Lazy.force pipelines)));
    Test.make ~name:"fig4:28-cache-study"
      (Staged.stage (fun () -> E.cache_studies bench_settings (Lazy.force pipelines)));
    Test.make ~name:"fig5:cache-rankings"
      (Staged.stage (fun () ->
           E.rankings_scatter (E.cache_studies bench_settings (Lazy.force pipelines))));
    Test.make ~name:"fig6+7:base-ipc-power"
      (Staged.stage (fun () -> E.base_runs bench_settings (Lazy.force pipelines)));
    Test.make ~name:"table3+fig8+9:design-changes"
      (Staged.stage (fun () -> E.run_design_changes bench_settings (Lazy.force pipelines)));
    Test.make ~name:"ablation:microdep-baseline"
      (Staged.stage (fun () -> E.ablation bench_settings (Lazy.force pipelines)));
    Test.make ~name:"statsim:ipc-estimate"
      (Staged.stage (fun () -> E.statsim_comparison bench_settings (Lazy.force pipelines)));
    Test.make ~name:"portable:kc-clone"
      (Staged.stage (fun () -> E.portable_comparison bench_settings (Lazy.force pipelines)));
    Test.make ~name:"pipeline:profile+synthesize"
      (Staged.stage (fun () ->
           Perfclone.Pipeline.clone_benchmark ~profile_instrs:50_000
             ~target_dynamic:20_000 "crc32"));
    Test.make ~name:"sample:detailed-sim"
      (Staged.stage (fun () ->
           Pc_uarch.Sim.run ~max_instrs:sample_budget Pc_uarch.Config.base
             (Lazy.force sample_program)));
    Test.make ~name:"sample:plan"
      (Staged.stage (fun () ->
           Pc_sample.Sample.plan ~seed:1 ~interval:sample_interval
             ~max_instrs:sample_budget
             (Lazy.force sample_program)));
    Test.make ~name:"sample:projected-sim"
      (Staged.stage (fun () ->
           Pc_sample.Sample.project_sim Pc_uarch.Config.base
             (Lazy.force sample_plan)));
    Test.make ~name:"funcsim:dispatch-ref"
      (Staged.stage dispatch_ref);
    Test.make ~name:"funcsim:dispatch"
      (Staged.stage dispatch_new);
    Test.make ~name:"cache:sweep-ref"
      (Staged.stage sweep_ref);
    Test.make ~name:"cache:sweep-onepass"
      (Staged.stage sweep_onepass);
    Test.make ~name:"fidelity:clone-reprofile"
      (Staged.stage (fun () ->
           let p = List.hd (Lazy.force pipelines) in
           Pc_trace.Fidelity.measure ~max_instrs:50_000
             ~bench:p.Perfclone.Pipeline.name
             ~original:p.Perfclone.Pipeline.profile
             p.Perfclone.Pipeline.clone));
    Test.make ~name:"scenario:duet"
      (Staged.stage (fun () -> co_run_mix duet_programs));
    Test.make ~name:"scenario:quad"
      (Staged.stage (fun () -> co_run_mix quad_programs));
    Test.make ~name:"exec:clone-fanout-serial"
      (Staged.stage (fun () -> clone_fanout Pool.serial));
    Test.make
      ~name:(Printf.sprintf "exec:clone-fanout-j%d" (Pool.num_domains parallel_pool))
      (Staged.stage (fun () -> clone_fanout parallel_pool));
  ]

let run_timings () =
  let cfg = Benchmark.cfg ~limit:30 ~quota:(Time.second 0.5) ~stabilize:false () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  Format.printf "== Bechamel timings (per regeneration, reduced workload) ==@.";
  List.concat_map
    (fun test ->
      List.map
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let est = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
          let name = Test.Elt.name elt in
          match Analyze.OLS.estimates est with
          | Some (t :: _) ->
            Format.printf "  %-34s %12.4f ms/run@." name (t /. 1e6);
            (name, Some (t /. 1e6))
          | Some [] | None ->
            Format.printf "  %-34s (no estimate)@." name;
            (name, None))
        (Test.elements test))
    tests

(* Schema "pc-bench/1" (documented in EXPERIMENTS.md): results in test
   order; [ms_per_run] is null when OLS produced no estimate. *)
let write_json path rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"schema\":\"pc-bench/1\",\"results\":[";
  List.iteri
    (fun i (name, ms) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"name\":\"";
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        name;
      Buffer.add_string b "\",\"ms_per_run\":";
      (match ms with
      | Some v -> Buffer.add_string b (Printf.sprintf "%.6f" v)
      | None -> Buffer.add_string b "null");
      Buffer.add_char b '}')
    rows;
  Buffer.add_string b "]}\n";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents b))

(* Schema "pc-dispatch/1" (documented in EXPERIMENTS.md): the
   interpreter-rewrite comparison distilled from the two funcsim rows of
   the same timing run — retired-instrs/sec for the seed interpreter and
   the threaded engine, and their ratio.  CI archives this file and
   gates [speedup]. *)
let write_dispatch_json path rows =
  let ms name =
    match List.assoc_opt name rows with
    | Some (Some v) when v > 0.0 -> v
    | _ ->
      Printf.eprintf "bench: no timing estimate for %s\n" name;
      exit 2
  in
  let ref_ms = ms "funcsim:dispatch-ref" and new_ms = ms "funcsim:dispatch" in
  let ips ms = float_of_int dispatch_budget /. (ms /. 1000.0) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\"schema\":\"pc-dispatch/1\",\"program\":\"dispatch-kernel\",\
         \"budget\":%d,\"ref_ms_per_run\":%.6f,\"new_ms_per_run\":%.6f,\
         \"ref_instrs_per_sec\":%.0f,\"new_instrs_per_sec\":%.0f,\
         \"speedup\":%.3f}\n"
        dispatch_budget ref_ms new_ms (ips ref_ms) (ips new_ms)
        (ref_ms /. new_ms))

(* Schema "pc-cachesweep/1" (documented in EXPERIMENTS.md): the one-pass
   cache-sweep comparison distilled from the two cache rows of the same
   timing run, plus result agreement measured directly — both paths are
   run once more over the recorded trace and compared per configuration
   (misses, accesses and mpi must match exactly; [mismatches] counts
   configs that differ and [max_abs_mpi_diff] bounds the drift).  CI
   archives this file and gates [speedup] and [mismatches]. *)
let write_cachesweep_json path rows =
  let ms name =
    match List.assoc_opt name rows with
    | Some (Some v) when v > 0.0 -> v
    | _ ->
      Printf.eprintf "bench: no timing estimate for %s\n" name;
      exit 2
  in
  let ref_ms = ms "cache:sweep-ref" and onepass_ms = ms "cache:sweep-onepass" in
  let refs = Array.length (fst (Lazy.force sweep_trace)) in
  let simulated = sweep_ref () and onepass = sweep_onepass () in
  let mismatches = ref 0 and max_diff = ref 0.0 in
  Array.iteri
    (fun i (s : Pc_caches.Study.result) ->
      let o = onepass.(i) in
      let diff = abs_float (s.Pc_caches.Study.mpi -. o.Pc_caches.Study.mpi) in
      if diff > !max_diff then max_diff := diff;
      if
        s.Pc_caches.Study.misses <> o.Pc_caches.Study.misses
        || s.Pc_caches.Study.accesses <> o.Pc_caches.Study.accesses
        || s.Pc_caches.Study.mpi <> o.Pc_caches.Study.mpi
      then incr mismatches)
    simulated;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\"schema\":\"pc-cachesweep/1\",\"trace\":\"crc32\",\"budget\":%d,\
         \"refs\":%d,\"configs\":%d,\"ref_ms_per_run\":%.6f,\
         \"onepass_ms_per_run\":%.6f,\"speedup\":%.3f,\"mismatches\":%d,\
         \"max_abs_mpi_diff\":%.9f}\n"
        sweep_budget refs
        (Array.length Pc_caches.Study.configs)
        ref_ms onepass_ms (ref_ms /. onepass_ms) !mismatches !max_diff)

let print_series () =
  Format.printf "@.== Paper tables and figures (quick settings) ==@.";
  let s = E.quick_settings in
  let ps = E.prepare s in
  E.pp_fig3 Format.std_formatter (E.fig3 ps);
  let studies = E.cache_studies s ps in
  E.pp_fig4 Format.std_formatter studies;
  E.pp_fig5 Format.std_formatter (E.rankings_scatter studies);
  let runs = E.base_runs s ps in
  E.pp_fig6 Format.std_formatter runs;
  E.pp_fig7 Format.std_formatter runs;
  let changes = E.run_design_changes s ps in
  E.pp_table3 Format.std_formatter changes;
  let width_change = List.nth changes 2 in
  E.pp_fig8 Format.std_formatter width_change;
  E.pp_fig9 Format.std_formatter width_change;
  E.pp_ablation Format.std_formatter (E.ablation s ps);
  E.pp_statsim Format.std_formatter (E.statsim_comparison s ps);
  E.pp_portable Format.std_formatter (E.portable_comparison s ps)

open Cmdliner

let main json dispatch_json cachesweep_json no_series ledger =
  let rows = run_timings () in
  Option.iter (fun path -> write_json path rows) json;
  Option.iter (fun path -> write_dispatch_json path rows) dispatch_json;
  Option.iter (fun path -> write_cachesweep_json path rows) cachesweep_json;
  if not no_series then print_series ();
  (* Metrics stay off here: Bechamel's adaptive run counts would make
     the recorded counters (and so the record id) nondeterministic. *)
  match ledger with
  | None -> ()
  | Some dir ->
    let artifacts =
      List.filter_map
        (fun (schema, path) ->
          Option.map (fun path -> { Pc_report.Ledger.schema; path }) path)
        [
          ("pc-bench/1", json);
          ("pc-dispatch/1", dispatch_json);
          ("pc-cachesweep/1", cachesweep_json);
        ]
    in
    let file =
      Pc_report.Ledger.record (Pc_report.Ledger.create dir) ~tool:"bench"
        ~argv:(Array.to_list Sys.argv) ~seed:bench_settings.E.seed
        ~jobs:(Pool.num_domains parallel_pool) ~artifacts
    in
    Printf.eprintf "bench: ledger: recorded %s\n" file

let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the timings as JSON (schema $(b,pc-bench/1)) to $(docv).")

let dispatch_json_arg =
  Arg.(value & opt (some string) None
       & info [ "dispatch-json" ] ~docv:"FILE"
           ~doc:"Write the interpreter-rewrite comparison (schema \
                 $(b,pc-dispatch/1): seed-interpreter vs threaded-engine \
                 retired-instrs/sec and their ratio) to $(docv).")

let cachesweep_json_arg =
  Arg.(value & opt (some string) None
       & info [ "cachesweep-json" ] ~docv:"FILE"
           ~doc:"Write the one-pass cache-sweep comparison (schema \
                 $(b,pc-cachesweep/1): simulated vs stack-distance sweep \
                 timings, their ratio, and per-config result agreement) \
                 to $(docv).")

let no_series_arg =
  Arg.(value & flag
       & info [ "no-series" ]
           ~doc:"Skip regenerating the paper tables/figures after the timings.")

let ledger_arg =
  Arg.(value
       & opt ~vopt:(Some "") (some string) None
       & info [ "ledger" ] ~docv:"DIR"
           ~doc:"Append a pc-run/1 record of this invocation to the run \
                 ledger under $(docv) (default \
                 \\$XDG_CACHE_HOME/pc-ledger) for later drift diffing \
                 with pc_diff.")

let cmd =
  Cmd.v
    (Cmd.info "bench" ~doc:"benchmark the experiment pipeline")
    Term.(
      const main $ json_arg $ dispatch_json_arg $ cachesweep_json_arg
      $ no_series_arg $ ledger_arg)

let () = exit (Cmd.eval cmd)
