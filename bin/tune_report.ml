(* tune_report: run the closed-loop knob search over a benchmark set
   and report how much tuning buys over the default generator options.

   Usage:
     tune_report [--quick] [--bench NAME]... [--seed N] [-j N]
                 [--budget N] [--stress SPEC] [--per-phase[=N]]
                 [--store[=DIR]] [-o FILE] [--trace FILE] [--ledger DIR]

   Prints one table row per benchmark (stdout): default-knob fitness,
   tuned fitness, gain, and the winning knob vector.  The table is
   byte-identical at every -j and across cold/warm --store runs — CI
   diffs it.  -o writes the same data as pc-tune/1 JSON (which also
   carries the per-generation trajectory and the store hit/miss split),
   the artefact check_baselines gates against baselines/tune.json.

   Benchmarks are tuned serially on purpose: the search fans its
   candidate evaluations out through the pool, and pool batches do not
   nest. *)

module E = Perfclone.Experiments
module Pool = Pc_exec.Pool

let main quick benches seed jobs budget stress per_phase store output trace
    ledger =
  if ledger <> None then Pc_obs.Metrics.set_enabled true;
  (Pc_trace.Chrome.with_trace trace @@ fun () ->
  let pool = Pool.create ~num_domains:jobs in
  let settings =
    let base = if quick then E.quick_settings else E.default_settings in
    {
      base with
      E.seed;
      benchmarks = (if benches = [] then base.E.benchmarks else benches);
    }
  in
  let mode =
    match stress with
    | None -> Pc_tune.Fitness.Mimic Pc_tune.Fitness.default_weights
    | Some spec -> (
      match Pc_tune.Fitness.envelope_of_string spec with
      | Ok env -> Pc_tune.Fitness.Stress env
      | Error msg ->
        Printf.eprintf "tune_report: %s\n" msg;
        exit 1)
  in
  let pipelines = E.prepare ~pool settings in
  let results =
    List.map
      (fun (p : Perfclone.Pipeline.t) ->
        let phases =
          match per_phase with
          | None -> None
          | Some interval ->
            let interval =
              match interval with
              | Some n -> n
              | None ->
                Pc_sample.Sample.auto_interval
                  ~max_instrs:settings.E.profile_instrs
            in
            Some (interval, p.Perfclone.Pipeline.original)
        in
        Pc_tune.Search.run ~pool ?store ~budget ?phases
          ~bench:p.Perfclone.Pipeline.name ~seed
          ~profile_instrs:settings.E.profile_instrs
          ~target_dynamic:settings.E.clone_dynamic ~mode
          p.Perfclone.Pipeline.profile)
      pipelines
  in
  Pc_tune.Report.pp Format.std_formatter results;
  Option.iter
    (fun path ->
      Pc_tune.Report.write_json path ~seed:settings.E.seed
        ~profile_instrs:settings.E.profile_instrs
        ~clone_dynamic:settings.E.clone_dynamic ~mode results)
    output);
  (* Record last, once the trace file exists on disk. *)
  match ledger with
  | None -> ()
  | Some dir ->
    let artifacts =
      List.filter_map
        (fun (schema, path) ->
          Option.map (fun path -> { Pc_report.Ledger.schema; path }) path)
        [ ("pc-tune/1", output); ("pc-trace/1", trace) ]
    in
    ignore
      (Pc_report.Ledger.record (Pc_report.Ledger.create dir)
         ~tool:"tune_report"
         ~argv:(Array.to_list Sys.argv)
         ~seed ~jobs ~artifacts)

open Cmdliner

let quick_arg =
  Arg.(value & flag
       & info [ "quick" ] ~doc:"Quick mode: fewer benchmarks, shorter profiles.")

let bench_arg =
  Arg.(value & opt_all string []
       & info [ "bench"; "b" ] ~docv:"NAME"
           ~doc:"Restrict to the named benchmark (repeatable).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Generation seed.")

let jobs_arg =
  let positive_int =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some _ | None -> Error (`Msg "must be a positive integer")
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value
       & opt positive_int (Pool.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for candidate-evaluation fan-out.")

let budget_arg =
  Arg.(value & opt int 32
       & info [ "budget" ] ~docv:"N"
           ~doc:"Candidate evaluations per benchmark (default 32).")

let stress_arg =
  Arg.(value & opt (some string) None
       & info [ "stress" ] ~docv:"SPEC"
           ~doc:"Tune toward a performance envelope instead of the \
                 original: a comma list of ipc=N, mpki=N, power=N targets.")

let per_phase_arg =
  Arg.(value
       & opt ~vopt:(Some None) (some (some int)) None
       & info [ "per-phase" ] ~docv:"N"
           ~doc:"Score candidates per sampling interval too (phase-aware \
                 fitness).  $(docv) sets the interval in dynamic \
                 instructions; without a value it is derived from the \
                 profiling budget like pc_sample's auto interval.")

let store_arg =
  Arg.(value
       & opt ~vopt:(Some "") (some string) None
       & info [ "store" ] ~docv:"DIR"
           ~doc:"Memoise evaluations on disk under $(docv) (default \
                 \\$XDG_CACHE_HOME/pc-tune) across runs.")

let output_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the report as pc-tune/1 JSON to $(docv).")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a pc-trace/1 Chrome timeline of the run to $(docv).")

let ledger_arg =
  Arg.(value
       & opt ~vopt:(Some "") (some string) None
       & info [ "ledger" ] ~docv:"DIR"
           ~doc:"Append a pc-run/1 record of this invocation to the run \
                 ledger under $(docv) (default \
                 \\$XDG_CACHE_HOME/pc-ledger) for later drift diffing \
                 with pc_diff.  Implies metric collection.")

let cmd =
  Cmd.v
    (Cmd.info "tune_report"
       ~doc:"closed-loop knob tuning against fidelity or a stress envelope")
    Term.(const main $ quick_arg $ bench_arg $ seed_arg $ jobs_arg $ budget_arg
          $ stress_arg $ per_phase_arg $ store_arg $ output_arg $ trace_arg
          $ ledger_arg)

let () = exit (Cmd.eval cmd)
