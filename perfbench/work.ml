(* The three workloads.  Each is a closed loop of one client running cold
   passes back to back: every memo store the pass would otherwise reuse
   is cleared before it starts.  A pass returns one [op] per operation —
   a kernel's driver row, a clone, or a scenario — carrying the
   canonical text of its outputs (the digest input) and the checks it
   failed, plus the workload's quality figures. *)

module E = Perfclone.Experiments
module Pipeline = Perfclone.Pipeline
module Registry = Pc_workloads.Registry
module Machine = Pc_funcsim.Machine
module Config = Pc_uarch.Config
module Fidelity = Pc_trace.Fidelity
module Search = Pc_tune.Search
module Fitness = Pc_tune.Fitness
module Runner = Pc_scenario.Runner
module Spec = Pc_scenario.Spec
module Presets = Pc_scenario.Presets
module Sample = Pc_sample.Sample

let span = Tracer.span

type op = { op_name : string; canon : string; errors : string list }

type pass_out = {
  ops : op list;
  quality : (string * float) list;
  clones : (string * Pc_isa.Program.t) list;  (** for the halting check *)
}

(* --- canonical output text: exact floats, so any change shows --- *)

let canon f =
  let b = Buffer.create 256 in
  f b;
  Buffer.contents b

let cf b x = Printf.bprintf b "%h;" x
let ci b x = Printf.bprintf b "%d;" x
let cs b x = Printf.bprintf b "%s;" x
let cfa b a = Array.iter (cf b) a

(* --- output checks --- *)

let check_range what lo hi ~lo_open x errs =
  if Float.is_finite x && (if lo_open then x > lo else x >= lo) && x <= hi then errs
  else Printf.sprintf "%s=%h outside %s%g, %g]" what x (if lo_open then "(" else "[") lo hi
       :: errs

let check_r what r errs = check_range what (-1.0) 1.0 ~lo_open:false r errs

let check_ipc (cfg : Config.t) what ipc errs =
  check_range what 0.0 (float_of_int cfg.Config.issue_width) ~lo_open:true ipc errs

let check_positive what x errs =
  if Float.is_finite x && x > 0.0 then errs
  else Printf.sprintf "%s=%h not positive" what x :: errs

let op op_name fill errors = { op_name; canon = canon fill; errors }

(* A seeded permutation of a list. *)
let shuffle seed l =
  let a = Array.of_list l in
  Pc_util.Rng.shuffle (Pc_util.Rng.create seed) a;
  Array.to_list a

(* --- kernels and set-up --- *)

(* Two kernels of the quick set (crc32, qsort, sha, fft, dijkstra): a
   cold pass over all five takes 6-9 s on a 2-vCPU Xeon guest, too long
   to take the fastest of several passes in one run.  crc32 and qsort
   keep the quick run's stage order (bpred, design_changes, seeds
   first). *)
let paper_eval_kernels = [ "crc32"; "qsort" ]

let corun_kernels =
  List.sort_uniq compare
    (List.concat_map
       (fun s -> List.map (fun (_, w, _) -> w) (Array.to_list (Spec.slots s)))
       Presets.all)

type workload = Paper_eval | Clone_factory | Corun

let names = [ ("paper-eval", Paper_eval); ("clone-factory", Clone_factory); ("corun", Corun) ]

let kernels = function
  | Paper_eval -> paper_eval_kernels
  | Clone_factory -> Registry.names
  | Corun -> corun_kernels

(* Set-up work of one run: compile the workload's kernels and decode
   each binary, which is what a pass needs before it can start.  The
   registry memoises its compiles, so the timed repetitions call the Kc
   back end directly and [warm] fills the registry once afterwards. *)
let setup_once w =
  List.iter
    (fun name ->
      let e = Registry.find name in
      ignore (Machine.load (Pc_kc.Compile.compile ~name e.Registry.prog)))
    (kernels w)

let warm w = List.iter (fun name -> ignore (Registry.compile (Registry.find name))) (kernels w)

(* An exception inside a call fails every operation the call stands for;
   the run continues. *)
let guard names f =
  try f ()
  with e ->
    List.map (fun n -> { op_name = n; canon = ""; errors = [ Printexc.to_string e ] }) names

(* --- paper-eval: the drivers `run_experiments --quick all` calls --- *)

(* Budgets shrunk from the quick set's (300k profile / 500k simulated /
   50k clone) so one cold pass fits several times into a run while
   keeping the quick run's stage mix: bpred, design_changes and seeds
   stay the three largest stages.  The clone-generation seed stays at
   the paper's 1: Fig 6's error moves by a sixth between generation
   seeds, so the run seed only permutes the kernel order, which must
   not move any result. *)
let paper_eval_settings seed =
  {
    E.quick_settings with
    E.seed = 1;
    benchmarks = shuffle seed paper_eval_kernels;
    profile_instrs = 100_000;
    sim_instrs = 100_000;
    clone_dynamic = 20_000;
  }

let paper_eval_pass settings =
  let base = Config.base in
  let rows what = List.map (fun b -> what ^ "/" ^ b) settings.E.benchmarks in
  let quality = ref [] and clones = ref [] in
  let ops =
    guard (rows "prepare") @@ fun () ->
    let pipelines = span "core.prepare" (fun () -> E.prepare settings) in
    clones := List.map (fun (p : Pipeline.t) -> (p.Pipeline.name, p.Pipeline.clone)) pipelines;
    (* Each stage renders its tables as run_experiments prints them, into
       a buffer. *)
    let ppf = Format.formatter_of_buffer (Buffer.create 4096) in
    let render pp r =
      pp ppf r;
      Format.pp_print_flush ppf ();
      r
    in
    (* One stage: a driver call under its span, then one op per row. *)
    let stage span_name what call rows_of =
      guard (rows what) (fun () -> rows_of (span span_name call))
    in
    (* Stages run one after another, in run_experiments order: later
       drivers hit the memo entries earlier ones filled. *)
    let r_fig3 =
      stage "core.fig3" "fig3"
        (fun () -> render E.pp_fig3 (E.fig3 pipelines))
        (List.map (fun (b, f) ->
             op ("fig3/" ^ b) (fun c -> cf c f)
               (check_range "single_stride" 0.0 1.0 ~lo_open:false f [])))
    in
    let r_cache_studies =
      stage "core.cache_studies" "fig4"
        (fun () ->
          let studies = render E.pp_fig4 (E.cache_studies settings pipelines) in
          (studies, render E.pp_fig5 (E.rankings_scatter studies)))
        (fun (studies, ranks) ->
          quality := ("cache_r", E.average_correlation studies) :: !quality;
          op "fig5" (fun c -> Array.iter (fun (a, b) -> cf c a; cf c b) ranks) []
          :: List.map
               (fun (s : E.cache_study) ->
                 op ("fig4/" ^ s.E.bench)
                   (fun c -> cf c s.E.correlation; cfa c s.E.orig_mpi; cfa c s.E.clone_mpi)
                   (check_r "R" s.E.correlation []))
               studies)
    in
    let r_base_runs =
      stage "core.base_runs" "fig6"
        (fun () -> render E.pp_fig7 (render E.pp_fig6 (E.base_runs settings pipelines)))
        (fun runs ->
          quality :=
            ("ipc_err_pct", 100.0 *. E.avg_abs_error E.ipc_of runs)
            :: ("power_err_pct", 100.0 *. E.avg_abs_error E.power_of runs)
            :: !quality;
          List.map
            (fun (r : E.base_run) ->
              op ("fig6/" ^ r.E.bench)
                (fun c ->
                  cf c r.E.ipc_orig; cf c r.E.ipc_clone; cf c r.E.power_orig; cf c r.E.power_clone)
                ([]
                |> check_ipc base "ipc_orig" r.E.ipc_orig
                |> check_ipc base "ipc_clone" r.E.ipc_clone
                |> check_positive "power_orig" r.E.power_orig
                |> check_positive "power_clone" r.E.power_clone))
            runs)
    in
    let r_design_changes =
      stage "core.design_changes" "table3"
        (fun () ->
          let results = render E.pp_table3 (E.run_design_changes settings pipelines) in
          let width_change = List.nth results 2 in
          ignore (render E.pp_fig9 (render E.pp_fig8 width_change));
          results)
        (List.concat_map (fun (ch : E.change_result) ->
             List.map
               (fun (b, io, ic, po, pc) ->
                 op
                   (Printf.sprintf "table3/%s/%s" ch.E.change_name b)
                   (fun c -> cf c io; cf c ic; cf c po; cf c pc)
                   ([]
                   |> check_positive "ipc_ratio_orig" io
                   |> check_positive "ipc_ratio_clone" ic
                   |> check_positive "power_ratio_orig" po
                   |> check_positive "power_ratio_clone" pc))
               ch.E.per_bench))
    in
    let r_ablation =
      stage "core.ablation" "ablation"
        (fun () -> render E.pp_ablation (E.ablation settings pipelines))
        (List.map (fun (r : E.ablation_row) ->
             op ("ablation/" ^ r.E.ab_bench)
               (fun c -> cf c r.E.indep_correlation; cf c r.E.dep_correlation)
               ([]
               |> check_r "indep_R" r.E.indep_correlation
               |> check_r "dep_R" r.E.dep_correlation)))
    in
    let r_statsim =
      stage "core.statsim" "statsim"
        (fun () -> render E.pp_statsim (E.statsim_comparison settings pipelines))
        (List.map (fun (r : E.statsim_row) ->
             op ("statsim/" ^ r.E.ss_bench)
               (fun c -> cf c r.E.ss_ipc_orig; cf c r.E.ss_ipc_clone; cf c r.E.ss_ipc_statsim)
               ([]
               |> check_ipc base "ipc_orig" r.E.ss_ipc_orig
               |> check_ipc base "ipc_clone" r.E.ss_ipc_clone
               |> check_ipc base "ipc_statsim" r.E.ss_ipc_statsim)))
    in
    let r_portable =
      stage "core.portable" "portable"
        (fun () -> render E.pp_portable (E.portable_comparison settings pipelines))
        (List.map (fun (r : E.portable_row) ->
             op ("portable/" ^ r.E.po_bench)
               (fun c -> cf c r.E.po_asm_correlation; cf c r.E.po_kc_correlation)
               ([]
               |> check_r "asm_R" r.E.po_asm_correlation
               |> check_r "kc_R" r.E.po_kc_correlation)))
    in
    let r_bpred =
      stage "core.bpred" "bpred"
        (fun () -> render E.pp_bpred (E.bpred_studies settings pipelines))
        (List.map (fun (s : E.bpred_study) ->
             op ("bpred/" ^ s.E.bp_bench)
               (fun c -> cf c s.E.bp_correlation; cfa c s.E.bp_orig_rates; cfa c s.E.bp_clone_rates)
               (Array.fold_left
                  (fun errs r -> check_range "mispredict_rate" 0.0 1.0 ~lo_open:false r errs)
                  (check_r "R" s.E.bp_correlation [])
                  (Array.append s.E.bp_orig_rates s.E.bp_clone_rates))))
    in
    let r_seeds =
      stage "core.seeds" "seeds"
        (fun () -> render E.pp_seed_robustness (E.seed_robustness settings pipelines))
        (List.map (fun (s : E.seed_robustness) ->
             op ("seeds/" ^ s.E.sr_bench)
               (fun c -> cfa c s.E.sr_correlations)
               (Array.fold_left (fun errs r -> check_r "R" r errs) [] s.E.sr_correlations)))
    in
    r_fig3 @ r_cache_studies @ r_base_runs @ r_design_changes @ r_ablation @ r_statsim
    @ r_portable @ r_bpred @ r_seeds
  in
  { ops; quality = !quality; clones = !clones }

(* --- clone-factory: profile -> synthesize -> re-measure, per kernel --- *)

type factory = {
  f_seed : int;  (** clone-generation and tuner seed *)
  f_kernels : string list;  (** all 23, in a seeded order *)
  f_profile_instrs : int;
  f_clone_dynamic : int;
  f_tune_kernels : string list;  (** the seeded draw the tuner runs on *)
  f_tune_budget : int;
}

(* The mean mimic score over 23 clones moves by about 1% between
   generation seeds, so here the run seed is the generation seed. *)
let factory_settings seed =
  {
    f_seed = seed;
    f_kernels = shuffle seed Registry.names;
    f_profile_instrs = 100_000;
    f_clone_dynamic = 20_000;
    f_tune_kernels = List.filteri (fun i _ -> i < 2) (shuffle (seed + 1) Registry.names);
    f_tune_budget = 8;
  }

(* One clone per kernel: (name, profile, clone, report, mimic fitness). *)
let make_clones f =
  let options =
    {
      Pc_synth.Synth.default_options with
      Pc_synth.Synth.seed = f.f_seed;
      target_dynamic = f.f_clone_dynamic;
    }
  in
  List.map
    (fun name ->
      match
        let prog = Registry.compile (Registry.find name) in
        let profile =
          span ("profile.collect:" ^ name) (fun () ->
              Pc_profile.Collector.profile ~max_instrs:f.f_profile_instrs prog)
        in
        let clone =
          span ("synth.generate:" ^ name) (fun () -> Pc_synth.Synth.generate ~options profile)
        in
        let report =
          span ("trace.fidelity:" ^ name) (fun () ->
              Fidelity.measure ~max_instrs:f.f_profile_instrs ~bench:name ~original:profile clone)
        in
        (profile, clone, report, (Fitness.of_report report).Fitness.fitness)
      with
      | made -> (name, Ok made)
      | exception e -> (name, Error (Printexc.to_string e)))
    f.f_kernels

let mean_fitness made =
  let fits =
    List.filter_map (function _, Ok (_, _, _, fit) -> Some fit | _, Error _ -> None) made
  in
  List.fold_left ( +. ) 0.0 fits /. float_of_int (List.length fits)

let clone_factory_pass f =
  let made = make_clones f in
  let clone_ops =
    List.map
      (function
        | name, Error msg -> { op_name = "clone/" ^ name; canon = ""; errors = [ msg ] }
        | name, Ok (_, clone, (r : Fidelity.report), fit) ->
          op ("clone/" ^ name)
            (fun c ->
              ci c (Array.length clone.Pc_isa.Program.code);
              ci c r.Fidelity.clone_instrs;
              List.iter (fun (_, v) -> cf c v) (Fidelity.characteristic_fields r.Fidelity.c);
              cf c fit)
            (check_range "fitness" 0.0 max_float ~lo_open:false fit []))
      made
  in
  let tune_ops =
    List.concat_map
      (fun name ->
        guard [ "tune/" ^ name ] @@ fun () ->
        let profile =
          match List.assoc name made with
          | Ok (profile, _, _, _) -> profile
          | Error msg -> failwith msg
        in
        let r =
          span ("tune.search:" ^ name) (fun () ->
              Search.run ~budget:f.f_tune_budget ~bench:name ~seed:f.f_seed
                ~profile_instrs:f.f_profile_instrs ~target_dynamic:f.f_clone_dynamic
                ~mode:(Fitness.Mimic Fitness.default_weights) profile)
        in
        [
          op ("tune/" ^ name)
            (fun c ->
              ci c r.Search.r_evals;
              cf c r.Search.r_default.Fitness.fitness;
              cf c r.Search.r_best.Fitness.fitness;
              cs c (Search.knobs_id r.Search.r_best_knobs))
            (if r.Search.r_best.Fitness.fitness <= r.Search.r_default.Fitness.fitness then []
             else [ "tuned clone scores worse than the default" ]);
        ])
      f.f_tune_kernels
  in
  {
    ops = clone_ops @ tune_ops;
    quality = [ ("fidelity_err", mean_fitness made) ];
    clones =
      List.filter_map (function n, Ok (_, c, _, _) -> Some (n, c) | _, Error _ -> None) made;
  }

(* Every clone must run to its halt without a fault. *)
let check_clones_halt clones =
  List.map
    (fun (name, clone) ->
      let errors =
        match
          let m = Machine.load clone in
          ignore (Machine.run ~max_instrs:10_000_000 m (fun _ -> ()));
          Machine.halted m
        with
        | true -> []
        | false -> [ "clone did not halt within 10M instructions" ]
        | exception e -> [ "clone faulted: " ^ Printexc.to_string e ]
      in
      { op_name = "halt/" ^ name; canon = ""; errors })
    clones

(* --- corun: every preset, detailed and sampled --- *)

(* Runner.quick_settings with a 200k per-tenant budget instead of 500k,
   so a cold pass (14 scenarios) takes about 2 s.  The generation seed
   stays at 1: the worst clone-vs-original slowdown gap moves sevenfold
   between generation seeds, so the run seed only permutes the preset
   order. *)
let corun_settings seed =
  (shuffle seed Presets.all, { Runner.quick_settings with Runner.budget = 200_000 })

let sampled_settings (s : Runner.settings) =
  { s with Runner.sample = Some (Sample.auto_interval ~max_instrs:s.Runner.budget) }

let twins = [ ("duet", "duet-clone"); ("duet-tight", "duet-tight-clone"); ("quad", "quad-clone") ]

let slowdown_gap results =
  let by_name name =
    List.find (fun (r : Runner.result) -> r.Runner.spec.Spec.name = name) results
  in
  List.fold_left
    (fun acc (o, c) ->
      List.fold_left2
        (fun acc (a : Runner.tenant_row) (b : Runner.tenant_row) ->
          Float.max acc (abs_float (a.Runner.slowdown -. b.Runner.slowdown)))
        acc (by_name o).Runner.tenants (by_name c).Runner.tenants)
    0.0 twins

let scenario_op mode (r : Runner.result) =
  let cfg = Spec.effective_config r.Runner.spec Config.base in
  op
    (Printf.sprintf "scenario/%s/%s" mode r.Runner.spec.Spec.name)
    (fun c ->
      cf c r.Runner.weighted_speedup;
      cf c r.Runner.fairness;
      List.iter
        (fun (t : Runner.tenant_row) ->
          cs c t.Runner.label;
          ci c t.Runner.instrs;
          cf c t.Runner.standalone_ipc;
          cf c t.Runner.corun_ipc;
          ci c t.Runner.l2_accesses;
          ci c t.Runner.l2_misses;
          ci c t.Runner.mem_accesses)
        r.Runner.tenants)
    (List.fold_left
       (fun errs (t : Runner.tenant_row) ->
         errs
         |> check_ipc cfg (t.Runner.label ^ ".standalone_ipc") t.Runner.standalone_ipc
         |> check_ipc cfg (t.Runner.label ^ ".corun_ipc") t.Runner.corun_ipc
         |> check_positive (t.Runner.label ^ ".slowdown") t.Runner.slowdown)
       (check_range "fairness" 0.0 1.0 ~lo_open:true r.Runner.fairness [])
       r.Runner.tenants)

let corun_pass (presets, settings) =
  let run mode s =
    List.map
      (fun (spec : Spec.t) ->
        let name = "scenario/" ^ mode ^ "/" ^ spec.Spec.name in
        match span ("scenario." ^ spec.Spec.name) (fun () -> Runner.run_spec s spec) with
        | r -> (Some r, scenario_op mode r)
        | exception e -> (None, { op_name = name; canon = ""; errors = [ Printexc.to_string e ] }))
      presets
  in
  let detailed = run "detailed" settings in
  let sampled = run "sampled" (sampled_settings settings) in
  let results = List.filter_map fst detailed in
  {
    ops = List.map snd (detailed @ sampled);
    quality =
      (match slowdown_gap results with
      | gap -> [ ("slowdown_gap", gap) ]
      | exception Not_found -> []);
    clones = [];
  }

(* --- the loop body shared by timed and traced runs --- *)

type prepared =
  | P_paper of E.settings
  | P_factory of factory
  | P_corun of Spec.t list * Runner.settings

let prepare w seed =
  match w with
  | Paper_eval -> P_paper (paper_eval_settings seed)
  | Clone_factory -> P_factory (factory_settings seed)
  | Corun ->
    let presets, settings = corun_settings seed in
    P_corun (presets, settings)

(* Clearing is not part of the pass's time: it only makes the pass cold. *)
let clear = function
  | P_paper _ | P_factory _ -> E.clear_caches ()
  | P_corun _ ->
    E.clear_caches ();
    Runner.clear_caches ()

let pass = function
  | P_paper s -> paper_eval_pass s
  | P_factory f -> clone_factory_pass f
  | P_corun (presets, s) -> corun_pass (presets, s)

(* --- quality figures a workload's pass does not produce --- *)

(* Every run reports all eight end-to-end metrics.  The quality figures
   that belong to another workload are computed once, after the timed
   passes, by that workload's own definition at run seed 1, so on every
   workload they read the same as on their home workload at seed 1. *)
let quality_panel w =
  let paper () =
    E.clear_caches ();
    let s = paper_eval_settings 1 in
    let pipelines = E.prepare s in
    let runs = E.base_runs s pipelines in
    [
      ("ipc_err_pct", 100.0 *. E.avg_abs_error E.ipc_of runs);
      ("power_err_pct", 100.0 *. E.avg_abs_error E.power_of runs);
      ("cache_r", E.average_correlation (E.cache_studies s pipelines));
    ]
  in
  let factory () = [ ("fidelity_err", mean_fitness (make_clones (factory_settings 1))) ] in
  let corun () =
    E.clear_caches ();
    Runner.clear_caches ();
    let twin_specs =
      List.filter_map Presets.find (List.concat_map (fun (o, c) -> [ o; c ]) twins)
    in
    [ ("slowdown_gap", slowdown_gap (Runner.run (snd (corun_settings 1)) twin_specs)) ]
  in
  let both a b =
    let x = a () in
    x @ b ()
  in
  match w with
  | Paper_eval -> both factory corun
  | Clone_factory -> both paper corun
  | Corun -> both paper factory
