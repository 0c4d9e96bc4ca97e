(* Per-layer probes for the traced run.  Each probe calls one layer's
   public entry point on the workload's own programs and budgets and
   reports throughput (work per second) and allocation (minor-heap words
   per unit of work) next to a work count.  The oracles reachable
   through public functions are checked here too. *)

module E = Perfclone.Experiments
module Machine = Pc_funcsim.Machine
module Config = Pc_uarch.Config
module Sim = Pc_uarch.Sim
module Study = Pc_caches.Study
module Predictor = Pc_branch.Predictor
module Sample = Pc_sample.Sample
module Scenario = Pc_scenario.Scenario
module Runner = Pc_scenario.Runner
module Spec = Pc_scenario.Spec
module Presets = Pc_scenario.Presets

type ctx = {
  kernels : (string * Pc_isa.Program.t) list;  (** the workload's probe programs *)
  budget : int;  (** simulation budget per program *)
  profile_instrs : int;
  clone_dynamic : int;
  seed : int;
}

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* Run [f] under a span; return its result, seconds and words allocated. *)
let measure name f =
  Tracer.span name @@ fun () ->
  let w0 = Tracer.allocated_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  (r, dt, Tracer.allocated_words () -. w0)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let counter name = Pc_obs.Metrics.value (Pc_obs.Metrics.counter name)
let per_s n dt = float_of_int n /. dt /. 1e6

(* --- recorded traces: the caches and branch probes replay these --- *)

type recorded = { instrs : int; refs : int array; branches : (int * bool) array }

let record budget program =
  let refs = ref [] and branches = ref [] in
  let instrs =
    Machine.run ~max_instrs:budget (Machine.load program) (fun ev ->
        if ev.Machine.mem_addr >= 0 then refs := ev.Machine.mem_addr :: !refs;
        if ev.Machine.is_branch then branches := (ev.Machine.pc, ev.Machine.taken) :: !branches)
  in
  { instrs; refs = Array.of_list (List.rev !refs); branches = Array.of_list (List.rev !branches) }

let feed r emit =
  Array.iter emit r.refs;
  r.instrs

(* --- oracles: every timed and traced run checks these --- *)

let same_study (a : Study.result array) (b : Study.result array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Study.result) (y : Study.result) ->
         x.Study.misses = y.Study.misses && x.Study.accesses = y.Study.accesses
         && Int64.equal (Int64.bits_of_float x.Study.mpi) (Int64.bits_of_float y.Study.mpi))
       a b

(* One op per program: the one-pass stack-distance sweep must equal the
   28 simulated caches, and chunked delivery must retire exactly what
   per-event delivery retires. *)
let oracles ctx =
  List.map
    (fun (name, program) ->
      let errors =
        match
          let r = record ctx.budget program in
          let sweep = Study.run_trace (feed r) and onepass = Study.run_trace_onepass (feed r) in
          let batched =
            Machine.run_batched ~max_instrs:ctx.budget (Machine.load program) (fun _ -> ())
          in
          (same_study sweep onepass, batched = r.instrs)
        with
        | true, true -> []
        | false, _ -> [ "run_trace_onepass differs from run_trace" ]
        | _, false -> [ "run_batched retired a different count than Machine.run" ]
        | exception e -> [ Printexc.to_string e ]
      in
      { Work.op_name = "oracle/" ^ name; canon = ""; errors })
    ctx.kernels

(* --- the probes --- *)

let funcsim ctx =
  let progs = List.map snd ctx.kernels in
  let run_all f = sum (fun p -> f (Machine.load p)) progs in
  let n_ev, t_ev, w_ev =
    measure "probe.funcsim.event" (fun () ->
        run_all (fun mach -> Machine.run ~max_instrs:ctx.budget mach (fun _ -> ())))
  in
  let n_b, t_b, w_b =
    measure "probe.funcsim.batched" (fun () ->
        run_all (fun mach -> Machine.run_batched ~max_instrs:ctx.budget mach (fun _ -> ())))
  in
  [
    m "funcsim.event_minstr_s" "Minstr/s" (per_s n_ev t_ev);
    m "funcsim.event_words_per_instr" "words/instr" (w_ev /. float_of_int n_ev);
    m "funcsim.batched_minstr_s" "Minstr/s" (per_s n_b t_b);
    m "funcsim.batched_words_per_instr" "words/instr" (w_b /. float_of_int n_b);
    m "funcsim.retired_instrs" "count" (float_of_int (n_ev + n_b));
  ]

(* Profile, synthesize, re-measure: returns the profiles for later probes. *)
let cloning ctx =
  let before = counter "funcsim.retired.total" in
  let profiles, t_p, w_p =
    measure "probe.profile" (fun () ->
        List.map
          (fun (name, p) -> (name, Pc_profile.Collector.profile ~max_instrs:ctx.profile_instrs p))
          ctx.kernels)
  in
  let n_p = counter "funcsim.retired.total" - before in
  let options =
    { Pc_synth.Synth.default_options with seed = ctx.seed; target_dynamic = ctx.clone_dynamic }
  in
  let clones, t_s, _ =
    measure "probe.synth" (fun () ->
        List.map (fun (name, prof) -> (name, prof, Pc_synth.Synth.generate ~options prof)) profiles)
  in
  let before = counter "funcsim.retired.total" in
  let _, t_f, _ =
    measure "probe.trace.fidelity" (fun () ->
        List.map
          (fun (bench, original, clone) ->
            Pc_trace.Fidelity.measure ~max_instrs:ctx.profile_instrs ~bench ~original clone)
          clones)
  in
  let n_f = counter "funcsim.retired.total" - before in
  let bench, prof = List.hd profiles in
  let tuned, t_t, _ =
    measure "probe.tune" (fun () ->
        Pc_tune.Search.run ~budget:4 ~bench ~seed:ctx.seed ~profile_instrs:ctx.profile_instrs
          ~target_dynamic:ctx.clone_dynamic
          ~mode:(Pc_tune.Fitness.Mimic Pc_tune.Fitness.default_weights) prof)
  in
  let evals = tuned.Pc_tune.Search.r_evals in
  ( profiles,
    [
      m "profile.minstr_s" "Minstr/s" (per_s n_p t_p);
      m "profile.words_per_instr" "words/instr" (w_p /. float_of_int n_p);
      m "synth.ms_per_clone" "ms" (1000.0 *. t_s /. float_of_int (List.length clones));
      m "trace.fidelity_minstr_s" "Minstr/s" (per_s n_f t_f);
      m "tune.ms_per_eval" "ms" (1000.0 *. t_t /. float_of_int evals);
      m "tune.evals" "count" (float_of_int evals);
    ] )

let uarch_power ctx =
  let runs, t, w =
    measure "probe.uarch" (fun () ->
        List.map (fun (_, p) -> Sim.run ~max_instrs:ctx.budget Config.base p) ctx.kernels)
  in
  let n = sum (fun (r : Sim.result) -> r.Sim.instrs) runs in
  let reps = 200 in
  let _, t_pw, _ =
    measure "probe.power" (fun () ->
        for _ = 1 to reps do
          List.iter (fun r -> ignore (Pc_power.Power.estimate Config.base r)) runs
        done)
  in
  [
    m "uarch.minstr_s" "Minstr/s" (per_s n t);
    m "uarch.words_per_instr" "words/instr" (w /. float_of_int n);
    m "power.us_per_estimate" "us" (1e6 *. t_pw /. float_of_int (reps * List.length runs));
  ]

let caches_branch ctx =
  let recs = List.map (fun (_, p) -> record ctx.budget p) ctx.kernels in
  let refs = sum (fun r -> Array.length r.refs) recs in
  let _, t_sw, _ =
    measure "probe.caches.sweep" (fun () -> List.map (fun r -> Study.run_trace (feed r)) recs)
  in
  let _, t_op, _ =
    measure "probe.caches.onepass" (fun () ->
        List.map (fun r -> Study.run_trace_onepass (feed r)) recs)
  in
  let lookups, t_bp, _ =
    measure "probe.branch.sweep" (fun () ->
        sum
          (fun cfg ->
            sum
              (fun r ->
                let pred = Predictor.create cfg in
                Array.iter
                  (fun (pc, taken) -> ignore (Predictor.observe pred ~pc ~taken))
                  r.branches;
                Predictor.lookups pred)
              recs)
          E.bpred_configs)
  in
  [
    m "caches.sweep_mrefs_s" "Mrefs/s" (per_s refs t_sw);
    m "caches.onepass_mrefs_s" "Mrefs/s" (per_s refs t_op);
    m "branch.sweep_mlookups_s" "Mlookups/s" (per_s lookups t_bp);
  ]

let statsim_sample ctx profiles =
  let instrs = min 200_000 ctx.budget in
  let _, t_ss, _ =
    measure "probe.statsim" (fun () ->
        List.map
          (fun (_, prof) -> Pc_statsim.Statsim.estimate ~seed:ctx.seed ~instrs Config.base prof)
          profiles)
  in
  let interval = Sample.auto_interval ~max_instrs:ctx.budget in
  let plans, t_pl, _ =
    measure "probe.sample.plan" (fun () ->
        List.map
          (fun (_, p) -> Sample.plan ~seed:ctx.seed ~interval ~max_instrs:ctx.budget p)
          ctx.kernels)
  in
  let _, t_pr, _ =
    measure "probe.sample.project" (fun () -> List.map (Sample.project_sim Config.base) plans)
  in
  let k = float_of_int (List.length ctx.kernels) in
  [
    m "statsim.ms_per_estimate" "ms" (1000.0 *. t_ss /. k);
    m "sample.plan_ms" "ms" (1000.0 *. t_pl /. k);
    m "sample.project_ms" "ms" (1000.0 *. t_pr /. k);
  ]

(* The quad mix's originals co-run on the shared-L2 machine. *)
let scenario_corun ctx =
  let quad = Option.get (Presets.find "quad") in
  let tenants =
    Array.map
      (fun (label, workload, _) ->
        {
          Scenario.label;
          budget = ctx.budget;
          source =
            Scenario.From_machine
              (Machine.load (Pc_workloads.Registry.compile (Pc_workloads.Registry.find workload)));
        })
      (Spec.slots quad)
  in
  let results, t, _ =
    measure "probe.scenario.co_run" (fun () ->
        Scenario.co_run ~quantum:quad.Spec.quantum ~weights:(Spec.weights quad)
          (Spec.effective_config quad Config.base) tenants)
  in
  let fed =
    Array.fold_left (fun acc (r : Scenario.tenant_result) -> acc + r.Scenario.fed) 0 results
  in
  [ m "scenario.corun_minstr_s" "Minstr/s" (per_s fed t) ]

(* Cold per-preset runs (detailed then sampled), for workloads whose
   passes do not run the presets themselves. *)
let preset_times (settings : Runner.settings) =
  E.clear_caches ();
  Runner.clear_caches ();
  let sampled =
    { settings with Runner.sample = Some (Sample.auto_interval ~max_instrs:settings.Runner.budget) }
  in
  List.map
    (fun (spec : Spec.t) ->
      let name = spec.Spec.name in
      let _, t_d, _ = measure ("scenario." ^ name) (fun () -> Runner.run_spec settings spec) in
      let _, t_s, _ = measure ("scenario." ^ name) (fun () -> Runner.run_spec sampled spec) in
      (name, t_d +. t_s))
    Presets.all

let memo_hit ctx =
  let settings = { E.quick_settings with E.sim_instrs = ctx.budget } in
  let program = Pc_workloads.Registry.compile (Pc_workloads.Registry.find "crc32") in
  ignore (E.sim_run settings Config.base program);
  let reps = 2000 in
  let _, t, _ =
    measure "probe.core.memo_hit" (fun () ->
        for _ = 1 to reps do
          ignore (E.sim_run settings Config.base program)
        done)
  in
  [ m "core.memo_hit_us" "us" (1e6 *. t /. float_of_int reps) ]

let kc_compile kernels =
  let once () =
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun name ->
        let entry = Pc_workloads.Registry.find name in
        ignore (Pc_kc.Compile.compile ~name entry.Pc_workloads.Registry.prog))
      kernels;
    Unix.gettimeofday () -. t0
  in
  let times = List.init 9 (fun _ -> once ()) in
  [ m "kc.compile_ms" "ms" (1000.0 *. List.nth (List.sort compare times) 4) ]

(* Every probe that does not depend on the workload's own passes, run
   one after another. *)
let run ctx ~kernel_names =
  Tracer.span "probes" @@ fun () ->
  let kc = kc_compile kernel_names in
  let fs = funcsim ctx in
  let profiles, cl = cloning ctx in
  let up = uarch_power ctx in
  let cb = caches_branch ctx in
  let ss = statsim_sample ctx profiles in
  let sc = scenario_corun ctx in
  let mh = memo_hit ctx in
  List.concat [ kc; fs; cl; up; cb; ss; sc; mh ]
