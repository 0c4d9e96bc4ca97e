(* perfbench: the repository's end-to-end and per-layer benchmark.

   main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
            [--inject-mismatch]

   One process runs one workload as a closed loop of cold passes for
   about S seconds (default 35, BENCHMARK.json's run_seconds).  Progress
   goes to stderr; the last line of stdout is one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1.  A traced run also
   writes its spans under perfbench/out/ of the working directory.  See
   README.md beside this file. *)

module Metrics = Pc_obs.Metrics

let now = Unix.gettimeofday

let median = Calib.median
let minimum xs = List.fold_left Float.min infinity xs

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* --- work counts: must repeat exactly on every pass --- *)

let work_counters =
  [ "funcsim.retired.total"; "uarch.instrs"; "study.trace_refs"; "study.onepass.trace_refs" ]

let ends_with suffix s =
  let n = String.length s and k = String.length suffix in
  n >= k && String.sub s (n - k) k = suffix

(* The program's own counters plus the hits and misses of every named
   memo store ([exec.store.<name>.hits|misses]). *)
let counts () =
  let snap = Metrics.snapshot () in
  let store suffix =
    List.fold_left
      (fun acc (name, v) ->
        if String.length name > 11 && String.sub name 0 11 = "exec.store." && ends_with suffix name
        then acc + v
        else acc)
      0 snap.Metrics.counters
  in
  List.map (fun n -> (n, Metrics.value (Metrics.counter n))) work_counters
  @ [ ("exec.store.hits", store ".hits"); ("exec.store.misses", store ".misses") ]

let diff_counts after before = List.map2 (fun (n, a) (_, b) -> (n, a - b)) after before

(* --- output checks across passes --- *)

type checker = {
  mutable attempted : int;
  mutable failed : int;
  reference : (string, string) Hashtbl.t;  (** op -> canonical output of its first pass *)
  mutable ref_counts : (string * int) list option;
  mutable digest : string;
}

let checker () =
  { attempted = 0; failed = 0; reference = Hashtbl.create 64; ref_counts = None; digest = "" }

let record_op ck (o : Work.op) =
  ck.attempted <- ck.attempted + 1;
  let errors =
    match Hashtbl.find_opt ck.reference o.Work.op_name with
    | None ->
      Hashtbl.add ck.reference o.Work.op_name o.Work.canon;
      o.Work.errors
    | Some c when c = o.Work.canon -> o.Work.errors
    | Some _ -> "output differs from the first pass" :: o.Work.errors
  in
  if errors <> [] then begin
    ck.failed <- ck.failed + 1;
    Printf.eprintf "FAILED %s: %s\n%!" o.Work.op_name (String.concat "; " errors)
  end

let quality_op quality =
  Work.op "quality"
    (fun c -> List.iter (fun (k, v) -> Work.cs c k; Work.cf c v) quality)
    (List.filter_map
       (fun (k, v) -> if Float.is_finite v then None else Some (k ^ " is not finite"))
       quality)

(* Check one pass: every op against its first-pass output, the quality
   figures likewise, and the work counts against the first pass's, which
   catches work moved into process-global caches that later passes
   would skip. *)
let check_pass ck (out : Work.pass_out) counts =
  let first = Hashtbl.length ck.reference = 0 in
  let ops = quality_op out.Work.quality :: out.Work.ops in
  List.iter (record_op ck) ops;
  if first then begin
    let sorted =
      List.sort compare (List.map (fun (o : Work.op) -> o.Work.op_name ^ "=" ^ o.Work.canon) ops)
    in
    ck.digest <- Digest.to_hex (Digest.string (String.concat "\n" sorted))
  end;
  ck.attempted <- ck.attempted + 1;
  match ck.ref_counts with
  | None -> ck.ref_counts <- Some counts
  | Some r when r = counts -> ()
  | Some r ->
    ck.failed <- ck.failed + 1;
    Printf.eprintf "FAILED work counts moved: first pass %s, this pass %s\n%!"
      (String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) r))
      (String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) counts))

type timed = {
  raw_s : float;  (** wall-clock of the pass, calibration slices included *)
  cal_s : float;  (** the pass at the reference host speed ({!Calib}) *)
  slice_s : float;  (** median calibration slice during the pass *)
}

(* Run one cold pass; return its times, work counts and output. *)
let run_pass ?(traced = false) p =
  Work.clear p;
  (* Every pass starts from the same compacted heap, so the peak RSS is
     one pass's, not an accident of how many passes ran. *)
  Gc.compact ();
  let c0 = counts () in
  Tracer.enabled := traced;
  let out, raw_s, work, slices =
    Calib.sampled (fun () -> Tracer.span "pass" (fun () -> Work.pass p))
  in
  Tracer.enabled := false;
  let t = { raw_s; cal_s = Calib.calibrate ~work slices; slice_s = median slices } in
  (t, diff_counts (counts ()) c0, out)

(* --- probes context: the workload's own programs and budgets --- *)

let probe_ctx (p : Work.prepared) =
  let progs names =
    List.map (fun n -> (n, Pc_workloads.Registry.compile (Pc_workloads.Registry.find n))) names
  in
  match p with
  | Work.P_paper s ->
    {
      Probes.kernels = progs Work.paper_eval_kernels;
      budget = s.Work.E.sim_instrs;
      profile_instrs = s.Work.E.profile_instrs;
      clone_dynamic = s.Work.E.clone_dynamic;
      seed = s.Work.E.seed;
    }
  | Work.P_factory f ->
    {
      Probes.kernels = progs f.Work.f_tune_kernels;
      budget = f.Work.f_profile_instrs;
      profile_instrs = f.Work.f_profile_instrs;
      clone_dynamic = f.Work.f_clone_dynamic;
      seed = f.Work.f_seed;
    }
  | Work.P_corun (_, s) ->
    {
      Probes.kernels = progs Work.corun_kernels;
      budget = s.Pc_scenario.Runner.budget;
      profile_instrs = s.Pc_scenario.Runner.profile_instrs;
      clone_dynamic = s.Pc_scenario.Runner.clone_dynamic;
      seed = s.Pc_scenario.Runner.seed;
    }

(* Clones whose halting the epilogue checks. *)
let clones_of (p : Work.prepared) (first : Work.pass_out) =
  match p with
  | Work.P_corun (_, s) ->
    List.map
      (fun name ->
        ( name,
          (Perfclone.Pipeline.clone_benchmark ~seed:s.Pc_scenario.Runner.seed
             ~profile_instrs:s.Pc_scenario.Runner.profile_instrs
             ~target_dynamic:s.Pc_scenario.Runner.clone_dynamic name)
            .Perfclone.Pipeline.clone ))
      Work.corun_kernels
  | Work.P_paper _ | Work.P_factory _ -> first.Work.clones

(* --- per-layer figures taken from traced passes --- *)

let core_stages =
  [
    "prepare"; "fig3"; "cache_studies"; "base_runs"; "design_changes"; "bpred"; "seeds";
    "ablation"; "statsim"; "portable";
  ]

(* Per traced root (a pass or a probe), the summed duration of each
   direct child span whose name is in [names]. *)
let child_times spans ~root_name names =
  let roots = List.filter (fun (s : Tracer.span) -> s.Tracer.name = root_name) spans in
  List.map
    (fun name ->
      ( name,
        median
          (List.map
             (fun (r : Tracer.span) ->
               List.fold_left
                 (fun acc (s : Tracer.span) ->
                   if s.Tracer.parent = r.Tracer.id && s.Tracer.name = name then
                     acc +. Tracer.duration s
                   else acc)
                 0.0 spans)
             roots) ))
    names

(* Where a traced run writes its spans, relative to the checkout's root. *)
let spans_dir = Filename.concat "perfbench" "out"

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (m : Probes.metric) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.Probes.name m.Probes.value
           m.Probes.unit)
       ms)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 35 and trace = ref 0 in
  let inject = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME paper-eval | clone-factory | corun");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S how long the passes run (default 35)");
      ("--trace", Arg.Set_int trace, "0|1 timed run or traced run (default 0)");
      ( "--inject-mismatch",
        Arg.Set inject,
        " perturb one output of the second pass (self-test of the output check)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let w =
    match List.assoc_opt !workload Work.names with
    | Some w -> w
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace takes 0 or 1"; exit 2);
  let traced_run = !trace = 1 in
  (* Set-up, repeated for at least 15 times and 0.5 s under the host
     sampler: the median repetition, less any slice inside it and
     calibrated over all slices, is setup_s. *)
  let setup_s =
    let reps, _, _, slices =
      Calib.sampled (fun () ->
          let t_end = now () +. 0.5 in
          let rec go acc =
            if List.length acc >= 15 && now () >= t_end then acc
            else begin
              let s0 = !Calib.slice_total and t0 = now () in
              Work.setup_once w;
              go ((now () -. t0 -. (!Calib.slice_total -. s0)) :: acc)
            end
          in
          go [])
    in
    Calib.calibrate ~work:(median reps) slices
  in
  Work.warm w;
  let p = Work.prepare w !seed in
  let ck = checker () in
  let n_pass = ref 0 in
  let one ?traced () =
    let dt, c, out = run_pass ?traced p in
    incr n_pass;
    let out =
      if !inject && !n_pass = 2 then
        match out.Work.ops with
        | o :: rest -> { out with Work.ops = { o with Work.canon = o.Work.canon ^ "x" } :: rest }
        | [] -> out
      else out
    in
    check_pass ck out c;
    Printf.eprintf "pass %d%s: %.3f s, %.3f s calibrated (slice %.3f ms)\n%!" !n_pass
      (if traced = Some true then " (traced)" else "")
      dt.raw_s dt.cal_s (1000.0 *. dt.slice_s);
    (dt, c, out)
  in
  (* The first pass of a process runs slower (about 15%): it is checked
     but kept out of wall_s. *)
  let t_start = now () in
  let first_dt, first_counts, first = one () in
  let deadline = t_start +. float_of_int !seconds in
  let untraced = ref [] and traced = ref [] in
  let room () =
    let est = minimum (List.map (fun t -> t.raw_s) (first_dt :: (!untraced @ !traced))) in
    now () +. est <= deadline
  in
  if not traced_run then begin
    while List.length !untraced < 2 || room () do
      let dt, _, _ = one () in
      untraced := dt :: !untraced
    done
  end
  else begin
    while List.length !traced < 1 || room () do
      let dt, _, _ = one () in
      untraced := dt :: !untraced;
      let dt, _, _ = one ~traced:true () in
      traced := dt :: !traced
    done
  end;
  Printf.eprintf "digest %s seed %d: %s\n%!" !workload !seed ck.digest;
  let ctx = probe_ctx p in
  let per_layer =
    if not traced_run then []
    else begin
      let pass_spans = Tracer.recorded () in
      Tracer.enabled := true;
      let probe_metrics = Probes.run ctx ~kernel_names:(Work.kernels w) in
      (* Stage and preset times: from the workload's own traced passes
         where it runs them, else from a probe pass on its programs. *)
      let core =
        match p with
        | Work.P_paper _ ->
          child_times pass_spans ~root_name:"pass" (List.map (( ^ ) "core.") core_stages)
        | _ ->
          let s =
            {
              (Work.paper_eval_settings 1) with
              Work.E.benchmarks = List.filteri (fun i _ -> i < 2) (List.map fst ctx.Probes.kernels);
            }
          in
          Work.E.clear_caches ();
          ignore (Tracer.span "probe.core" (fun () -> Work.paper_eval_pass s));
          child_times (Tracer.recorded ()) ~root_name:"probe.core"
            (List.map (( ^ ) "core.") core_stages)
      in
      let presets =
        List.map
          (fun (s : Pc_scenario.Spec.t) -> "scenario." ^ s.Pc_scenario.Spec.name)
          Pc_scenario.Presets.all
      in
      let scenario =
        match p with
        | Work.P_corun _ -> child_times pass_spans ~root_name:"pass" presets
        | _ ->
          List.map
            (fun (n, t) -> ("scenario." ^ n, t))
            (Tracer.span "probe.scenario.presets" (fun () ->
                 Probes.preset_times { Pc_scenario.Runner.quick_settings with budget = 100_000 }))
      in
      Tracer.enabled := false;
      let cal l = minimum (List.map (fun t -> t.cal_s) l) in
      let raw l = minimum (List.map (fun t -> t.raw_s) l) in
      let u = cal !untraced and t = cal !traced in
      (* Summed top-level spans of each traced pass, with the pass's own
         duration. *)
      let tops =
        List.map
          (fun (r : Tracer.span) ->
            let covered =
              List.fold_left
                (fun acc (s : Tracer.span) ->
                  if s.Tracer.parent = r.Tracer.id then acc +. Tracer.duration s else acc)
                0.0 pass_spans
            in
            (covered, Tracer.duration r))
          (List.filter (fun (s : Tracer.span) -> s.Tracer.name = "pass") pass_spans)
      in
      (* The fastest traced pass, the one bench.traced_raw_s reports. *)
      let fastest_top =
        fst
          (List.fold_left
             (fun (c, d) (c', d') -> if d' < d then (c', d') else (c, d))
             (nan, infinity) tops)
      in
      let count n = float_of_int (List.assoc n first_counts) in
      List.map (fun (n, v) -> Probes.m (n ^ "_s") "s" v) (core @ scenario)
      @ probe_metrics
      @ [
          Probes.m "exec.store_hits" "count" (count "exec.store.hits");
          Probes.m "exec.store_misses" "count" (count "exec.store.misses");
          Probes.m "work.funcsim_retired" "count" (count "funcsim.retired.total");
          Probes.m "work.uarch_instrs" "count" (count "uarch.instrs");
          Probes.m "work.study_trace_refs" "count"
            (count "study.trace_refs" +. count "study.onepass.trace_refs");
          Probes.m "bench.first_pass_s" "s" first_dt.cal_s;
          Probes.m "bench.untraced_wall_s" "s" u;
          Probes.m "bench.traced_wall_s" "s" t;
          Probes.m "bench.trace_overhead_s" "s" (t -. u);
          Probes.m "bench.untraced_raw_s" "s" (raw !untraced);
          Probes.m "bench.traced_raw_s" "s" (raw !traced);
          Probes.m "bench.host_slice_ms" "ms"
            (1000.0 *. median (List.map (fun t -> t.slice_s) (first_dt :: (!untraced @ !traced))));
          Probes.m "bench.top_spans_s" "s" fastest_top;
          Probes.m "bench.span_coverage" "ratio" (median (List.map (fun (c, d) -> c /. d) tops));
        ]
    end
  in
  (* The workload's own peak, before the epilogue adds the other
     workloads' quality figures. *)
  let peak_rss = peak_rss_mb () in
  (* Epilogue, outside every timing: oracles, clone halting and, in a
     timed run, the quality figures other workloads own. *)
  List.iter (record_op ck) (Probes.oracles ctx);
  List.iter (record_op ck) (Work.check_clones_halt (clones_of p first));
  let quality = if traced_run then [] else first.Work.quality @ Work.quality_panel w in
  if traced_run then begin
    (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat spans_dir (Printf.sprintf "spans-%s-seed%d.json" !workload !seed) in
    Tracer.write_json path (Tracer.recorded ());
    Printf.eprintf "spans written to %s\n%!" path
  end;
  let metrics =
    if traced_run then per_layer
    else
      [
        Probes.m "wall_s" "s" (minimum (List.map (fun t -> t.cal_s) !untraced));
        Probes.m "setup_s" "s" setup_s;
        Probes.m "peak_rss_mb" "MB" peak_rss;
      ]
      @ List.map
          (fun (name, unit) ->
            Probes.m name unit (Option.value ~default:nan (List.assoc_opt name quality)))
          [
            ("ipc_err_pct", "%");
            ("power_err_pct", "%");
            ("cache_r", "r");
            ("fidelity_err", "score");
            ("slowdown_gap", "ratio");
          ]
  in
  List.iter
    (fun (m : Probes.metric) ->
      if not (Float.is_finite m.Probes.value) then begin
        ck.failed <- ck.failed + 1;
        Printf.eprintf "FAILED metric %s is not finite\n%!" m.Probes.name
      end)
    metrics;
  let metrics =
    List.map
      (fun (m : Probes.metric) ->
        if Float.is_finite m.Probes.value then m else { m with Probes.value = 0.0 })
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (ck.failed = 0) ck.attempted ck.failed (json_metrics metrics)
