module Rng = Pc_util.Rng
module Pool = Pc_exec.Pool
module Synth = Pc_synth.Synth
module M = Pc_obs.Metrics

let log_src = Logs.Src.create "pc.tune" ~doc:"Closed-loop clone knob tuning"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Every input that shapes a score is part of the key (see [run]), so
   only {!Fitness.eval}'s layout versions the magic. *)
let eval_disk : Fitness.eval Pc_exec.Disk_store.kind =
  Pc_exec.Disk_store.kind ~max_entries:512 ~name:"tune.store"
    ~magic:"pc-tune-eval/2" ~ext:".eval" ~default_dir:"pc-tune" ()

let c_evals = M.counter "tune.evals"
let c_memo_hits = M.counter "tune.memo_hits"
let c_generations = M.counter "tune.generations"
let g_best_bp = M.gauge "tune.best_fitness_bp"

type knobs = {
  k_block_scale : float;
  k_max_streams : int;
  k_dep_jitter : float;
  k_stride_bias : float;
  k_period_min : int;
  k_period_max : int;
}

let default_knobs =
  let o = Synth.default_options in
  {
    k_block_scale = o.Synth.block_scale;
    k_max_streams = o.Synth.max_streams;
    k_dep_jitter = o.Synth.dep_jitter;
    k_stride_bias = o.Synth.stride_bias;
    k_period_min = o.Synth.period_min;
    k_period_max = o.Synth.period_max;
  }

let knobs_id k = Digest.to_hex (Digest.string (Marshal.to_string k []))

let options_of_knobs ~seed ~target_dynamic k =
  {
    Synth.default_options with
    Synth.seed;
    target_dynamic;
    max_streams = k.k_max_streams;
    block_scale = k.k_block_scale;
    dep_jitter = k.k_dep_jitter;
    stride_bias = k.k_stride_bias;
    period_min = k.k_period_min;
    period_max = k.k_period_max;
  }

(* The knob grids.  Streams span 1..12 and the period exponents span
   non-power-of-two ranges, so every integer draw below goes through
   {!Rng.int}'s rejection sampling — a raw [bits mod n] would skew the
   low values of those ranges. *)
let block_scales = [| 0.5; 0.7; 0.85; 1.0; 1.2; 1.5; 2.0 |]
let jitters = [| 0.0; 0.05; 0.1; 0.2; 0.35 |]
let biases = [| -0.5; -0.25; 0.0; 0.25; 0.5 |]

let random_knobs rng =
  let k_block_scale = Rng.pick rng block_scales in
  let k_max_streams = 1 + Rng.int rng 12 in
  let k_dep_jitter = Rng.pick rng jitters in
  let k_stride_bias = Rng.pick rng biases in
  let e_min = 1 + Rng.int rng 4 in
  let e_max = e_min + Rng.int rng (9 - e_min) in
  {
    k_block_scale;
    k_max_streams;
    k_dep_jitter;
    k_stride_bias;
    k_period_min = 1 lsl e_min;
    k_period_max = 1 lsl e_max;
  }

let clamp lo hi v = max lo (min hi v)

let rec ilog2 n = if n <= 1 then 0 else 1 + ilog2 (n / 2)

(* Step to a neighbouring grid point: nearest index, then one move in a
   uniform direction (deterministically inward at the edges). *)
let grid_step rng arr v =
  let best = ref 0 in
  Array.iteri
    (fun i x ->
      if Float.abs (x -. v) < Float.abs (arr.(!best) -. v) then best := i)
    arr;
  let i = !best in
  let j =
    if i = 0 then 1
    else if i = Array.length arr - 1 then i - 1
    else if Rng.bool rng then i + 1
    else i - 1
  in
  arr.(j)

let mutate rng k =
  let dir () = if Rng.bool rng then 1 else -1 in
  match Rng.int rng 6 with
  | 0 -> { k with k_block_scale = grid_step rng block_scales k.k_block_scale }
  | 1 -> { k with k_max_streams = clamp 1 12 (k.k_max_streams + dir ()) }
  | 2 -> { k with k_dep_jitter = grid_step rng jitters k.k_dep_jitter }
  | 3 -> { k with k_stride_bias = grid_step rng biases k.k_stride_bias }
  | 4 ->
    let e_min = ilog2 k.k_period_min and e_max = ilog2 k.k_period_max in
    { k with k_period_min = 1 lsl clamp 1 e_max (e_min + dir ()) }
  | _ ->
    let e_min = ilog2 k.k_period_min and e_max = ilog2 k.k_period_max in
    { k with k_period_max = 1 lsl clamp e_min 8 (e_max + dir ()) }

type generation = { g_index : int; g_evals : int; g_best : float }

type result = {
  r_bench : string;
  r_budget : int;
  r_evals : int;
  r_memo_hits : int;
  r_store_hits : int;
  r_store_misses : int;
  r_generations : generation list;
  r_default : Fitness.eval;
  r_best : Fitness.eval;
  r_best_knobs : knobs;
}

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let run ?(pool = Pool.serial) ?store ?(budget = 32) ?phases ~bench ~seed
    ~profile_instrs ~target_dynamic ~mode profile =
  if budget < 1 then invalid_arg "Pc_tune.Search.run: budget must be positive";
  Pc_obs.Span.with_ "tune:search" @@ fun () ->
  let profile_id =
    Digest.to_hex (Digest.string (Marshal.to_string profile []))
  in
  (* The phase interval (and the original program it slices) shapes the
     mimic score, so it must shape the store key too: fold it into the
     mode digest rather than silently sharing entries with phase-less
     runs. *)
  let mode_key =
    match phases with
    | None -> Fitness.mode_id mode
    | Some (interval, prog) ->
      Digest.to_hex
        (Digest.string
           (Marshal.to_string
              ( Fitness.mode_id mode,
                interval,
                Digest.string (Marshal.to_string prog []) )
              []))
  in
  let key_of k =
    Pc_exec.Disk_store.key eval_disk
      (profile_id, knobs_id k, mode_key, seed, profile_instrs, target_dynamic)
  in
  let store = Option.map (Pc_exec.Disk_store.create eval_disk) store in
  (* All candidate creation happens here, on the calling domain, from
     this one generator: pool width never touches the random stream. *)
  let rng = Rng.create (seed lxor 0x74756e65) in
  let memo : (string, Fitness.eval) Hashtbl.t = Hashtbl.create 64 in
  let evals = ref 0 and memo_hits = ref 0 in
  let store_hits = ref 0 and store_misses = ref 0 in
  let compute k =
    let options = options_of_knobs ~seed ~target_dynamic k in
    let clone = Synth.generate ~options profile in
    Fitness.measure ~max_instrs:profile_instrs ?phases ~bench ~original:profile
      ~mode clone
  in
  (* Evaluate keys not yet in the in-run memo.  Deduplication through
     the memo means each unique key reaches the on-disk store exactly
     once per run, so hit/miss counts are deterministic at any -j. *)
  let eval_batch fresh =
    let results =
      Pool.map pool
        (fun (key, k) ->
          match store with
          | None -> (key, compute k, false)
          | Some st -> (
            match Pc_exec.Disk_store.find st key with
            | Some e -> (key, e, true)
            | None ->
              let e = compute k in
              Pc_exec.Disk_store.store st key e;
              (key, e, false)))
        fresh
    in
    List.iter
      (fun (key, e, hit) ->
        Hashtbl.replace memo key e;
        incr evals;
        M.incr c_evals;
        if hit then incr store_hits else incr store_misses)
      results
  in
  let build_generation ~gen_index ~pop survivors =
    let chosen = Hashtbl.create 16 in
    let out = ref [] in
    let count = ref 0 in
    let add (key, k) =
      if not (Hashtbl.mem chosen key) then begin
        Hashtbl.add chosen key ();
        out := (key, k) :: !out;
        incr count
      end
    in
    if gen_index = 0 then add (key_of default_knobs, default_knobs);
    List.iter add survivors;
    let survivor_arr = Array.of_list survivors in
    if Array.length survivor_arr > 0 then begin
      (* refill with local moves, round-robin over the survivors *)
      let attempts = ref 0 and i = ref 0 in
      while !count < pop && !attempts < pop * 8 do
        incr attempts;
        let s = snd survivor_arr.(!i mod Array.length survivor_arr) in
        incr i;
        let k = mutate rng s in
        add (key_of k, k)
      done
    end;
    (* random draws seed generation 0 and restore novelty when
       mutation keeps landing on already-chosen vectors *)
    let attempts = ref 0 in
    while !count < pop && !attempts < pop * 8 do
      incr attempts;
      let k = random_knobs rng in
      add (key_of k, k)
    done;
    List.rev !out
  in
  let p0 = max 4 (budget / 2) in
  let generations = ref [] in
  let survivors = ref [] in
  let pop = ref p0 in
  let gen_index = ref 0 in
  let best = ref None in
  let continue_ = ref true in
  while !continue_ do
    if !pop < 2 || !evals >= budget then continue_ := false
    else
      Pc_obs.Span.with_ "tune:generation" @@ fun () ->
      M.incr c_generations;
      let cands = build_generation ~gen_index:!gen_index ~pop:!pop !survivors in
      let fresh =
        List.filter (fun (key, _) -> not (Hashtbl.mem memo key)) cands
      in
      let known = List.length cands - List.length fresh in
      memo_hits := !memo_hits + known;
      M.add c_memo_hits known;
      let fresh = take (budget - !evals) fresh in
      eval_batch fresh;
      (* candidates beyond the eval budget carry no score and drop out *)
      let scored = List.filter (fun (key, _) -> Hashtbl.mem memo key) cands in
      let ranked =
        List.mapi (fun i (key, k) -> (Hashtbl.find memo key, i, key, k)) scored
        |> List.sort (fun (a, ia, _, _) (b, ib, _, _) ->
               match compare a.Fitness.fitness b.Fitness.fitness with
               | 0 -> compare ia ib
               | c -> c)
        |> List.map (fun (e, _, key, k) -> (e, key, k))
      in
      (match ranked with
      | [] -> continue_ := false
      | (e, _, k) :: _ -> (
        match !best with
        | Some (be, _) when be.Fitness.fitness <= e.Fitness.fitness -> ()
        | _ -> best := Some (e, k)));
      (match !best with
      | None -> ()
      | Some (be, _) ->
        Log.debug (fun m ->
            m "%s gen %d: %d candidates, %d fresh evals, best %.4f" bench
              !gen_index (List.length cands) (List.length fresh)
              be.Fitness.fitness);
        generations :=
          {
            g_index = !gen_index;
            g_evals = List.length fresh;
            g_best = be.Fitness.fitness;
          }
          :: !generations);
      let next_pop = !pop / 2 in
      let n_surv = max 1 (next_pop / 2) in
      survivors :=
        List.map (fun (_, key, k) -> (key, k)) (take n_surv ranked);
      pop := next_pop;
      incr gen_index
  done;
  let best_eval, best_knobs =
    match !best with
    | Some (e, k) -> (e, k)
    | None -> assert false (* generation 0 always ranks the default *)
  in
  let default_eval = Hashtbl.find memo (key_of default_knobs) in
  M.set g_best_bp (int_of_float (Float.min 1e12 (best_eval.Fitness.fitness *. 10000.)));
  Log.info (fun m ->
      m "%s: tuned %.4f -> %.4f in %d evals (%d memo, %d store hits)" bench
        default_eval.Fitness.fitness best_eval.Fitness.fitness !evals
        !memo_hits !store_hits);
  {
    r_bench = bench;
    r_budget = budget;
    r_evals = !evals;
    r_memo_hits = !memo_hits;
    r_store_hits = !store_hits;
    r_store_misses = !store_misses;
    r_generations = List.rev !generations;
    r_default = default_eval;
    r_best = best_eval;
    r_best_knobs = best_knobs;
  }
