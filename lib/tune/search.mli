(** Seeded successive-halving search over the clone generator's knobs.

    The tuner closes the cloning loop: generate a candidate clone for a
    knob vector, measure it ({!Fitness.measure}), and use the score to
    drive the next round of candidates.  The search is successive
    halving with local mutation: generation 0 evaluates the default
    knob vector plus seeded random draws; each following generation
    keeps the better half of the previous one and refills with single-
    knob mutations of the survivors (and random draws when mutation
    exhausts its novelty), halving the population until it reaches two
    or the evaluation budget runs out.

    Determinism is load-bearing, not best-effort:

    - every random draw (candidate creation, mutation) happens on the
      calling domain from one {!Pc_util.Rng} seeded by [seed];
    - evaluations fan out through {!Pc_exec.Pool.map}, which preserves
      input order, and candidates are deduplicated through a
      main-domain memo before fanning, so each unique
      (profile, knobs, mode, seed) key is evaluated exactly once no
      matter the pool width — winners, per-generation scores {e and}
      store hit/miss counts are byte-identical at [-j 1] and [-j N];
    - selection ties break on insertion order, never on timing.

    With an on-disk store ({!Pc_exec.Disk_store}, magic
    [pc-tune-eval/2], counters [tune.store.*]), every unique evaluation
    is content-addressed and memoised across runs: a rerun with the
    same inputs converges to the identical result from cache alone.

    Instrumented with [tune:search] / [tune:generation] spans, the
    [tune.evals] / [tune.memo_hits] counters and the
    [tune.best_fitness_bp] gauge (best fitness in basis points). *)

type knobs = {
  k_block_scale : float;
  k_max_streams : int;
  k_dep_jitter : float;
  k_stride_bias : float;
  k_period_min : int;
  k_period_max : int;
}
(** One point of the tunable surface — exactly the tuning fields of
    {!Pc_synth.Synth.options}. *)

val default_knobs : knobs
(** The neutral vector: {!Pc_synth.Synth.default_options}'s knob
    values.  Always candidate 0 of generation 0, so the search's
    baseline fitness is the untuned generator's. *)

val eval_disk : Fitness.eval Pc_exec.Disk_store.kind
(** The on-disk evaluation store behind [run ~store]: magic
    [pc-tune-eval/2], [.eval] entries, [tune.store.*] counters, default
    directory [pc-tune], at most 512 entries. *)

val knobs_id : knobs -> string
(** Stable digest of a knob vector (part of the tune-store key). *)

val options_of_knobs :
  seed:int -> target_dynamic:int -> knobs -> Pc_synth.Synth.options
(** The generator options a knob vector denotes; [seed] and
    [target_dynamic] come from the run, not the search. *)

val random_knobs : Pc_util.Rng.t -> knobs
(** One uniform draw from the knob grids: block scale in
    [{0.5..2.0}] (7 points), streams in [1..12], jitter in
    [{0..0.35}] (5 points), stride bias in [{-0.5..0.5}] (5 points),
    period bounds as a pow2 pair with [2 <= min <= max <= 256].  All
    integer draws go through {!Pc_util.Rng.int} (rejection-sampled) —
    never a raw modulo, whose bias over non-power-of-two ranges like
    the 12 stream counts the distribution test would catch. *)

val mutate : Pc_util.Rng.t -> knobs -> knobs
(** A local move: pick one knob uniformly and step it to a neighbouring
    grid point (direction uniform; clamped at the grid edges, and the
    period pair stays ordered). *)

type generation = {
  g_index : int;
  g_evals : int;  (** unique evaluations this generation added *)
  g_best : float;  (** best fitness seen up to and including it *)
}

type result = {
  r_bench : string;
  r_budget : int;
  r_evals : int;  (** unique evaluations performed (cached or computed) *)
  r_memo_hits : int;
      (** candidate occurrences answered by the in-run memo (survivors
          re-entering a generation, duplicate draws) *)
  r_store_hits : int;  (** unique evaluations answered by the on-disk store *)
  r_store_misses : int;  (** unique evaluations computed fresh *)
  r_generations : generation list;
  r_default : Fitness.eval;  (** the untuned generator's score *)
  r_best : Fitness.eval;
  r_best_knobs : knobs;
}

val run :
  ?pool:Pc_exec.Pool.t ->
  ?store:string ->
  ?budget:int ->
  ?phases:int * Pc_isa.Program.t ->
  bench:string ->
  seed:int ->
  profile_instrs:int ->
  target_dynamic:int ->
  mode:Fitness.mode ->
  Pc_profile.Profile.t ->
  result
(** Tune one benchmark's clone against [mode].  [budget] (default 32)
    bounds unique evaluations; [pool] (default serial) fans them out —
    callers must not invoke [run] from inside a pool task themselves
    (pool batches do not nest); [store] (default none) memoises across
    runs in that directory ([""] for the default [pc-tune] cache
    directory, at most 512 entries kept); [phases = (interval, original_program)] turns on per-phase
    mimic scoring and participates in the store key.  [profile_instrs]
    is the measurement budget ({!Fitness.measure}'s [max_instrs]) and,
    like every argument that shapes the score, part of the store key.
    Raises [Invalid_argument] when [budget < 1]. *)
