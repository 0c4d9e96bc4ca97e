(* Tests for pc_branch: static, bimodal and GAp predictors. *)

module P = Pc_branch.Predictor

let observe_sequence pred outcomes =
  List.fold_left
    (fun wrong (pc, taken) -> if P.observe pred ~pc ~taken then wrong else wrong + 1)
    0 outcomes

let repeat n x = List.init n (fun _ -> x)

(* --- static predictors --- *)

let test_taken_static () =
  let p = P.create P.Taken in
  let wrong = observe_sequence p (repeat 100 (0, true) @ repeat 50 (0, false)) in
  Alcotest.(check int) "mispredicts exactly the not-taken" 50 wrong;
  Alcotest.(check int) "lookups" 150 (P.lookups p)

let test_not_taken_static () =
  let p = P.create P.Not_taken in
  let wrong = observe_sequence p (repeat 100 (0, true) @ repeat 50 (0, false)) in
  Alcotest.(check int) "mispredicts exactly the taken" 100 wrong

let test_perfect () =
  let p = P.create P.Perfect in
  let wrong =
    observe_sequence p (List.init 100 (fun i -> (i mod 7, i mod 3 = 0)))
  in
  Alcotest.(check int) "never wrong" 0 wrong;
  Alcotest.(check (float 0.0)) "rate 0" 0.0 (P.misprediction_rate p)

(* --- bimodal --- *)

let test_bimodal_learns_bias () =
  let p = P.create (P.Bimodal 1024) in
  (* strongly biased taken branch: after warmup, always predicted *)
  let _ = observe_sequence p (repeat 10 (0x40, true)) in
  Alcotest.(check bool) "predicts taken" true (P.predict p ~pc:0x40);
  let wrong = observe_sequence p (repeat 100 (0x40, true)) in
  Alcotest.(check int) "no mispredictions once trained" 0 wrong

let test_bimodal_hysteresis () =
  let p = P.create (P.Bimodal 1024) in
  let _ = observe_sequence p (repeat 10 (0, true)) in
  (* one not-taken outcome must not flip a saturated counter *)
  let _ = observe_sequence p [ (0, false) ] in
  Alcotest.(check bool) "still predicts taken" true (P.predict p ~pc:0)

let test_bimodal_alternating_is_hard () =
  let p = P.create (P.Bimodal 1024) in
  let outcomes = List.init 200 (fun i -> (0, i mod 2 = 0)) in
  let wrong = observe_sequence p outcomes in
  (* weakly-biased counters mispredict alternation about half the time *)
  Alcotest.(check bool) "roughly half wrong" true (wrong > 60 && wrong < 140)

let test_bimodal_aliasing () =
  (* two branches mapping to the same entry interfere *)
  let p = P.create (P.Bimodal 16) in
  let a = 0x10 and b = 0x20 in
  (* same index (16-entry table): 0x10 land 15 = 0 = 0x20 land 15 *)
  let _ = observe_sequence p (repeat 8 (a, true)) in
  let _ = observe_sequence p (repeat 8 (b, false)) in
  Alcotest.(check bool) "b pushed the shared counter to not-taken" false
    (P.predict p ~pc:a)

let test_bimodal_validation () =
  Alcotest.(check bool) "non-power-of-two rejected" true
    (match P.create (P.Bimodal 100) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- GAp --- *)

let test_gap_learns_alternation () =
  (* Global history lets GAp predict a strict alternation perfectly. *)
  let p = P.create (P.Gap { history_bits = 4; tables = 16 }) in
  let outcomes = List.init 400 (fun i -> (0x8, i mod 2 = 0)) in
  let warmup = observe_sequence p outcomes in
  let wrong = observe_sequence p outcomes in
  Alcotest.(check bool) "no worse after training" true (wrong <= warmup);
  Alcotest.(check bool) "few errors" true (wrong < 10)

let test_gap_learns_period4 () =
  let p = P.create P.base_gap in
  let outcomes = List.init 800 (fun i -> (0x8, i mod 4 < 3)) in
  let _warmup = observe_sequence p outcomes in
  let wrong = observe_sequence p outcomes in
  Alcotest.(check bool) "period-4 pattern learned" true (wrong < 20)

let test_gap_random_is_hard () =
  let p = P.create P.base_gap in
  let rng = Pc_util.Rng.create 5 in
  let outcomes = List.init 2000 (fun _ -> (0x8, Pc_util.Rng.bool rng)) in
  let wrong = observe_sequence p outcomes in
  (* unpredictable: close to 50% *)
  Alcotest.(check bool) "near half wrong" true (wrong > 700 && wrong < 1300)

let test_gap_separate_tables () =
  (* Different pcs use different pattern tables: training one branch
     must not disturb another with a different pc. *)
  let p = P.create (P.Gap { history_bits = 2; tables = 256 }) in
  let _ = observe_sequence p (repeat 50 (1, true)) in
  let _ = observe_sequence p (repeat 50 (2, false)) in
  (* both stay correct *)
  let w1 = observe_sequence p (repeat 20 (1, true)) in
  let w2 = observe_sequence p (repeat 20 (2, false)) in
  Alcotest.(check int) "branch 1 stable" 0 w1;
  Alcotest.(check int) "branch 2 stable" 0 w2

let test_gap_validation () =
  Alcotest.(check bool) "bad history bits" true
    (match P.create (P.Gap { history_bits = 0; tables = 16 }) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "bad table count" true
    (match P.create (P.Gap { history_bits = 4; tables = 100 }) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- gshare / PAp / tournament --- *)

let test_gshare_learns_global_patterns () =
  let p = P.create (P.Gshare { history_bits = 8; entries = 4096 }) in
  (* two correlated branches: the second repeats the first's direction *)
  let outcomes =
    List.concat
      (List.init 300 (fun i ->
           let d = i mod 3 = 0 in
           [ (0x10, d); (0x24, d) ]))
  in
  let _warm = observe_sequence p outcomes in
  let wrong = observe_sequence p outcomes in
  Alcotest.(check bool) "correlated branches learned" true (wrong < 30)

let test_gshare_validation () =
  Alcotest.(check bool) "bad entries" true
    (match P.create (P.Gshare { history_bits = 8; entries = 100 }) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_pap_learns_local_period () =
  (* A period-3 local pattern with an interleaved noisy branch: PAp's
     per-address history isolates the periodic one. *)
  let p = P.create (P.Pap { history_bits = 6; tables = 64 }) in
  let rng = Pc_util.Rng.create 3 in
  let outcomes =
    List.concat
      (List.init 500 (fun i ->
           [ (0x8, i mod 3 = 0); (0x9, Pc_util.Rng.bool rng) ]))
  in
  let _warm = observe_sequence p outcomes in
  (* measure only the periodic branch *)
  let periodic = List.init 300 (fun i -> (0x8, i mod 3 = 0)) in
  let wrong = observe_sequence p periodic in
  Alcotest.(check bool) "local period learned despite noise" true (wrong < 30)

let test_tournament_picks_better_component () =
  (* alternation: gshare learns it, bimodal cannot — the tournament must
     converge to gshare-level accuracy *)
  let mk () = P.Tournament
      { meta_entries = 256; a = P.Bimodal 1024;
        b = P.Gshare { history_bits = 8; entries = 4096 } }
  in
  let p = P.create (mk ()) in
  let outcomes = List.init 600 (fun i -> (0x8, i mod 2 = 0)) in
  let _warm = observe_sequence p outcomes in
  let wrong = observe_sequence p outcomes in
  Alcotest.(check bool) "tournament reaches the good component" true (wrong < 30)

let test_tournament_validation () =
  Alcotest.(check bool) "bad meta entries" true
    (match P.create (P.Tournament { meta_entries = 3; a = P.Taken; b = P.Not_taken }) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_config_names () =
  Alcotest.(check string) "taken" "taken" (P.config_name P.Taken);
  Alcotest.(check string) "gap" "gap-h8-t256" (P.config_name P.base_gap);
  Alcotest.(check string) "gshare" "gshare-h8-e4096"
    (P.config_name (P.Gshare { history_bits = 8; entries = 4096 }));
  Alcotest.(check string) "tournament" "tournament(taken,not-taken)"
    (P.config_name (P.Tournament { meta_entries = 4; a = P.Taken; b = P.Not_taken }))

let test_rate_accounting () =
  let p = P.create P.Not_taken in
  let _ = observe_sequence p [ (0, true); (0, false); (0, true); (0, true) ] in
  Alcotest.(check int) "mispredictions" 3 (P.mispredictions p);
  Alcotest.(check (float 1e-9)) "rate" 0.75 (P.misprediction_rate p)

let qcheck_biased_branches_are_predictable =
  QCheck.Test.make ~name:"heavily biased branches mispredict rarely (bimodal)"
    ~count:50
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Pc_util.Rng.create seed in
      let p = P.create (P.Bimodal 256) in
      let wrong = ref 0 in
      for _ = 1 to 500 do
        (* 95% taken *)
        let taken = Pc_util.Rng.int rng 100 < 95 in
        if not (P.observe p ~pc:0x7 ~taken) then incr wrong
      done;
      !wrong < 75)

let qcheck_mispredict_rate_bounds =
  QCheck.Test.make ~name:"misprediction rate within [0,1] for any stream" ~count:100
    QCheck.(pair (int_range 0 7) (list_of_size Gen.(int_range 1 300) bool))
    (fun (which, outcomes) ->
      let cfg =
        match which with
        | 0 -> P.Taken
        | 1 -> P.Not_taken
        | 2 -> P.Bimodal 64
        | 3 -> P.base_gap
        | 4 -> P.Gshare { history_bits = 6; entries = 256 }
        | 5 -> P.Pap { history_bits = 4; tables = 32 }
        | 6 ->
          P.Tournament { meta_entries = 64; a = P.Bimodal 64; b = P.base_gap }
        | _ -> P.Perfect
      in
      let p = P.create cfg in
      List.iteri (fun i taken -> ignore (P.observe p ~pc:(i mod 13) ~taken)) outcomes;
      let r = P.misprediction_rate p in
      r >= 0.0 && r <= 1.0)

(* The one-pass sweep must be indistinguishable from running each
   predictor on its own over the same stream. *)
let sweep_configs =
  [
    P.Taken;
    P.Not_taken;
    P.Bimodal 64;
    P.base_gap;
    P.Gshare { history_bits = 6; entries = 256 };
    P.Pap { history_bits = 4; tables = 32 };
    P.Tournament
      {
        meta_entries = 64;
        a = P.Bimodal 64;
        b =
          P.Tournament
            {
              meta_entries = 16;
              a = P.Gshare { history_bits = 4; entries = 64 };
              b = P.base_gap;
            };
      };
    P.Perfect;
  ]

let qcheck_sweep_equals_independent =
  QCheck.Test.make ~name:"sweep = independent per-config observe loops" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 400) (pair (int_bound 4095) bool))
    (fun stream ->
      let counts p = (P.lookups p, P.mispredictions p) in
      let swept =
        P.sweep sweep_configs ~feed:(fun observe ->
            List.iter (fun (pc, taken) -> observe ~pc ~taken) stream)
      in
      let independent =
        List.map
          (fun cfg ->
            let p = P.create cfg in
            List.iter (fun (pc, taken) -> ignore (P.observe p ~pc ~taken)) stream;
            counts p)
          sweep_configs
      in
      List.map counts swept = independent)

let () =
  Alcotest.run "pc_branch"
    [
      ( "static",
        [
          Alcotest.test_case "always taken" `Quick test_taken_static;
          Alcotest.test_case "always not-taken" `Quick test_not_taken_static;
          Alcotest.test_case "perfect oracle" `Quick test_perfect;
        ] );
      ( "bimodal",
        [
          Alcotest.test_case "learns bias" `Quick test_bimodal_learns_bias;
          Alcotest.test_case "two-bit hysteresis" `Quick test_bimodal_hysteresis;
          Alcotest.test_case "alternation is hard" `Quick test_bimodal_alternating_is_hard;
          Alcotest.test_case "aliasing interference" `Quick test_bimodal_aliasing;
          Alcotest.test_case "validation" `Quick test_bimodal_validation;
          QCheck_alcotest.to_alcotest qcheck_biased_branches_are_predictable;
        ] );
      ( "gap",
        [
          Alcotest.test_case "learns alternation" `Quick test_gap_learns_alternation;
          Alcotest.test_case "learns period-4 patterns" `Quick test_gap_learns_period4;
          Alcotest.test_case "random is hard" `Quick test_gap_random_is_hard;
          Alcotest.test_case "per-address tables" `Quick test_gap_separate_tables;
          Alcotest.test_case "validation" `Quick test_gap_validation;
        ] );
      ( "advanced",
        [
          Alcotest.test_case "gshare learns correlated branches" `Quick
            test_gshare_learns_global_patterns;
          Alcotest.test_case "gshare validation" `Quick test_gshare_validation;
          Alcotest.test_case "PAp learns local periods" `Quick test_pap_learns_local_period;
          Alcotest.test_case "tournament picks the better component" `Quick
            test_tournament_picks_better_component;
          Alcotest.test_case "tournament validation" `Quick test_tournament_validation;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "config names" `Quick test_config_names;
          Alcotest.test_case "rates" `Quick test_rate_accounting;
          QCheck_alcotest.to_alcotest qcheck_mispredict_rate_bounds;
        ] );
      ("sweep", [ QCheck_alcotest.to_alcotest qcheck_sweep_equals_independent ]);
    ]
