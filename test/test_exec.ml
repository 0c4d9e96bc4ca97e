(* Tests for pc_exec: the domain pool must behave exactly like serial
   execution (order, exceptions, results) at every width, and the memo
   store must count hits/misses and keep seed-distinguished keys apart.
   The on-disk store must round-trip values, bound its size, and never
   serve a damaged entry: every corruption reads as a miss.
   The determinism-under-parallelism invariant — experiment rows are
   bit-identical at -j 1 and -j 4 — is the contract every driver in
   Perfclone.Experiments relies on. *)

module Pool = Pc_exec.Pool
module Store = Pc_exec.Store
module Disk_store = Pc_exec.Disk_store
module M = Pc_obs.Metrics
module E = Perfclone.Experiments

(* --- pool: unit --- *)

let test_map_preserves_order () =
  let pool = Pool.create ~num_domains:4 in
  let xs = List.init 100 (fun i -> i) in
  Alcotest.(check (list int))
    "results in input order"
    (List.map (fun x -> (x * x) + 1) xs)
    (Pool.map pool (fun x -> (x * x) + 1) xs)

let test_map_empty () =
  List.iter
    (fun j ->
      let pool = Pool.create ~num_domains:j in
      Alcotest.(check (list int)) "empty in, empty out" []
        (Pool.map pool (fun x -> x) []))
    [ 1; 4 ]

let test_serial_fallback () =
  let pool = Pool.create ~num_domains:1 in
  Alcotest.(check int) "one domain" 1 (Pool.num_domains pool);
  let xs = [ 3; 1; 4; 1; 5 ] in
  Alcotest.(check (list int))
    "num_domains=1 equals List.map"
    (List.map succ xs) (Pool.map pool succ xs)

let test_create_rejects_zero () =
  Alcotest.check_raises "num_domains=0 rejected"
    (Invalid_argument "Pc_exec.Pool.create: num_domains must be at least 1")
    (fun () -> ignore (Pool.create ~num_domains:0))

let test_exception_propagates_after_drain () =
  let pool = Pool.create ~num_domains:3 in
  let ran = Atomic.make 0 in
  let f x =
    Atomic.incr ran;
    if x = 5 then failwith "boom";
    x
  in
  (match Pool.map pool f (List.init 10 (fun i -> i)) with
  | _ -> Alcotest.fail "worker exception was swallowed"
  | exception Failure msg -> Alcotest.(check string) "worker exception" "boom" msg);
  Alcotest.(check int) "batch drained before re-raise" 10 (Atomic.get ran)

let test_earliest_exception_wins () =
  (* Two failing tasks: regardless of scheduling, the re-raised
     exception is the earliest failing input's. *)
  let pool = Pool.create ~num_domains:4 in
  let f x = if x = 3 || x = 7 then failwith (string_of_int x) else x in
  match Pool.map pool f (List.init 10 (fun i -> i)) with
  | _ -> Alcotest.fail "expected a failure"
  | exception Failure msg -> Alcotest.(check string) "input order" "3" msg

let test_nested_map_rejected () =
  let outer = Pool.create ~num_domains:2 in
  let inner = Pool.create ~num_domains:2 in
  match Pool.map outer (fun _ -> Pool.map inner succ [ 1; 2 ]) [ 1; 2; 3 ] with
  | _ -> Alcotest.fail "nested map was not rejected"
  | exception Invalid_argument _ -> ()

let test_map_reduce_ordered () =
  (* A non-commutative reduction detects any ordering violation. *)
  let pool = Pool.create ~num_domains:4 in
  let xs = List.init 20 (fun i -> i) in
  let concat =
    Pool.map_reduce pool
      ~f:string_of_int
      ~reduce:(fun acc s -> acc ^ "," ^ s)
      ~init:"" xs
  in
  Alcotest.(check string)
    "fold in input order"
    (List.fold_left (fun acc x -> acc ^ "," ^ string_of_int x) "" xs)
    concat

let test_many_domains_few_tasks () =
  let pool = Pool.create ~num_domains:8 in
  Alcotest.(check (list int)) "more domains than tasks" [ 2; 4 ]
    (Pool.map pool (fun x -> 2 * x) [ 1; 2 ])

(* --- store: unit --- *)

let test_store_hit_miss_counts () =
  let s : (string * int, int) Store.t = Store.create () in
  let calls = ref 0 in
  let get k v =
    Store.find_or_compute s k (fun () ->
        incr calls;
        v)
  in
  Alcotest.(check int) "computed" 10 (get ("a", 1) 10);
  Alcotest.(check int) "miss counted" 1 (Store.misses s);
  Alcotest.(check int) "no hit yet" 0 (Store.hits s);
  Alcotest.(check int) "cached" 10 (get ("a", 1) 99);
  Alcotest.(check int) "hit counted" 1 (Store.hits s);
  Alcotest.(check int) "computed exactly once" 1 !calls;
  Alcotest.(check int) "one entry" 1 (Store.length s);
  Store.clear s;
  Alcotest.(check int) "cleared entries" 0 (Store.length s);
  Alcotest.(check int) "cleared hits" 0 (Store.hits s);
  Alcotest.(check int) "cleared misses" 0 (Store.misses s)

let test_store_seed_keys_do_not_collide () =
  (* The profile store keys on (benchmark, profile_instrs, seed): keys
     differing only in the seed must resolve to distinct entries. *)
  let s : (string * int * int, int) Store.t = Store.create () in
  let v1 = Store.find_or_compute s ("crc32", 300_000, 1) (fun () -> 111) in
  let v2 = Store.find_or_compute s ("crc32", 300_000, 2) (fun () -> 222) in
  Alcotest.(check int) "seed 1 value" 111 v1;
  Alcotest.(check int) "seed 2 value" 222 v2;
  Alcotest.(check int) "two distinct entries" 2 (Store.length s);
  Alcotest.(check int) "both were misses" 2 (Store.misses s);
  Alcotest.(check int) "seed 1 still cached" 111
    (Store.find_or_compute s ("crc32", 300_000, 1) (fun () -> 999))

let test_store_exception_caches_nothing () =
  let s : (int, int) Store.t = Store.create () in
  (match Store.find_or_compute s 1 (fun () -> failwith "compute failed") with
  | _ -> Alcotest.fail "expected the compute exception"
  | exception Failure _ -> ());
  Alcotest.(check int) "nothing cached" 0 (Store.length s);
  Alcotest.(check int) "retry computes" 5
    (Store.find_or_compute s 1 (fun () -> 5))

let test_store_parallel_access () =
  (* Pool workers sharing one store: every key resolves to one value. *)
  let s : (int, int) Store.t = Store.create () in
  let pool = Pool.create ~num_domains:4 in
  let results =
    Pool.map pool
      (fun i -> Store.find_or_compute s (i mod 8) (fun () -> 3 * (i mod 8)))
      (List.init 64 (fun i -> i))
  in
  List.iteri
    (fun i v -> Alcotest.(check int) "consistent value" (3 * (i mod 8)) v)
    results;
  Alcotest.(check int) "8 entries" 8 (Store.length s)

(* --- qcheck: Pool.map ≡ List.map at random widths --- *)

let qcheck_pool_map_equiv =
  QCheck.Test.make ~name:"Pool.map ≡ List.map for any num_domains in [1..8]"
    ~count:40
    QCheck.(pair (small_list int) (int_range 1 8))
    (fun (xs, num_domains) ->
      let pool = Pool.create ~num_domains in
      let f x = (x * 7919) lxor (x lsr 3) in
      Pool.map pool f xs = List.map f xs)

(* --- disk store --- *)

(* A value with the shapes the real kinds store: floats, strings, a
   list and an array. *)
type sample_value = { score : float; parts : (string * float) list; ids : int array }

let value =
  { score = 0.25; parts = [ ("ipc", 0.125); ("mpki", 1.5) ]; ids = [| 3; 1; 4 |] }

let kind ?max_entries magic =
  Disk_store.kind ?max_entries ~name:"test.disk" ~magic ~ext:".t" ~default_dir:"pc-test" ()

let test_kind : sample_value Disk_store.kind = kind "pc-test/1"

let fresh_dir () =
  let path = Filename.temp_file "pc_disk_store_test" "" in
  Sys.remove path;
  path

let counter name =
  Option.value ~default:0 (List.assoc_opt name (M.snapshot ()).M.counters)

let entries dir = List.sort compare (Array.to_list (Sys.readdir dir))

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_disk_roundtrip_counters () =
  let dir = fresh_dir () in
  let t : sample_value Disk_store.t = Disk_store.create test_kind dir in
  let key = Disk_store.key test_kind ("roundtrip", 1) in
  let hits0 = counter "test.disk.hits" and misses0 = counter "test.disk.misses" in
  Alcotest.(check bool) "cold lookup misses" true (Disk_store.find t key = None);
  Alcotest.(check int) "miss counted" (misses0 + 1) (counter "test.disk.misses");
  Disk_store.store t key value;
  Alcotest.(check bool) "warm lookup returns the stored value" true
    (Disk_store.find t key = Some value);
  Alcotest.(check int) "hit counted" (hits0 + 1) (counter "test.disk.hits");
  Alcotest.(check int) "hit is not a miss" (misses0 + 1) (counter "test.disk.misses");
  Alcotest.(check (list string)) "one entry, no temporary files left" [ key ^ ".t" ]
    (entries dir);
  Alcotest.(check bool) "keys separate their parts" true
    (Disk_store.key test_kind ("roundtrip", 2) <> key);
  Alcotest.(check bool) "keys separate magics" true
    (Disk_store.key (kind "pc-test/2") ("roundtrip", 1) <> key)

let test_disk_corruption_recovery () =
  let dir = fresh_dir () in
  let t : sample_value Disk_store.t = Disk_store.create test_kind dir in
  let key = Disk_store.key test_kind "corrupt" in
  let path = Filename.concat dir (key ^ ".t") in
  let miss_and_removed what contents =
    write_file path contents;
    Alcotest.(check bool) (what ^ " reads as a miss") true (Disk_store.find t key = None);
    Alcotest.(check bool) (what ^ " removed") false (Sys.file_exists path)
  in
  Disk_store.store t key value;
  let good = read_file path in
  (* Valid magic, garbled payload: must be dropped, not trusted. *)
  miss_and_removed "garbled payload"
    ("pc-test/1\n" ^ String.make 32 '0' ^ "\nnot a value");
  let computed = ref false in
  let recovered =
    Disk_store.find_or_compute t key (fun () ->
        computed := true;
        value)
  in
  Alcotest.(check bool) "recomputed after corruption" true !computed;
  Alcotest.(check bool) "recomputed value returned" true (recovered = value);
  Alcotest.(check bool) "recomputed value re-stored" true (Disk_store.find t key = Some value);
  miss_and_removed "truncated header" "pc-t";
  miss_and_removed "truncated payload" (String.sub good 0 (String.length good - 1));
  miss_and_removed "foreign magic"
    ("pc-test/0" ^ String.sub good 9 (String.length good - 9));
  miss_and_removed "empty file" ""

(* Flipping any single bit of a stored entry must never yield a
   different value or abort: the digest is checked before unmarshalling. *)
let test_disk_bit_flips () =
  let dir = fresh_dir () in
  let t : sample_value Disk_store.t = Disk_store.create test_kind dir in
  let key = Disk_store.key test_kind "flips" in
  let path = Filename.concat dir (key ^ ".t") in
  Disk_store.store t key value;
  let good = read_file path in
  let wrong = ref 0 in
  for bit = 0 to (8 * String.length good) - 1 do
    let b = Bytes.of_string good in
    let i = bit / 8 in
    Bytes.set b i (Char.chr (Char.code good.[i] lxor (1 lsl (bit mod 8))));
    write_file path (Bytes.to_string b);
    match Disk_store.find t key with
    | Some v when v <> value -> incr wrong
    | Some _ | None -> ()
  done;
  Alcotest.(check int) "no flip served a different value" 0 !wrong

let test_disk_eviction () =
  let dir = fresh_dir () in
  let small = kind ~max_entries:2 "pc-test/1" in
  let t : int Disk_store.t = Disk_store.create small dir in
  let ev0 = counter "test.disk.evictions" in
  List.iter (fun i -> Disk_store.store t (Disk_store.key small i) i) [ 0; 1; 2 ];
  Alcotest.(check int) "eviction keeps max_entries" 2 (List.length (entries dir));
  Alcotest.(check int) "eviction counted" (ev0 + 1) (counter "test.disk.evictions");
  Alcotest.check_raises "max_entries must be positive"
    (Invalid_argument "Pc_exec.Disk_store.kind: max_entries must be positive")
    (fun () -> ignore (kind ~max_entries:0 "pc-test/1"))

let test_disk_default_dir () =
  let saved = Option.value ~default:"" (Sys.getenv_opt "XDG_CACHE_HOME") in
  let base = fresh_dir () in
  Unix.putenv "XDG_CACHE_HOME" base;
  Fun.protect ~finally:(fun () -> Unix.putenv "XDG_CACHE_HOME" saved) @@ fun () ->
  let t = Disk_store.create test_kind "" in
  let expected = Filename.concat base "pc-test" in
  Alcotest.(check bool) "empty dir means the kind's default, created" true
    (Sys.is_directory expected);
  let key = Disk_store.key test_kind "default" in
  Disk_store.store t key value;
  Alcotest.(check bool) "entries land there" true
    (Sys.file_exists (Filename.concat expected (key ^ ".t")));
  Alcotest.(check string) "explicit dir kept" "x/y"
    (Disk_store.resolve_dir ~default:"pc-test" "x/y")

let test_disk_unusable_dir () =
  (* A directory under a regular file can never be created: the store
     must degrade to always-miss instead of raising. *)
  let file = Filename.temp_file "pc_disk_store_file" "" in
  let t = Disk_store.create test_kind (Filename.concat file "sub") in
  let key = Disk_store.key test_kind "unusable" in
  Disk_store.store t key value;
  Alcotest.(check bool) "lookups miss" true (Disk_store.find t key = None);
  Alcotest.(check bool) "find_or_compute still computes" true
    (Disk_store.find_or_compute t key (fun () -> value) = value)

(* --- determinism under parallelism: fig3/fig6 at -j 1 vs -j 4 --- *)

let fig_rows jobs =
  (* Cold caches each time: the serial and parallel runs must recompute
     everything and still agree bit-for-bit. *)
  E.clear_caches ();
  let pool = Pool.create ~num_domains:jobs in
  let settings = E.quick_settings in
  let pipelines = E.prepare ~pool settings in
  (E.fig3 pipelines, E.base_runs ~pool settings pipelines)

let test_fig_rows_deterministic () =
  let fig3_serial, fig6_serial = fig_rows 1 in
  let fig3_parallel, fig6_parallel = fig_rows 4 in
  Alcotest.(check bool) "fig3 rows identical at -j 1 and -j 4" true
    (compare fig3_serial fig3_parallel = 0);
  Alcotest.(check bool) "fig6 rows identical at -j 1 and -j 4" true
    (compare fig6_serial fig6_parallel = 0)

let () =
  Alcotest.run "pc_exec"
    [
      ( "pool",
        [
          Alcotest.test_case "order preservation" `Quick test_map_preserves_order;
          Alcotest.test_case "empty input" `Quick test_map_empty;
          Alcotest.test_case "num_domains=1 fallback" `Quick test_serial_fallback;
          Alcotest.test_case "invalid num_domains" `Quick test_create_rejects_zero;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates_after_drain;
          Alcotest.test_case "earliest exception wins" `Quick
            test_earliest_exception_wins;
          Alcotest.test_case "nested map rejected" `Quick test_nested_map_rejected;
          Alcotest.test_case "map_reduce order" `Quick test_map_reduce_ordered;
          Alcotest.test_case "more domains than tasks" `Quick
            test_many_domains_few_tasks;
          QCheck_alcotest.to_alcotest qcheck_pool_map_equiv;
        ] );
      ( "store",
        [
          Alcotest.test_case "hit/miss counts" `Quick test_store_hit_miss_counts;
          Alcotest.test_case "seed keys distinct" `Quick
            test_store_seed_keys_do_not_collide;
          Alcotest.test_case "failed compute not cached" `Quick
            test_store_exception_caches_nothing;
          Alcotest.test_case "parallel access" `Quick test_store_parallel_access;
        ] );
      ( "disk-store",
        [
          Alcotest.test_case "round-trip and hit/miss counters" `Quick
            test_disk_roundtrip_counters;
          Alcotest.test_case "corruption and truncation recovery" `Quick
            test_disk_corruption_recovery;
          Alcotest.test_case "bit flips never serve a wrong value" `Quick
            test_disk_bit_flips;
          Alcotest.test_case "eviction bound" `Quick test_disk_eviction;
          Alcotest.test_case "default directory" `Quick test_disk_default_dir;
          Alcotest.test_case "unusable directory degrades to misses" `Quick
            test_disk_unusable_dir;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig3/fig6 rows identical across -j" `Slow
            test_fig_rows_deterministic;
        ] );
    ]
