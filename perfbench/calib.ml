(* Host-speed calibration.  On a shared guest the same pass runs up to
   1.7x slower for stretches of seconds to minutes (other tenants; no
   hardware counters to count work instead).  While a timed region runs,
   SIGALRM fires every [period_s] and runs [kernel], a fixed piece of
   work that is not part of the program, and records how long it took:
   that samples the host's speed at the moments the region ran.  A
   region's time less the slices inside it, rescaled by the median slice
   of the region, is its time on a host where one slice takes
   [reference_slice_s].

   The kernel mixes what the workloads do: sequential stores over a
   2 MB buffer (as allocation sweeps the minor heap), inserts and
   lookups in an open-addressing int table, random reads over 2 MB, and
   integer arithmetic.  It allocates nothing, so it never runs the GC:
   a slice costs the same whatever the program keeps live, and a change
   in the program's allocation shows in full in the calibrated time.  A
   slice runs every 50 ms.  On a 2-vCPU Xeon guest with 2 MB of L2 per
   core it takes about 2 ms alone and 3 ms inside a pass in the host's
   fast stretches: its 4.5 MB exceed the L2, and the pass has evicted
   them since the last slice. *)

let period_s = 0.05
let reference_slice_s = 0.003
let now = Unix.gettimeofday
let nursery = Array.make (1 lsl 18) 0
let words = Array.init (1 lsl 18) (fun i -> i * 7)
let table_mask = (1 lsl 15) - 1
let keys = Array.make (table_mask + 1) (-1)
let values = Array.make (table_mask + 1) 0

let rec slot k i = if keys.(i) = k || keys.(i) < 0 then i else slot k ((i + 1) land table_mask)

let kernel () =
  let acc = ref 0 in
  for pass = 1 to 2 do
    for i = 0 to Array.length nursery - 1 do
      nursery.(i) <- i + pass
    done
  done;
  Array.fill keys 0 (table_mask + 1) (-1);
  for i = 1 to 15_000 do
    let k = i * 2654435761 land 0xffffff in
    let j = slot k (k land table_mask) in
    keys.(j) <- k;
    values.(j) <- i
  done;
  for i = 1 to 15_000 do
    let k = i * 2654435761 land 0xffffff in
    let j = slot k (k land table_mask) in
    if keys.(j) = k then acc := !acc + values.(j)
  done;
  let x = ref 12345 in
  for _ = 1 to 100_000 do
    x := ((!x * 1103515245) + 12345) land 0x3ffff;
    acc := !acc + words.(!x)
  done;
  let y = ref 1 in
  for i = 1 to 450_000 do
    y := ((!y * 31) + i) land 0xffffff
  done;
  ignore (Sys.opaque_identity (!acc + !y + nursery.(!x)))

let slices : float list ref = ref []
let slice_total = ref 0.0

let on_tick _ =
  let t0 = now () in
  kernel ();
  let d = now () -. t0 in
  slices := d :: !slices;
  slice_total := !slice_total +. d

let set_timer interval =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = interval; it_value = interval })

(* Sample the host's speed while [f] runs.  Returns [f]'s result, its
   wall-clock time, the same time less the slices that ran inside it,
   and the slices. *)
let sampled f =
  slices := [];
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle on_tick);
  let s0 = !slice_total and t0 = now () in
  set_timer period_s;
  let r = Fun.protect ~finally:(fun () -> set_timer 0.0) f in
  let dt = now () -. t0 in
  (r, dt, dt -. (!slice_total -. s0), !slices)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Seconds at the reference speed for [work] seconds measured while the
   given slices ran. *)
let calibrate ~work slices = work *. reference_slice_s /. median slices
