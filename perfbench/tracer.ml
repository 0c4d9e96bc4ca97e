(* Spans recorded by the benchmark around each public call it makes into
   the program.  Recording is off in timed runs: [span] then runs [f]
   directly.  When on, every span keeps its name, start, end, parent and
   the words allocated while it was open; spans stay in memory and are
   written out once, at the end of the run. *)

type span = {
  id : int;
  parent : int;  (** -1 for a top-level span *)
  name : string;
  start_s : float;
  end_s : float;
  words : float;  (** minor + major words allocated, less promotions *)
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let open_stack : int list ref = ref []

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    open_stack := id :: !open_stack;
    let w0 = allocated_words () in
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      let words = allocated_words () -. w0 in
      open_stack := List.tl !open_stack;
      spans := { id; parent; name; start_s = t0; end_s = t1; words } :: !spans
    in
    Fun.protect ~finally:close f
  end

let recorded () = List.rev !spans

let duration s = s.end_s -. s.start_s

(* Self time: the span's duration less the part covered by its direct
   children (children of one span never overlap: the benchmark is
   single-domain). *)
let self_times all =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    all;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)))
    all

let write_json path all =
  let oc = open_out path in
  let t_origin = List.fold_left (fun m s -> Float.min m s.start_s) infinity all in
  output_string oc "{\"schema\":\"perfbench-spans/1\",\"spans\":[";
  List.iteri
    (fun i (s, self) ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "\n{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_s\":%.6f,\"end_s\":%.6f,\
         \"self_s\":%.6f,\"words\":%.0f}"
        s.id s.parent s.name (s.start_s -. t_origin) (s.end_s -. t_origin) self
        s.words)
    (self_times all);
  output_string oc "\n]}\n";
  close_out oc
