module M = Pc_obs.Metrics

let log_src = Logs.Src.create "pc.disk_store" ~doc:"On-disk artifact store"

module Log = (val Logs.src_log log_src : Logs.LOG)

let default_dir leaf =
  let base =
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> d
    | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" -> Filename.concat h ".cache"
      | _ -> Filename.get_temp_dir_name ())
  in
  Filename.concat base leaf

let resolve_dir ~default dir = if dir = "" then default_dir default else dir

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The domain id joins the pid in the temporary name because pool
   workers of one process may write different entries concurrently. *)
let write_atomic file contents =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" file (Unix.getpid ()) (Domain.self () :> int)
  in
  try
    Out_channel.with_open_bin tmp (fun oc -> output_string oc contents);
    Sys.rename tmp file
  with exn ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise exn

type 'v kind = {
  name : string;
  header : string;  (** the magic line, newline included *)
  ext : string;
  default : string;
  max_entries : int;
  hits : M.counter;
  misses : M.counter;
  evictions : M.counter;
}

let kind ?(max_entries = 256) ~name ~magic ~ext ~default_dir () =
  if max_entries <= 0 then
    invalid_arg "Pc_exec.Disk_store.kind: max_entries must be positive";
  let counter s = M.counter (name ^ "." ^ s) in
  {
    name;
    header = magic ^ "\n";
    ext;
    default = default_dir;
    max_entries;
    hits = counter "hits";
    misses = counter "misses";
    evictions = counter "evictions";
  }

let key k parts =
  Digest.to_hex (Digest.string (Marshal.to_string (k.header, parts) []))

type 'v t = { kind : 'v kind; dir : string }

(* An unusable directory only costs the caching: lookups miss and
   writes are logged, so the caller's output never depends on it. *)
let create kind dir =
  let dir = resolve_dir ~default:kind.default dir in
  (try mkdir_p dir
   with (Unix.Unix_error _ | Sys_error _) as exn ->
     Log.warn (fun m ->
         m "cannot create %s directory %s (%s); running uncached" kind.name dir
           (Printexc.to_string exn)));
  { kind; dir }

let path t key = Filename.concat t.dir (key ^ t.kind.ext)

let hex_len = 32

(* The digest is checked before the payload reaches [Marshal.from_string],
   which trusts its input: a flipped bit there can yield a different
   value or crash the process. *)
let payload header s =
  let h = String.length header in
  let start = h + hex_len + 1 in
  if String.length s < start || String.sub s 0 h <> header then
    failwith "bad magic"
  else if s.[start - 1] <> '\n' then failwith "bad digest line"
  else
    let p = String.sub s start (String.length s - start) in
    if Digest.to_hex (Digest.string p) <> String.sub s h hex_len then
      failwith "payload digest mismatch"
    else p

let find t key =
  let file = path t key in
  if not (Sys.file_exists file) then begin
    M.incr t.kind.misses;
    None
  end
  else
    match
      Marshal.from_string
        (payload t.kind.header (In_channel.with_open_bin file In_channel.input_all))
        0
    with
    | v ->
      M.incr t.kind.hits;
      Some v
    | exception exn ->
      Log.warn (fun m ->
          m "dropping damaged %s entry %s (%s); recomputing" t.kind.name file
            (Printexc.to_string exn));
      (try Sys.remove file with Sys_error _ -> ());
      M.incr t.kind.misses;
      None

let evict t =
  let files =
    Sys.readdir t.dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f t.kind.ext)
  in
  let drop = List.length files - t.kind.max_entries in
  if drop > 0 then
    List.filter_map
      (fun f ->
        let f = Filename.concat t.dir f in
        try Some ((Unix.stat f).Unix.st_mtime, f) with Unix.Unix_error _ -> None)
      files
    |> List.sort compare
    |> List.iteri (fun i (_, f) ->
           if i < drop then begin
             (try Sys.remove f with Sys_error _ -> ());
             M.incr t.kind.evictions;
             Log.info (fun m -> m "evicted %s entry %s" t.kind.name f)
           end)

let store t key v =
  let file = path t key in
  try
    let p = Marshal.to_string v [] in
    write_atomic file
      (String.concat "" [ t.kind.header; Digest.to_hex (Digest.string p); "\n"; p ]);
    evict t
  with exn ->
    Log.warn (fun m ->
        m "failed to store %s entry %s (%s)" t.kind.name file (Printexc.to_string exn))

let find_or_compute t key f =
  match find t key with
  | Some v -> v
  | None ->
    let v = f () in
    store t key v;
    v
