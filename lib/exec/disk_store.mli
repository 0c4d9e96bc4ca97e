(** Content-addressed, checksummed on-disk artifact store.

    The on-disk sibling of {!Store}: it persists expensive artefacts
    (sampling plans, tuning evaluations) across invocations, and it is
    the one place that knows how this code base puts a file on disk.

    {b Entry layout.}  One file per key, [<dir>/<key><ext>]:

    {v
    <magic>\n
    <32 hex digits: MD5 of the payload>\n
    <payload: Marshal.to_string of the value>
    v}

    {b Corruption policy.}  A read checks the magic line and then the
    payload digest {e before} unmarshalling, so a truncated, bit-flipped
    or foreign file never reaches [Marshal.from_string].  Any mismatch
    (or any read error) drops the file, logs a warning and counts a
    miss: a damaged store can slow an invocation down but never change
    its output.  A value of the wrong type cannot be served either:
    keys digest the magic, so each magic names one value type, and the
    magic must be bumped whenever the stored type's layout (or anything
    else that determines the value, such as a default parameter) changes.

    {b Writes} go to a temporary name unique to the process and domain
    and are renamed into place (atomic on POSIX): concurrent readers and
    pool workers see either no entry or a complete one.  After each
    store the oldest entries by modification time are evicted beyond
    the kind's capacity.

    Each kind publishes [<name>.hits], [<name>.misses] and
    [<name>.evictions] counters via {!Pc_obs.Metrics}. *)

val default_dir : string -> string
(** [default_dir leaf] is [$XDG_CACHE_HOME/leaf], falling back to
    [~/.cache/leaf] and, with neither variable set, [leaf] under the
    system temporary directory. *)

val resolve_dir : default:string -> string -> string
(** [resolve_dir ~default dir] is [dir], or [default_dir default] when
    [dir] is [""]. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents. *)

val write_atomic : string -> string -> unit
(** [write_atomic file contents] writes [contents] to a temporary file
    next to [file] and renames it into place.  On failure the temporary
    file is removed and the exception re-raised. *)

type 'v kind
(** What one store holds: the value type, its magic, file extension,
    counter prefix, default directory and capacity. *)

val kind :
  ?max_entries:int ->
  name:string ->
  magic:string ->
  ext:string ->
  default_dir:string ->
  unit ->
  'v kind
(** Describe a store kind and register its counters at once (so they
    appear, at zero, in every metrics report of a program that links
    the kind).  [max_entries] (default 256) caps the entries kept per
    directory; [magic] is one line of text.  Raises
    [Invalid_argument] on a non-positive [max_entries]. *)

val key : 'v kind -> 'k -> string
(** Content key: a hex digest over the kind's magic and the caller's
    key parts, which must be plain data (no closures or abstract
    values) that determines the stored value. *)

type 'v t

val create : 'v kind -> string -> 'v t
(** Open the store in a directory (creating it as needed); [""] means
    the kind's default directory.  A directory that cannot be created
    is logged and leaves a store whose lookups miss. *)

val find : 'v t -> string -> 'v option
(** Look a key up; counts a hit or a miss.  A damaged entry is removed,
    logged and reported as a miss. *)

val store : 'v t -> string -> 'v -> unit
(** Persist a value under the key, then evict beyond capacity.  I/O
    failures are logged, never raised. *)

val find_or_compute : 'v t -> string -> (unit -> 'v) -> 'v
(** [find] falling back to computing and {!store}-ing the value. *)
