(** Parser for SRISC assembly text.

    Accepts the format {!Program.pp} emits (numeric [@N] targets and
    [index:] prefixes) as well as hand-written assembly with symbolic
    labels, comments and data directives, completing the toolchain:
    programs can be written, pretty-printed, parsed back, serialised
    ({!Encoding}) and executed.

    Grammar (one item per line; [;] or [#] start a comment):
    {v
    .name quicksort          program name (optional)
    .data 0x100000 42        one initial data word
    .data_bytes 4096         reserved data-segment size
    loop:                    label definition
      addi r2, r2, -1        instructions as printed by Instr.pp
      bgtz r2, loop          symbolic or @N branch targets
      halt
    v} *)

exception Error of string
(** Raised with line number and message on malformed input. *)

val parse_string : ?name:string -> string -> Program.t
(** Parse a whole translation unit.  [name] overrides a missing [.name]
    directive (default ["anonymous"]). *)

val roundtrip_text : Program.t -> string
(** Render a program in parseable form ({!Program.pp}'s listing plus the
    directives needed to reconstruct it). *)
