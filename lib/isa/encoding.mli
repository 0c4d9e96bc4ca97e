(** Binary encoding of SRISC programs.

    A compact, versioned serialisation so clones can be shipped as
    binaries (the dissemination artefact next to the C rendering) and
    reloaded by the simulators or the {!Parser}-based tooling.

    Format: the magic line [SRISC1\n], a header (name, code length, data
    length, segment size), then one record per instruction and per initial
    data word.  Integers use a signed LEB128 variable-length encoding, so
    the unbounded immediates of the simulator ISA survive the round
    trip. *)

val magic : string
(** ["SRISC1"], the first bytes of every encoded program. *)

val write : out_channel -> Program.t -> unit
(** Serialise a program. *)

val read : in_channel -> Program.t
(** Deserialise; raises [Failure] on malformed input or an unsupported
    version. *)

val to_bytes : Program.t -> bytes
(** In-memory serialisation (used by tests for round-trip checks). *)

val of_bytes : bytes -> Program.t
(** Inverse of [to_bytes]; raises [Failure] on malformed input. *)
