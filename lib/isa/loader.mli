(** Load a program file in either on-disk format.

    A file that begins with the {!Encoding} magic [SRISC1] is read as a
    binary; anything else, including a file shorter than the magic (an
    empty file, or a lone [halt]), is parsed as assembly text
    ({!Parser}). *)

val load : string -> (Program.t, string) result
(** [load path] is the program in [path], or [Error msg] when the file
    cannot be read, does not parse or holds no instructions (the message
    names [path]).  Never raises for a malformed or short file. *)
