let load path =
  let fail msg = Error (Printf.sprintf "%s: %s" path msg) in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
    try
      let program =
        if String.starts_with ~prefix:Encoding.magic contents then
          Encoding.of_bytes (Bytes.of_string contents)
        else Parser.parse_string ~name:(Filename.basename path) contents
      in
      if Program.length program = 0 then fail "no instructions" else Ok program
    with Parser.Error msg | Failure msg | Invalid_argument msg -> fail msg)
