(* Tests for the SRISC toolchain: assembly-text parser and binary
   encoding, including full round trips over every compiled workload and
   generated clone. *)

module I = Pc_isa.Instr
module Program = Pc_isa.Program
module Parser = Pc_isa.Parser
module Encoding = Pc_isa.Encoding
module Machine = Pc_funcsim.Machine

let program_equal (a : Program.t) (b : Program.t) =
  a.Program.code = b.Program.code
  && List.sort compare a.Program.data = List.sort compare b.Program.data
  && a.Program.data_bytes = b.Program.data_bytes

(* --- parser basics --- *)

let test_parse_simple () =
  let p =
    Parser.parse_string
      {|
        .name smoke
        .data_bytes 64
        .data 1048576 42
        ; compute 42 * 2 by loading and adding
          li r1, 1048576
          ld r2, 0(r1)
          add r3, r2, r2
        loop:
          addi r3, r3, -1
          bgtz r3, loop
          halt
      |}
  in
  Alcotest.(check string) "name" "smoke" p.Program.name;
  Alcotest.(check int) "6 instructions" 6 (Program.length p);
  let m = Machine.load p in
  let _ = Machine.run m (fun _ -> ()) in
  Alcotest.(check bool) "halts" true (Machine.halted m);
  Alcotest.(check int64) "loop counted down" 0L (Machine.ireg m 3)

let test_parse_all_mnemonics () =
  let text =
    {|
      add r1, r2, r3
      subi r4, r5, -7
      li r6, 123456789012345
      mul r1, r2, r3
      div r1, r2, r3
      rem r1, r2, r3
      fadd f1, f2, f3
      fsub f1, f2, f3
      fmul f1, f2, f3
      fdiv f1, f2, f3
      fli f4, 2.5
      fmov f5, f4
      fcmplt r7, f1, f2
      itof f6, r1
      ftoi r8, f6
      ld r9, 16(r10)
      st r9, -8(r10)
      fld f7, 0(r11)
      fst f7, 8(r11)
      target:
      beqz r1, target
      jmp @0
      jr r26
      call target
      halt
    |}
  in
  let p = Parser.parse_string text in
  Alcotest.(check int) "24 instructions" 24 (Program.length p)

let test_parse_errors () =
  let rejects text =
    match Parser.parse_string text with
    | _ -> Alcotest.failf "accepted %S" text
    | exception Parser.Error _ -> ()
  in
  rejects "frobnicate r1, r2";
  rejects "add r1, r2";
  rejects "ld r1, r2, r3";
  rejects "li r99, 4";
  rejects "beqz r1, ";
  rejects "jmp undefined_label";
  rejects "fli f1, notafloat"

let test_parse_comments_and_blank_lines () =
  let p = Parser.parse_string "\n\n# comment only\n  halt ; trailing\n\n" in
  Alcotest.(check int) "one instruction" 1 (Program.length p)

(* --- round trips --- *)

let sample_programs () =
  let workloads =
    List.map
      (fun name -> Pc_workloads.Registry.compile (Pc_workloads.Registry.find name))
      [ "crc32"; "fft"; "sha" ]
  in
  let clone =
    (Perfclone.Pipeline.clone_benchmark ~profile_instrs:200_000 "qsort")
      .Perfclone.Pipeline.clone
  in
  clone :: workloads

let test_text_roundtrip () =
  List.iter
    (fun p ->
      let text = Parser.roundtrip_text p in
      let p2 = Parser.parse_string ~name:p.Program.name text in
      if not (program_equal p p2) then
        Alcotest.failf "%s: text round trip changed the program" p.Program.name)
    (sample_programs ())

let test_binary_roundtrip () =
  List.iter
    (fun p ->
      let p2 = Encoding.of_bytes (Encoding.to_bytes p) in
      if not (program_equal p p2) then
        Alcotest.failf "%s: binary round trip changed the program" p.Program.name;
      Alcotest.(check string) "name kept" p.Program.name p2.Program.name)
    (sample_programs ())

let test_binary_rejects_garbage () =
  Alcotest.(check bool) "bad magic" true
    (match Encoding.of_bytes (Bytes.of_string "NOTSRISC_xxxxxxxx") with
    | _ -> false
    | exception Failure _ -> true);
  Alcotest.(check bool) "truncated" true
    (let p = List.hd (sample_programs ()) in
     let b = Encoding.to_bytes p in
     match Encoding.of_bytes (Bytes.sub b 0 (Bytes.length b / 2)) with
     | _ -> false
     | exception Failure _ -> true)

let test_roundtrip_preserves_behaviour () =
  (* the re-parsed program must execute identically *)
  let p = Pc_workloads.Registry.compile (Pc_workloads.Registry.find "bitcount") in
  let p2 = Parser.parse_string ~name:"bc" (Parser.roundtrip_text p) in
  let result prog =
    let m = Machine.load prog in
    let n = Machine.run ~max_instrs:5_000_000 m (fun _ -> ()) in
    (n, Machine.ireg m Pc_isa.Reg.ret)
  in
  Alcotest.(check (pair int int64)) "same execution" (result p) (result p2)

let test_file_roundtrip () =
  let p = List.hd (sample_programs ()) in
  let path = Filename.temp_file "perfclone" ".bin" in
  let oc = open_out_bin path in
  Encoding.write oc p;
  close_out oc;
  let ic = open_in_bin path in
  let p2 = Encoding.read ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "file round trip" true (program_equal p p2)

(* --- file loader --- *)

let with_file contents f =
  let path = Filename.temp_file "perfclone" ".s" in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_loader_short_files () =
  let halts contents =
    with_file contents (fun path ->
        match Pc_isa.Loader.load path with
        | Ok p -> p.Program.code = [| I.Halt |]
        | Error msg -> Alcotest.failf "%S: %s" contents msg)
  in
  Alcotest.(check bool) "4-byte halt" true (halts "halt");
  Alcotest.(check bool) "5-byte halt" true (halts "halt\n");
  let rejected contents =
    with_file contents (fun path -> Result.is_error (Pc_isa.Loader.load path))
  in
  Alcotest.(check bool) "empty file" true (rejected "");
  Alcotest.(check bool) "magic prefix" true (rejected "SRI");
  Alcotest.(check bool) "bare magic" true (rejected "SRISC1")

let test_loader_both_formats () =
  let p = List.hd (sample_programs ()) in
  let loads contents =
    with_file contents (fun path ->
        match Pc_isa.Loader.load path with
        | Ok p2 -> program_equal p p2
        | Error msg -> Alcotest.fail msg)
  in
  Alcotest.(check bool) "binary" true
    (loads (Bytes.to_string (Encoding.to_bytes p)));
  Alcotest.(check bool) "text" true (loads (Parser.roundtrip_text p))

let qcheck_varint_roundtrip =
  QCheck.Test.make ~name:"Li immediates of any magnitude survive encoding" ~count:200
    QCheck.(pair int64 (int_bound 31))
    (fun (v, reg) ->
      let reg = max 1 reg in
      let p =
        Program.v ~name:"q" ~code:[| I.Li (reg, v); I.Halt |] ~data:[] ~data_bytes:0
      in
      let p2 = Encoding.of_bytes (Encoding.to_bytes p) in
      p2.Program.code = p.Program.code)

let qcheck_fli_roundtrip =
  QCheck.Test.make ~name:"Fli floats survive the text round trip" ~count:200
    QCheck.(float)
    (fun v ->
      QCheck.assume (Float.is_finite v);
      let p =
        Program.v ~name:"q" ~code:[| I.Fli (1, v); I.Halt |] ~data:[] ~data_bytes:0
      in
      let p2 = Parser.parse_string ~name:"q" (Parser.roundtrip_text p) in
      p2.Program.code = p.Program.code)

let () =
  Alcotest.run "toolchain"
    [
      ( "parser",
        [
          Alcotest.test_case "simple program" `Quick test_parse_simple;
          Alcotest.test_case "all mnemonics" `Quick test_parse_all_mnemonics;
          Alcotest.test_case "errors rejected" `Quick test_parse_errors;
          Alcotest.test_case "comments and blanks" `Quick
            test_parse_comments_and_blank_lines;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "text" `Slow test_text_roundtrip;
          Alcotest.test_case "binary" `Slow test_binary_roundtrip;
          Alcotest.test_case "binary rejects garbage" `Quick test_binary_rejects_garbage;
          Alcotest.test_case "behaviour preserved" `Slow test_roundtrip_preserves_behaviour;
          Alcotest.test_case "file IO" `Quick test_file_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_varint_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_fli_roundtrip;
        ] );
      ( "loader",
        [
          Alcotest.test_case "short files" `Quick test_loader_short_files;
          Alcotest.test_case "both formats" `Quick test_loader_both_formats;
        ] );
    ]
