module I = Instr

exception Error of string

let error line fmt =
  Printf.ksprintf (fun s -> raise (Error (Printf.sprintf "line %d: %s" line s))) fmt

(* --- tokenising one line --- *)

let strip_comment line =
  let cut c s = match String.index_opt s c with Some i -> String.sub s 0 i | None -> s in
  cut ';' (cut '#' line)

let is_space c = c = ' ' || c = '\t' || c = ','

let tokens line =
  let n = String.length line in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    while !i < n && is_space line.[!i] do incr i done;
    if !i < n then begin
      let start = !i in
      (* parenthesised operands split: "0(r3)" -> "0" "(" "r3" ")" *)
      while !i < n && (not (is_space line.[!i])) && line.[!i] <> '(' && line.[!i] <> ')' do
        incr i
      done;
      if !i > start then out := String.sub line start (!i - start) :: !out;
      if !i < n && (line.[!i] = '(' || line.[!i] = ')') then begin
        out := String.make 1 line.[!i] :: !out;
        incr i
      end
    end
  done;
  List.rev !out

(* --- operand parsing --- *)

let int_reg lineno tok =
  let bad () = error lineno "expected an integer register, got %S" tok in
  if String.length tok < 2 || tok.[0] <> 'r' then bad ();
  match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
  | Some n when n >= 0 && n < Reg.count -> n
  | Some _ | None -> bad ()

let fp_reg lineno tok =
  let bad () = error lineno "expected a float register, got %S" tok in
  if String.length tok < 2 || tok.[0] <> 'f' then bad ();
  match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
  | Some n when n >= 0 && n < Reg.count -> n
  | Some _ | None -> bad ()

let imm lineno tok =
  match int_of_string_opt tok with
  | Some n -> n
  | None -> error lineno "expected an integer immediate, got %S" tok

let imm64 lineno tok =
  match Int64.of_string_opt tok with
  | Some n -> n
  | None -> error lineno "expected a 64-bit immediate, got %S" tok

let fimm lineno tok =
  match float_of_string_opt tok with
  | Some f -> f
  | None -> error lineno "expected a float immediate, got %S" tok

let target lineno tok =
  if String.length tok > 1 && tok.[0] = '@' then
    match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
    | Some n -> I.Abs n
    | None -> error lineno "bad absolute target %S" tok
  else I.Label tok

(* --- per-mnemonic parsing --- *)

let alu_ops =
  [
    ("add", I.Add); ("sub", I.Sub); ("and", I.And); ("or", I.Or); ("xor", I.Xor);
    ("sll", I.Sll); ("srl", I.Srl); ("sra", I.Sra); ("cmpeq", I.Cmp_eq);
    ("cmplt", I.Cmp_lt); ("cmple", I.Cmp_le);
  ]

let conds =
  [
    ("beqz", I.Eq_z); ("bnez", I.Ne_z); ("bltz", I.Lt_z); ("bgez", I.Ge_z);
    ("bgtz", I.Gt_z); ("blez", I.Le_z);
  ]

let parse_mem lineno ~fp rest =
  (* rd, off ( ra ) *)
  match rest with
  | [ rd; off; "("; ra; ")" ] ->
    let r = if fp then fp_reg lineno rd else int_reg lineno rd in
    (r, int_reg lineno ra, imm lineno off)
  | _ -> error lineno "expected REG, OFF(REG)"

let parse_instr lineno mnemonic rest =
  let ireg3 mk =
    match rest with
    | [ d; a; b ] -> mk (int_reg lineno d) (int_reg lineno a) (int_reg lineno b)
    | _ -> error lineno "%s expects three integer registers" mnemonic
  in
  let freg3 mk =
    match rest with
    | [ d; a; b ] -> mk (fp_reg lineno d) (fp_reg lineno a) (fp_reg lineno b)
    | _ -> error lineno "%s expects three float registers" mnemonic
  in
  match mnemonic with
  | m when List.mem_assoc m alu_ops ->
    let op = List.assoc m alu_ops in
    ireg3 (fun d a b -> I.Alu (op, d, a, b))
  | m when String.length m > 1
           && List.mem_assoc (String.sub m 0 (String.length m - 1)) alu_ops
           && m.[String.length m - 1] = 'i' -> (
    let op = List.assoc (String.sub m 0 (String.length m - 1)) alu_ops in
    match rest with
    | [ d; a; v ] -> I.Alui (op, int_reg lineno d, int_reg lineno a, imm lineno v)
    | _ -> error lineno "%s expects rd, ra, imm" mnemonic)
  | "li" -> (
    match rest with
    | [ d; v ] -> I.Li (int_reg lineno d, imm64 lineno v)
    | _ -> error lineno "li expects rd, imm")
  | "mul" -> ireg3 (fun d a b -> I.Mul (d, a, b))
  | "div" -> ireg3 (fun d a b -> I.Div (d, a, b))
  | "rem" -> ireg3 (fun d a b -> I.Rem (d, a, b))
  | "fadd" -> freg3 (fun d a b -> I.Falu (I.Fadd, d, a, b))
  | "fsub" -> freg3 (fun d a b -> I.Falu (I.Fsub, d, a, b))
  | "fmul" -> freg3 (fun d a b -> I.Fmul (d, a, b))
  | "fdiv" -> freg3 (fun d a b -> I.Fdiv (d, a, b))
  | "fli" -> (
    match rest with
    | [ d; v ] -> I.Fli (fp_reg lineno d, fimm lineno v)
    | _ -> error lineno "fli expects fd, imm")
  | "fmov" -> (
    match rest with
    | [ d; a ] -> I.Fmov (fp_reg lineno d, fp_reg lineno a)
    | _ -> error lineno "fmov expects fd, fa")
  | "fcmpeq" | "fcmplt" | "fcmple" -> (
    let op =
      match mnemonic with
      | "fcmpeq" -> I.Fcmp_eq
      | "fcmplt" -> I.Fcmp_lt
      | _ -> I.Fcmp_le
    in
    match rest with
    | [ d; a; b ] -> I.Fcmp (op, int_reg lineno d, fp_reg lineno a, fp_reg lineno b)
    | _ -> error lineno "%s expects rd, fa, fb" mnemonic)
  | "itof" -> (
    match rest with
    | [ d; a ] -> I.Itof (fp_reg lineno d, int_reg lineno a)
    | _ -> error lineno "itof expects fd, ra")
  | "ftoi" -> (
    match rest with
    | [ d; a ] -> I.Ftoi (int_reg lineno d, fp_reg lineno a)
    | _ -> error lineno "ftoi expects rd, fa")
  | "ld" ->
    let d, a, off = parse_mem lineno ~fp:false rest in
    I.Load (d, a, off)
  | "st" ->
    let s, a, off = parse_mem lineno ~fp:false rest in
    I.Store (s, a, off)
  | "fld" ->
    let d, a, off = parse_mem lineno ~fp:true rest in
    I.Fload (d, a, off)
  | "fst" ->
    let s, a, off = parse_mem lineno ~fp:true rest in
    I.Fstore (s, a, off)
  | m when List.mem_assoc m conds -> (
    match rest with
    | [ r; t ] -> I.Br (List.assoc m conds, int_reg lineno r, target lineno t)
    | _ -> error lineno "%s expects reg, target" mnemonic)
  | "jmp" -> (
    match rest with
    | [ t ] -> I.Jmp (target lineno t)
    | _ -> error lineno "jmp expects a target")
  | "jr" -> (
    match rest with
    | [ r ] -> I.Jr (int_reg lineno r)
    | _ -> error lineno "jr expects a register")
  | "call" -> (
    match rest with
    | [ t ] -> I.Call (target lineno t)
    | _ -> error lineno "call expects a target")
  | "halt" -> if rest = [] then I.Halt else error lineno "halt takes no operands"
  | m -> error lineno "unknown mnemonic %S" m

(* --- whole translation units --- *)

let parse_string ?(name = "anonymous") text =
  let items = ref [] in
  let data = ref [] in
  let data_bytes = ref 0 in
  let prog_name = ref name in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line = String.trim (strip_comment raw) in
      if line <> "" then begin
        match tokens line with
        | [] -> ()
        | ".name" :: rest -> (
          match rest with
          | [ n ] -> prog_name := n
          | _ -> error lineno ".name expects one identifier")
        | ".data" :: rest -> (
          match rest with
          | [ addr; v ] -> data := (imm lineno addr, imm64 lineno v) :: !data
          | _ -> error lineno ".data expects ADDR VALUE")
        | ".data_bytes" :: rest -> (
          match rest with
          | [ n ] -> data_bytes := imm lineno n
          | _ -> error lineno ".data_bytes expects a size")
        | first :: rest when String.length first > 1
                             && first.[String.length first - 1] = ':'
                             && Option.is_some
                                  (int_of_string_opt
                                     (String.sub first 0 (String.length first - 1))) ->
          (* "NNN:" index prefix from Program.pp listings: ignored *)
          (match rest with
          | m :: operands -> items := Asm.Ins (parse_instr lineno m operands) :: !items
          | [] -> ())
        | [ tok ] when String.length tok > 1 && tok.[String.length tok - 1] = ':' ->
          items := Asm.Label (String.sub tok 0 (String.length tok - 1)) :: !items
        | first :: rest when String.length first > 0 && first.[String.length first - 1] = ':' ->
          (* label and instruction on one line *)
          items := Asm.Label (String.sub first 0 (String.length first - 1)) :: !items;
          (match rest with
          | m :: operands -> items := Asm.Ins (parse_instr lineno m operands) :: !items
          | [] -> ())
        | first :: rest -> items := Asm.Ins (parse_instr lineno first rest) :: !items
      end)
    lines;
  try
    Asm.assemble ~name:!prog_name ~data:(List.rev !data) ~data_bytes:!data_bytes
      (List.rev !items)
  with Invalid_argument msg -> raise (Error msg)

let roundtrip_text (p : Program.t) =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf ".name %s\n" p.Program.name;
  Printf.bprintf buf ".data_bytes %d\n" p.Program.data_bytes;
  List.iter (fun (addr, v) -> Printf.bprintf buf ".data %d %Ld\n" addr v) p.Program.data;
  Array.iteri
    (fun idx instr ->
      (* hex float literals keep Fli exact across the round trip *)
      let text =
        match instr with
        | I.Fli (d, v) -> Printf.sprintf "fli f%d, %h" d v
        | other -> Format.asprintf "%a" I.pp other
      in
      Printf.bprintf buf "%6d:  %s\n" idx text)
    p.Program.code;
  Buffer.contents buf
