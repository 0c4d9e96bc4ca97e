module I = Instr

let magic = "SRISC1"

(* --- LEB128 (signed, zig-zag) over a Buffer / position cursor --- *)

let zigzag (n : int64) =
  Int64.logxor (Int64.shift_left n 1) (Int64.shift_right n 63)

let unzigzag (n : int64) =
  Int64.logxor (Int64.shift_right_logical n 1) (Int64.neg (Int64.logand n 1L))

let put_varint buf (n : int64) =
  let v = ref (zigzag n) in
  let continue = ref true in
  while !continue do
    let low = Int64.to_int (Int64.logand !v 0x7FL) in
    v := Int64.shift_right_logical !v 7;
    if Int64.equal !v 0L then begin
      Buffer.add_char buf (Char.chr low);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (low lor 0x80))
  done

let put_int buf n = put_varint buf (Int64.of_int n)

type cursor = { data : bytes; mutable pos : int }

let get_byte c =
  if c.pos >= Bytes.length c.data then failwith "Encoding: truncated input";
  let b = Char.code (Bytes.get c.data c.pos) in
  c.pos <- c.pos + 1;
  b

let get_varint c =
  let rec go shift acc =
    let b = get_byte c in
    let acc = Int64.logor acc (Int64.shift_left (Int64.of_int (b land 0x7F)) shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  unzigzag (go 0 0L)

let get_int c = Int64.to_int (get_varint c)

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

let get_string c =
  let n = get_int c in
  if n < 0 || c.pos + n > Bytes.length c.data then failwith "Encoding: bad string";
  let s = Bytes.sub_string c.data c.pos n in
  c.pos <- c.pos + n;
  s

(* --- instruction opcodes --- *)

let alu_code = function
  | I.Add -> 0 | I.Sub -> 1 | I.And -> 2 | I.Or -> 3 | I.Xor -> 4
  | I.Sll -> 5 | I.Srl -> 6 | I.Sra -> 7 | I.Cmp_eq -> 8 | I.Cmp_lt -> 9
  | I.Cmp_le -> 10

let alu_of_code = function
  | 0 -> I.Add | 1 -> I.Sub | 2 -> I.And | 3 -> I.Or | 4 -> I.Xor
  | 5 -> I.Sll | 6 -> I.Srl | 7 -> I.Sra | 8 -> I.Cmp_eq | 9 -> I.Cmp_lt
  | 10 -> I.Cmp_le | n -> failwith (Printf.sprintf "Encoding: bad alu op %d" n)

let cond_code = function
  | I.Eq_z -> 0 | I.Ne_z -> 1 | I.Lt_z -> 2 | I.Ge_z -> 3 | I.Gt_z -> 4
  | I.Le_z -> 5

let cond_of_code = function
  | 0 -> I.Eq_z | 1 -> I.Ne_z | 2 -> I.Lt_z | 3 -> I.Ge_z | 4 -> I.Gt_z
  | 5 -> I.Le_z | n -> failwith (Printf.sprintf "Encoding: bad condition %d" n)

let target_index = function
  | I.Abs i -> i
  | I.Label l -> failwith (Printf.sprintf "Encoding: unresolved label %S" l)

let put_instr buf instr =
  let op n = put_int buf n in
  match instr with
  | I.Alu (o, d, a, b) -> op 0; put_int buf (alu_code o); op d; op a; op b
  | I.Alui (o, d, a, imm) -> op 1; put_int buf (alu_code o); op d; op a; op imm
  | I.Li (d, v) -> op 2; op d; put_varint buf v
  | I.Mul (d, a, b) -> op 3; op d; op a; op b
  | I.Div (d, a, b) -> op 4; op d; op a; op b
  | I.Rem (d, a, b) -> op 5; op d; op a; op b
  | I.Falu (I.Fadd, d, a, b) -> op 6; op d; op a; op b
  | I.Falu (I.Fsub, d, a, b) -> op 7; op d; op a; op b
  | I.Fmul (d, a, b) -> op 8; op d; op a; op b
  | I.Fdiv (d, a, b) -> op 9; op d; op a; op b
  | I.Fli (d, v) -> op 10; op d; put_varint buf (Int64.bits_of_float v)
  | I.Fmov (d, a) -> op 11; op d; op a
  | I.Fcmp (I.Fcmp_eq, d, a, b) -> op 12; op d; op a; op b
  | I.Fcmp (I.Fcmp_lt, d, a, b) -> op 13; op d; op a; op b
  | I.Fcmp (I.Fcmp_le, d, a, b) -> op 14; op d; op a; op b
  | I.Itof (d, a) -> op 15; op d; op a
  | I.Ftoi (d, a) -> op 16; op d; op a
  | I.Load (d, a, off) -> op 17; op d; op a; op off
  | I.Store (s, a, off) -> op 18; op s; op a; op off
  | I.Fload (d, a, off) -> op 19; op d; op a; op off
  | I.Fstore (s, a, off) -> op 20; op s; op a; op off
  | I.Br (c, r, t) -> op 21; put_int buf (cond_code c); op r; op (target_index t)
  | I.Jmp t -> op 22; op (target_index t)
  | I.Jr r -> op 23; op r
  | I.Call t -> op 24; op (target_index t)
  | I.Halt -> op 25

let get_instr c =
  let i () = get_int c in
  match i () with
  | 0 -> let o = alu_of_code (i ()) in let d = i () in let a = i () in let b = i () in I.Alu (o, d, a, b)
  | 1 -> let o = alu_of_code (i ()) in let d = i () in let a = i () in let imm = i () in I.Alui (o, d, a, imm)
  | 2 -> let d = i () in I.Li (d, get_varint c)
  | 3 -> let d = i () in let a = i () in let b = i () in I.Mul (d, a, b)
  | 4 -> let d = i () in let a = i () in let b = i () in I.Div (d, a, b)
  | 5 -> let d = i () in let a = i () in let b = i () in I.Rem (d, a, b)
  | 6 -> let d = i () in let a = i () in let b = i () in I.Falu (I.Fadd, d, a, b)
  | 7 -> let d = i () in let a = i () in let b = i () in I.Falu (I.Fsub, d, a, b)
  | 8 -> let d = i () in let a = i () in let b = i () in I.Fmul (d, a, b)
  | 9 -> let d = i () in let a = i () in let b = i () in I.Fdiv (d, a, b)
  | 10 -> let d = i () in I.Fli (d, Int64.float_of_bits (get_varint c))
  | 11 -> let d = i () in let a = i () in I.Fmov (d, a)
  | 12 -> let d = i () in let a = i () in let b = i () in I.Fcmp (I.Fcmp_eq, d, a, b)
  | 13 -> let d = i () in let a = i () in let b = i () in I.Fcmp (I.Fcmp_lt, d, a, b)
  | 14 -> let d = i () in let a = i () in let b = i () in I.Fcmp (I.Fcmp_le, d, a, b)
  | 15 -> let d = i () in let a = i () in I.Itof (d, a)
  | 16 -> let d = i () in let a = i () in I.Ftoi (d, a)
  | 17 -> let d = i () in let a = i () in let off = i () in I.Load (d, a, off)
  | 18 -> let s = i () in let a = i () in let off = i () in I.Store (s, a, off)
  | 19 -> let d = i () in let a = i () in let off = i () in I.Fload (d, a, off)
  | 20 -> let s = i () in let a = i () in let off = i () in I.Fstore (s, a, off)
  | 21 -> let cc = cond_of_code (i ()) in let r = i () in let t = i () in I.Br (cc, r, I.Abs t)
  | 22 -> I.Jmp (I.Abs (i ()))
  | 23 -> I.Jr (i ())
  | 24 -> I.Call (I.Abs (i ()))
  | 25 -> I.Halt
  | n -> failwith (Printf.sprintf "Encoding: bad opcode %d" n)

let to_bytes (p : Program.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  put_string buf p.Program.name;
  put_int buf (Array.length p.Program.code);
  put_int buf (List.length p.Program.data);
  put_int buf p.Program.data_bytes;
  Array.iter (put_instr buf) p.Program.code;
  List.iter
    (fun (addr, v) ->
      put_int buf addr;
      put_varint buf v)
    p.Program.data;
  Buffer.to_bytes buf

let of_bytes bytes =
  let c = { data = bytes; pos = 0 } in
  let header = magic ^ "\n" in
  if not (String.starts_with ~prefix:header (Bytes.unsafe_to_string bytes)) then
    failwith "Encoding: bad magic";
  c.pos <- String.length magic + 1;
  let name = get_string c in
  let n_code = get_int c in
  let n_data = get_int c in
  let data_bytes = get_int c in
  if n_code < 0 || n_code > 10_000_000 then failwith "Encoding: bad code length";
  let code = Array.init n_code (fun _ -> get_instr c) in
  let data =
    List.init n_data (fun _ ->
        let addr = get_int c in
        let v = get_varint c in
        (addr, v))
  in
  Program.v ~name ~code ~data ~data_bytes

let write oc p = output_bytes oc (to_bytes p)

let read ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 4096
     done
   with End_of_file -> ());
  of_bytes (Buffer.to_bytes buf)
