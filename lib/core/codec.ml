(* Binary codecs shared by the record store mapping.

   Two families:
   - plain serialisation (length-prefixed, little-endian) for record
     payloads, log entries, and B+tree nodes;
   - order-preserving encoding for index keys, where byte-wise
     lexicographic order must equal {!Value.compare} order. *)

let put_int buf v = Buffer.add_int64_le buf (Int64.of_int v)

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

let put_value buf (v : Value.t) =
  match v with
  | Null -> Buffer.add_char buf '\x00'
  | Int i ->
      Buffer.add_char buf '\x01';
      put_int buf i
  | Float f ->
      (* Raw IEEE-754 bits: converting through a 63-bit OCaml int would
         corrupt the sign of values with the 2^62 bit set. *)
      Buffer.add_char buf '\x02';
      Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Str s ->
      Buffer.add_char buf '\x03';
      put_string buf s

let put_tuple buf (tuple : Value.t array) =
  put_int buf (Array.length tuple);
  for i = 0 to Array.length tuple - 1 do
    put_value buf tuple.(i)
  done

(* {1 Cursor reader}

   Every decoder reads through one mutable cursor instead of threading
   [(value, next_pos)] pairs, so reading an integer allocates nothing.
   Reads are bounds-checked: truncated input and bad tags raise
   [Invalid_argument]. *)

type cursor = { src : string; mutable pos : int }

let cursor src = { src; pos = 0 }

let at_end c = c.pos >= String.length c.src

let read_char c =
  let ch = c.src.[c.pos] in
  c.pos <- c.pos + 1;
  ch

let read_int c =
  let v = Int64.to_int (String.get_int64_le c.src c.pos) in
  c.pos <- c.pos + 8;
  v

(* A length or element count: non-negative and no larger than the bytes
   left, since every counted element takes at least one byte. *)
let read_count c =
  let n = read_int c in
  if n < 0 || n > String.length c.src - c.pos then
    invalid_arg (Printf.sprintf "Codec.read_count: bad count %d at %d" n c.pos);
  n

let read_string c =
  let len = read_count c in
  let s = String.sub c.src c.pos len in
  c.pos <- c.pos + len;
  s

let read_value c : Value.t =
  match read_char c with
  | '\x00' -> Null
  | '\x01' -> Int (read_int c)
  | '\x02' ->
      let bits = String.get_int64_le c.src c.pos in
      c.pos <- c.pos + 8;
      Float (Int64.float_of_bits bits)
  | '\x03' -> Str (read_string c)
  | ch -> invalid_arg (Printf.sprintf "Codec.read_value: bad tag %C" ch)

let read_tuple c =
  let n = read_count c in
  let tuple = Array.make n Value.Null in
  for i = 0 to n - 1 do
    tuple.(i) <- read_value c
  done;
  tuple

(* {1 Order-preserving key encoding}

   Byte-wise lexicographic comparison of encoded keys equals
   {!Value.compare} order for components of the same type — the case that
   matters, since index columns are homogeneously typed.  Across types the
   order is NULL < INT < FLOAT < TEXT (by tag), which can differ from
   {!Value.compare}'s numeric Int/Float interleaving; an exact
   order-preserving encoding across the two numeric types at full 63-bit
   precision does not exist in a fixed-width prefix code.

   Integers flip the sign bit and use big-endian bytes; floats use the
   standard IEEE total-order trick (flip all bits for negatives, flip the
   sign for positives); strings escape '\x00' as "\x00\xff" and terminate
   with "\x00\x00" so that prefixes sort first and embedded zero bytes
   stay ordered. *)

let add_be_int64 buf v = Buffer.add_int64_be buf v

let add_key_int buf i =
  add_be_int64 buf (Int64.logxor (Int64.of_int i) Int64.min_int)

let add_key_float buf f =
  let bits = Int64.bits_of_float f in
  let ordered =
    if Int64.compare bits 0L >= 0 then Int64.logxor bits Int64.min_int else Int64.lognot bits
  in
  add_be_int64 buf ordered

let add_key_string buf s =
  String.iter
    (fun c ->
      if c = '\x00' then Buffer.add_string buf "\x00\xff" else Buffer.add_char buf c)
    s;
  Buffer.add_string buf "\x00\x00"

let add_key_value buf (v : Value.t) =
  match v with
  | Null -> Buffer.add_char buf '\x01'
  | Int i ->
      Buffer.add_char buf '\x02';
      add_key_int buf i
  | Float f ->
      Buffer.add_char buf '\x03';
      add_key_float buf f
  | Str s ->
      Buffer.add_char buf '\x04';
      add_key_string buf s

let encode_key (components : Value.t list) =
  let buf = Buffer.create 32 in
  List.iter (add_key_value buf) components;
  Buffer.contents buf

(* Smallest key strictly greater than every key having [components] as a
   prefix — used as an exclusive upper bound for prefix range scans. *)
let encode_key_successor components = encode_key components ^ "\xff"
