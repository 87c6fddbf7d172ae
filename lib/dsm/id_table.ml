(* Slot [i] holds [(tag lsl 31) lor id], which is never negative, or
   [-1] when empty.  The tag is the top 30 bits of a multiplicative mix
   of the caller's hash, and the home slot is the tag's top [bits]
   bits, so growing rehashes from the slots alone. *)
type t = {
  mutable slots : int array;
  mutable bits : int;  (* capacity = 2^bits *)
  mutable count : int;
}

let empty = -1
let id_bits = 31
let tag_bits = 30
let max_id = (1 lsl id_bits) - 1

let create () = { slots = Array.make 16 empty; bits = 4; count = 0 }

let tag_of hash = (hash * 0x2545F4914F6CDD1D) lsr (63 - tag_bits)

let home bits tag = tag lsr (tag_bits - bits)

let find t hash eq =
  let tag = tag_of hash in
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let i = ref (home t.bits tag) and found = ref (-2) in
  while !found = -2 do
    let s = Array.unsafe_get slots !i in
    if s = empty then found := empty
    else if s lsr id_bits = tag && eq (s land max_id) then
      found := s land max_id
    else i := (!i + 1) land mask
  done;
  !found

(* Write slot value [s] into the first empty slot from its home. *)
let place slots bits s =
  let mask = Array.length slots - 1 in
  let i = ref (home bits (s lsr id_bits)) in
  while Array.unsafe_get slots !i <> empty do
    i := (!i + 1) land mask
  done;
  slots.(!i) <- s

let grow t =
  if t.bits = tag_bits then failwith "Id_table: capacity exhausted";
  let bits = t.bits + 1 in
  let slots = Array.make (1 lsl bits) empty in
  Array.iter (fun s -> if s <> empty then place slots bits s) t.slots;
  t.slots <- slots;
  t.bits <- bits

let add t hash id =
  if id < 0 || id > max_id then invalid_arg "Id_table.add: id out of range";
  if 4 * (t.count + 1) > 3 lsl t.bits then grow t;
  place t.slots t.bits ((tag_of hash lsl id_bits) lor id);
  t.count <- t.count + 1

let length t = t.count
