(* Slot [i] is cells [3i] (lane a), [3i+1] (lane b), [3i+2] (payload);
   a payload of -1 marks it empty.  The capacity is a power of two and
   the home slot is the top [bits] bits of a multiplicative mix of both
   lanes, so small consecutive ids spread as well as digest lanes. *)
type t = {
  mutable cells : int array;
  mutable bits : int;  (* capacity = 2^bits *)
  mutable count : int;
}

let empty = -1

let create () = { cells = Array.make (3 lsl 4) empty; bits = 4; count = 0 }

let home bits a b =
  let h = ((a * 0x1E3779B97F4A7C15) lxor b) * 0x2545F4914F6CDD1D in
  h lsr (63 - bits)

(* The slot holding [(a, b)], or the empty slot where it would go. *)
let slot cells bits a b =
  let mask = (1 lsl bits) - 1 in
  let rec probe i =
    let c = 3 * i in
    let p = Array.unsafe_get cells (c + 2) in
    if
      p = empty
      || (Array.unsafe_get cells c = a && Array.unsafe_get cells (c + 1) = b)
    then c
    else probe ((i + 1) land mask)
  in
  probe (home bits a b)

let grow t =
  let old = t.cells in
  let bits = t.bits + 1 in
  let cells = Array.make (3 lsl bits) empty in
  for i = 0 to (Array.length old / 3) - 1 do
    let c = 3 * i in
    let p = old.(c + 2) in
    if p <> empty then begin
      let a = old.(c) and b = old.(c + 1) in
      let d = slot cells bits a b in
      cells.(d) <- a;
      cells.(d + 1) <- b;
      cells.(d + 2) <- p
    end
  done;
  t.cells <- cells;
  t.bits <- bits

let find t a b = t.cells.(slot t.cells t.bits a b + 2)

let find_or_add t a b p =
  if p < 0 then invalid_arg "Flat_table.find_or_add: negative payload";
  let c = slot t.cells t.bits a b in
  let q = t.cells.(c + 2) in
  if q <> empty then q
  else begin
    let c =
      if 4 * (t.count + 1) > 3 lsl t.bits then begin
        grow t;
        slot t.cells t.bits a b
      end
      else c
    in
    t.cells.(c) <- a;
    t.cells.(c + 1) <- b;
    t.cells.(c + 2) <- p;
    t.count <- t.count + 1;
    empty
  end

let length t = t.count
let bytes t = 8 * (Array.length t.cells + 1)
