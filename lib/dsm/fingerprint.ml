type t = string

(* The kernel lives in fingerprint_stubs.c; each stub fills a fresh
   16-byte buffer and never allocates. *)
external walk : 'a -> bytes -> bool = "lmc_fp_value" [@@noalloc]
external hash_string : raw:bool -> string -> bytes -> unit = "lmc_fp_string"
  [@@noalloc]
external hash_list : string list -> bytes -> unit = "lmc_fp_combine"
  [@@noalloc]

let name = "pre128"

let of_value v =
  let buf = Bytes.create 16 in
  if not (walk v buf) then hash_string ~raw:false (Marshal.to_string v []) buf;
  Bytes.unsafe_to_string buf

let of_string s =
  let buf = Bytes.create 16 in
  hash_string ~raw:true s buf;
  Bytes.unsafe_to_string buf

let combine fps =
  let buf = Bytes.create 16 in
  hash_list fps buf;
  Bytes.unsafe_to_string buf

let equal = String.equal

let compare = String.compare

let size = 16

let serialized_size v = String.length (Marshal.to_string v [])

let to_hex t = Digest.to_hex t

let pp ppf t = Format.pp_print_string ppf (String.sub (to_hex t) 0 8)

module Set = Set.Make (String)
module Map = Map.Make (String)

module Mix = struct
  (* Two lanes of 63-bit native ints; all arithmetic wraps mod 2^63. *)
  type nonrec t = { a : int; b : int }

  let zero = { a = 0; b = 0 }

  let of_fp d =
    {
      a = Int64.to_int (String.get_int64_le d 0);
      b = Int64.to_int (String.get_int64_le d 8);
    }

  let of_value v = of_fp (of_value v)

  let add x y = { a = x.a + y.a; b = x.b + y.b }

  let sub x y = { a = x.a - y.a; b = x.b - y.b }

  let scale k x = { a = k * x.a; b = k * x.b }

  let equal x y = x.a = y.a && x.b = y.b

  (* A 63-bit finaliser (splitmix64's shape, constants below 2^62):
     spreads consecutive lane indices into unrelated odd multipliers. *)
  let multiplier k =
    let z = (k + 1) * 0x3C6EF372FE94F82B in
    let z = (z lxor (z lsr 31)) * 0x3F58476D1CE4E5B9 in
    let z = (z lxor (z lsr 29)) * 0x14D049BB133111EB in
    (z lxor (z lsr 32)) lor 1

  let slot i x =
    { a = multiplier (2 * i) * x.a; b = multiplier ((2 * i) + 1) * x.b }

  let slots xs =
    let acc = ref zero in
    Array.iteri (fun i x -> acc := add !acc (slot i x)) xs;
    !acc

  let bindings bs =
    List.fold_left (fun acc (e, c) -> add acc (scale c (of_value e))) zero bs

  let lane_a x = x.a
  let lane_b x = x.b
  let of_lanes a b = { a; b }

  let to_fp x =
    let buf = Bytes.create 16 in
    Bytes.set_int64_le buf 0 (Int64.of_int x.a);
    Bytes.set_int64_le buf 8 (Int64.of_int x.b);
    Bytes.unsafe_to_string buf
end

let product nodes bindings =
  Mix.to_fp
    (Mix.add (Mix.slots (Array.map Mix.of_value nodes)) (Mix.bindings bindings))
