(* Mmap'd open-addressing set of 64-bit fingerprint keys.

   File layout (host byte order, all cells 8 bytes):

     cell 0      magic "store.v2"
     cell 1      capacity (slots, a power of two)
     cell 2      salt (reserved, 0)
     cell 3      advisory entry count (loading recounts)
     cells 4-5   MD5 of cells 0-2 (the immutable header prefix)
     cells 6-7   reserved, 0
     cells 8..   the slots; 0 = empty

   The checksum deliberately covers only the immutable prefix: the
   count cell is rewritten on every flush, and a crash between a slot
   store and a count store must not condemn the whole file.  Loading
   verifies the prefix and recounts the slots instead.

   The version names the fingerprint kernel the keys fold: a
   [store.v1] file holds keys of the older MD5 digests, which no
   current fingerprint reproduces, so it loads as a bad magic rather
   than as a set of silently stale keys. *)

type slots = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  file : string;
  lock : Mutex.t;
  mutable fd : Unix.file_descr;
  mutable slots : slots;  (* header cells included; slots at index 8+ *)
  mutable cap : int;
  mutable mask : int;
  mutable count : int;
  mutable grows : int;
  mutable grow_cb : (old_capacity:int -> new_capacity:int -> unit) option;
  mutable closed : bool;
}

type error = Corrupt_store of string

let pp_error ppf (Corrupt_store why) =
  Format.fprintf ppf "corrupt store: %s" why

let magic = "store.v2"
let header_cells = 8
let magic_cell = Bytes.get_int64_ne (Bytes.of_string magic) 0

(* Header prefix (cells 0-2) rendered to bytes for the checksum. *)
let header_digest ~cap ~salt =
  let b = Bytes.create 24 in
  Bytes.set_int64_ne b 0 magic_cell;
  Bytes.set_int64_ne b 8 (Int64.of_int cap);
  Bytes.set_int64_ne b 16 salt;
  Digest.bytes b

let digest_cells d =
  let b = Bytes.of_string d in
  (Bytes.get_int64_ne b 0, Bytes.get_int64_ne b 8)

let map_cells fd ncells =
  Bigarray.array1_of_genarray
    (Unix.map_file fd Bigarray.int64 Bigarray.c_layout true [| ncells |])

let round_pow2 n =
  let c = ref 1 in
  while !c < n do
    c := !c * 2
  done;
  !c

let write_header slots ~cap ~salt ~count =
  Bigarray.Array1.set slots 0 magic_cell;
  Bigarray.Array1.set slots 1 (Int64.of_int cap);
  Bigarray.Array1.set slots 2 salt;
  Bigarray.Array1.set slots 3 (Int64.of_int count);
  let lo, hi = digest_cells (header_digest ~cap ~salt) in
  Bigarray.Array1.set slots 4 lo;
  Bigarray.Array1.set slots 5 hi;
  Bigarray.Array1.set slots 6 0L;
  Bigarray.Array1.set slots 7 0L

let create_file path cap =
  let fd = Unix.openfile path [ O_RDWR; O_CREAT; O_TRUNC ] 0o644 in
  Unix.ftruncate fd ((header_cells + cap) * 8);
  let slots = map_cells fd (header_cells + cap) in
  write_header slots ~cap ~salt:0L ~count:0;
  (fd, slots)

let default_capacity = 65_536

let create ?(capacity = default_capacity) path =
  let cap = round_pow2 (max 1024 capacity) in
  let fd, slots = create_file path cap in
  {
    file = path;
    lock = Mutex.create ();
    fd;
    slots;
    cap;
    mask = cap - 1;
    count = 0;
    grows = 0;
    grow_cb = None;
    closed = false;
  }

let load path =
  match Unix.openfile path [ O_RDWR ] 0 with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Corrupt_store (Printf.sprintf "cannot open %s: %s" path
                              (Unix.error_message e)))
  | fd -> (
      let fail why =
        Unix.close fd;
        Error (Corrupt_store why)
      in
      let size = (Unix.fstat fd).Unix.st_size in
      if size < header_cells * 8 then fail "truncated header"
      else if size mod 8 <> 0 then fail "ragged length"
      else
        match map_cells fd (size / 8) with
        | exception _ -> fail "unmappable file"
        | slots ->
            if not (Int64.equal (Bigarray.Array1.get slots 0) magic_cell)
            then fail "bad magic"
            else
              let cap = Int64.to_int (Bigarray.Array1.get slots 1) in
              if cap < 1 || cap land (cap - 1) <> 0 then
                fail "capacity not a power of two"
              else if size <> (header_cells + cap) * 8 then
                fail
                  (Printf.sprintf "truncated slots: %d bytes, want %d" size
                     ((header_cells + cap) * 8))
              else
                let salt = Bigarray.Array1.get slots 2 in
                let lo, hi = digest_cells (header_digest ~cap ~salt) in
                if
                  not
                    (Int64.equal lo (Bigarray.Array1.get slots 4)
                    && Int64.equal hi (Bigarray.Array1.get slots 5))
                then fail "header checksum mismatch"
                else begin
                  let count = ref 0 in
                  for i = header_cells to header_cells + cap - 1 do
                    if not (Int64.equal (Bigarray.Array1.get slots i) 0L)
                    then incr count
                  done;
                  Ok
                    {
                      file = path;
                      lock = Mutex.create ();
                      fd;
                      slots;
                      cap;
                      mask = cap - 1;
                      count = !count;
                      grows = 0;
                      grow_cb = None;
                      closed = false;
                    }
                end)

let path t = t.file

(* A fingerprint's on-disk key: XOR of its two 8-byte halves.  Zero
   is the empty-slot sentinel, so the (astronomically rare) zero fold
   remaps to an arbitrary odd constant. *)
let key fp =
  if String.length fp <> Dsm.Fingerprint.size then
    invalid_arg "Fp_set.key: not a fingerprint";
  let b = Bytes.unsafe_of_string fp in
  let k = Int64.logxor (Bytes.get_int64_ne b 0) (Bytes.get_int64_ne b 8) in
  if Int64.equal k 0L then 0x9e3779b97f4a7c15L else k

let slot_index t k = Int64.to_int k land max_int land t.mask

(* Probe until the key or an empty slot; the [steps] bound terminates
   even on a (corrupt) full table. *)
let mem_key slots mask k =
  let rec go i steps =
    if steps > mask then false
    else
      let v = Bigarray.Array1.unsafe_get slots (header_cells + i) in
      if Int64.equal v 0L then false
      else if Int64.equal v k then true
      else go ((i + 1) land mask) (steps + 1)
  in
  go (Int64.to_int k land max_int land mask) 0

let mem t fp = mem_key t.slots t.mask (key fp)

let probe t fp =
  let k = key fp in
  let rec go i steps =
    if steps > t.mask then None
    else
      let v = Bigarray.Array1.get t.slots (header_cells + i) in
      if Int64.equal v 0L then None
      else if Int64.equal v k then Some v
      else go ((i + 1) land t.mask) (steps + 1)
  in
  go (slot_index t k) 0

(* Callers hold [t.lock]. *)
let rec add_key_locked t k =
  if t.count >= t.cap - (t.cap / 8) then grow_locked t;
  let rec go i =
    let v = Bigarray.Array1.unsafe_get t.slots (header_cells + i) in
    if Int64.equal v 0L then begin
      Bigarray.Array1.unsafe_set t.slots (header_cells + i) k;
      t.count <- t.count + 1;
      true
    end
    else if Int64.equal v k then false
    else go ((i + 1) land t.mask)
  in
  go (slot_index t k)

(* Crash-safe growth: rehash into [file ^ ".grow"] at twice the
   capacity, then rename over the original.  A kill at any point
   leaves a valid store at [file] (old or new, never torn); the
   superseded mapping stays readable until this handle drops it. *)
and grow_locked t =
  let old_cap = t.cap in
  let cap = old_cap * 2 in
  let tmp = t.file ^ ".grow" in
  let fd, slots = create_file tmp cap in
  let mask = cap - 1 in
  let inserted = ref 0 in
  for i = header_cells to header_cells + old_cap - 1 do
    let v = Bigarray.Array1.get t.slots i in
    if not (Int64.equal v 0L) then begin
      let rec go j =
        let w = Bigarray.Array1.unsafe_get slots (header_cells + j) in
        if Int64.equal w 0L then begin
          Bigarray.Array1.unsafe_set slots (header_cells + j) v;
          incr inserted
        end
        else if not (Int64.equal w v) then go ((j + 1) land mask)
      in
      go (Int64.to_int v land max_int land mask)
    end
  done;
  Bigarray.Array1.set slots 3 (Int64.of_int !inserted);
  Unix.close t.fd;
  Unix.rename tmp t.file;
  t.fd <- fd;
  t.slots <- slots;
  t.cap <- cap;
  t.mask <- mask;
  t.count <- !inserted;
  t.grows <- t.grows + 1;
  match t.grow_cb with
  | Some cb -> cb ~old_capacity:old_cap ~new_capacity:cap
  | None -> ()

let add_key t k = Mutex.protect t.lock (fun () -> add_key_locked t k)

let add t fp = add_key t (key fp)

let length t = t.count

let capacity t = t.cap

let occupancy t = float_of_int t.count /. float_of_int t.cap

let compactions t = t.grows

let on_compact t cb = t.grow_cb <- Some cb

let flush t =
  Mutex.protect t.lock (fun () ->
      if not t.closed then
        Bigarray.Array1.set t.slots 3 (Int64.of_int t.count))

let close t =
  flush t;
  Mutex.protect t.lock (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Unix.close t.fd
      end)
