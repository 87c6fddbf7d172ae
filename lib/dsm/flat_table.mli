(** Open-addressing hash table from a pair of native ints to an int.

    Keys are two 63-bit lanes — the lanes of a {!Fingerprint.Mix} key,
    or any pair of ids — and payloads are non-negative ints, typically
    an index into a side vector.  The table is one flat [int array] of
    (lane, lane, payload) triples probed linearly, so a lookup touches
    no boxed key and an insert allocates nothing until the table
    grows.  It doubles when an insert would take it past a load factor
    of 3/4. *)

type t

(** An empty table with 16 slots. *)
val create : unit -> t

(** [find t a b] is the payload bound to [(a, b)], or [-1]. *)
val find : t -> int -> int -> int

(** [find_or_add t a b p] is [find t a b] when [(a, b)] is bound;
    otherwise it binds [(a, b)] to [p] and returns [-1].  One probe
    sequence either way.  Raises [Invalid_argument] when [p < 0]. *)
val find_or_add : t -> int -> int -> int -> int

(** Number of bindings. *)
val length : t -> int

(** Heap bytes held by the slot array (all slots, empty ones too). *)
val bytes : t -> int
