(** Open-addressing table of dense ids, for interning.

    The table stores only ids: the keys live with the caller, typically
    in a vector indexed by id.  Each slot is one [int] holding a 30-bit
    tag of the key's hash and the id, or [-1] when empty, so a lookup
    touches no boxed key and the table costs one word per slot.  A
    lookup takes the key's hash and an [eq] callback that says whether
    a stored id names the key; a slot matches only when its tag matches
    {e and} [eq id] holds, so a tag collision continues the probe and
    identity is exactly the caller's [eq].

    Probing is linear from a home slot taken from the tag, and the
    table doubles (rehashing from the stored tags) when an insert would
    take it past a load factor of 3/4. *)

type t

(** An empty table with 16 slots. *)
val create : unit -> t

(** Largest id a table can hold: [2^31 - 1]. *)
val max_id : int

(** [find t hash eq] is the id stored under [hash] for which [eq]
    holds, or [-1].  [eq] is called only on ids whose tag matches. *)
val find : t -> int -> (int -> bool) -> int

(** [add t hash id] stores [id] under [hash].  It does not look for an
    equal key: callers add an id after {!find} missed.  Raises
    [Invalid_argument] when [id] is negative or above {!max_id}. *)
val add : t -> int -> int -> unit

(** Number of ids stored. *)
val length : t -> int
