(** Disk-backed visited set: an mmap'd open-addressing hash table over
    64-bit fingerprints.

    The table is one file — a versioned, checksummed 64-byte header
    ([store.v2]) followed by [capacity] 8-byte slots — mapped into
    memory with [Unix.map_file], so lookups are loads, inserts are
    stores, and the working set is bounded by the page cache rather
    than the OCaml heap.  A slot value of [0] means empty; 16-byte
    state fingerprints fold to a non-zero 64-bit key ({!key}).

    Growth is crash-safe by construction: when the load factor passes
    7/8 the table is rehashed into [path ^ ".grow"] at twice the
    capacity and renamed over the original, so a kill mid-growth
    leaves either the old or the new file, never a torn one.  Inserts
    themselves are single aligned 8-byte stores; a process killed
    between inserts loses at most the entries the kernel had not yet
    seen, and a visited set missing entries is always safe — the work
    is merely re-done.

    Concurrency: {!mem} is lock-free and may run from several domains
    concurrently with one writer; {!add} serialises behind an internal
    mutex.  The checkers call both from their sequential exploration
    loop.

    The header and slots are written in host byte order: store files
    are a single-host resume format, not a portable interchange one. *)

type t

type error = Corrupt_store of string

val pp_error : Format.formatter -> error -> unit

(** [create ?capacity path] makes a fresh (empty) store file at
    [path], truncating any existing one.  [capacity] (default 65536)
    is rounded up to a power of two. *)
val create : ?capacity:int -> string -> t

(** [load path] maps an existing store file, verifying length, magic,
    capacity and the header checksum before trusting a single slot.
    Any mismatch — including a file truncated by a crash — is a typed
    {!error}, never an exception or a garbage table. *)
val load : string -> (t, error) result

val path : t -> string

(** [key fp] is the non-zero 64-bit on-disk folding of a 16-byte
    fingerprint (XOR of its two halves).  Exposed so the lint audit
    can verify that what {!add} wrote is bit-identical to what the
    folding says it should have written. *)
val key : Dsm.Fingerprint.t -> int64

(** Raw slot content reached by probing for [fp]: [Some k] when a
    matching or colliding entry terminates the probe, [None] when the
    probe hits an empty slot.  Audit/debug use. *)
val probe : t -> Dsm.Fingerprint.t -> int64 option

(** Insert a raw 64-bit key, bypassing {!key}.  This is the audit and
    test hook behind the lint sanitizer's digest-drift fixture; real
    callers use {!add}. *)
val add_key : t -> int64 -> bool

val mem : t -> Dsm.Fingerprint.t -> bool

(** [add t fp] inserts and returns [true] iff [fp] was absent. *)
val add : t -> Dsm.Fingerprint.t -> bool

val length : t -> int

val capacity : t -> int

(** [length / capacity], in [0, 1). *)
val occupancy : t -> float

(** Number of crash-safe growth rounds this handle has performed. *)
val compactions : t -> int

(** Called after each growth round with the old and new slot counts;
    the checkpoint layer turns this into a [store.v2] "compact"
    record. *)
val on_compact : t -> (old_capacity:int -> new_capacity:int -> unit) -> unit

(** Persist the advisory header count.  Slot writes themselves go
    through the shared mapping and reach the page cache immediately;
    [flush] exists so a clean shutdown leaves the header's count in
    sync for tooling (loading always recounts). *)
val flush : t -> unit

val close : t -> unit
