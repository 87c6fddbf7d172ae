(** The flight recorder: a causal, replayable record of exploration.

    Checkers log every explored transition as one structured record —
    acting node, handler label, consumed/produced messages with [I+]
    provenance (which earlier record first injected each message),
    state fingerprints before/after, depth — plus run headers, the
    soundness search's own verdicts, and fully materialised violation
    witnesses.  The stream is JSONL with a versioned schema
    ([trace.v1]); [bin/jsonl_check] validates it, [lmc report] renders
    it, and [lmc replay] re-executes recorded witnesses against the
    live handlers.

    Checkers record from their sequential exploration loop, so two
    runs with the same config produce the same record stream — in
    particular every fingerprint.

    Two bounded-memory modes: {!to_file} streams through a
    {!Sink.jsonl_file} as the run progresses; {!ring} keeps only the
    last [capacity] records in memory and dumps them at {!close}
    (cheap enough for always-on recording: no rendering or I/O on the
    hot path). *)

(** The schema version tag carried by every record (["trace.v1"]). *)
val schema : string

type t

(** The disabled recorder: {!emit} is one branch and returns [-1]. *)
val null : t

(** Whether records will actually be kept (callers gate the cost of
    assembling record fields on this). *)
val enabled : t -> bool

(** Stream records to [path] as JSONL while the run progresses. *)
val to_file : string -> t

(** Record through an existing sink (e.g. {!Sink.memory} in tests). *)
val of_sink : Sink.t -> t

(** The underlying sink of a streaming recorder ({!to_file} /
    {!of_sink}); [None] for {!null} and for {!ring} mode, whose file
    is only written at {!close}.  Lets sibling schemas (the
    checkpoint layer's [store.v2] records) interleave their own
    [seq]-spaces into the same JSONL stream. *)
val sink : t -> Sink.t option

(** Keep only the last [capacity] (default 65536) records in memory;
    {!close} writes them to [path] oldest-first, followed by a
    [ring_meta] record saying how many early records were overwritten.
    A [run] header emitted as the stream's first record is kept outside
    the ring and written first, so an overflowed recording still
    replays its witnesses.  The file is opened eagerly so an
    unwritable path fails here. *)
val ring : ?capacity:int -> string -> t

(** [emit t ~ev fields] appends one record
    [{"ts":..,"event":"trace","schema":"trace.v1","seq":N,"ev":ev,...fields}]
    and returns its sequence number ([-1] when disabled).  Sequence
    numbers increase monotonically; provenance fields in later records
    reference them.  Thread-safe, but deterministic streams require
    emitting from one domain. *)
val emit : t -> ev:string -> (string * Dsm.Json.t) list -> int

(** Like {!emit}, but field assembly is deferred: {!ring} stores the
    thunk unforced and renders at {!close} (at most [capacity] forces
    however long the run), streaming modes force immediately.  The
    [seq] is still assigned eagerly.  Captured values must be
    immutable — the thunk may run long after the transition. *)
val emit_lazy : t -> ev:string -> (unit -> (string * Dsm.Json.t) list) -> int

val flush : t -> unit

(** Flush and release; ring mode performs its dump here.  Idempotent. *)
val close : t -> unit

(** {2 The typed transition record}

    The [ev = "step"] payload, typed so encode/decode can be
    round-trip tested and consumers need no ad-hoc field picking. *)

type step_kind = Deliver | Action | Crash

type step = {
  node : int;  (** acting node *)
  kind : step_kind;
  src : int;  (** sender for deliveries; [-1] for internal actions and
                  crash-recoveries *)
  label : string;  (** rendered message/action (protocol [pp]) *)
  fp_before : string;  (** full-hex fingerprint of the node state *)
  fp_after : string;
  consumed : (string * int) option;
      (** delivered message fingerprint and the [seq] of the record
          that first injected it into [I+] ([-1]: predates recording) *)
  produced : string list;  (** fingerprints of sent messages *)
  depth : int;
  dom : int;  (** domain id of the recording (apply) side *)
}

val kind_to_string : step_kind -> string

val step_to_json : step -> Dsm.Json.t

val step_of_json : Dsm.Json.t -> (step, string) result

(** [record_step t s] = [emit t ~ev:"step" ...]. *)
val record_step : t -> step -> int

(** {!record_step} with the step assembled lazily (see {!emit_lazy});
    the checker's hot path uses this so ring-mode recording does no
    formatting or hex conversion per transition. *)
val record_step_lazy : t -> (unit -> step) -> int

(** {2 Hex transport encoding}

    Witness records embed marshalled protocol values; hex keeps them
    printable inside JSON strings. *)

val hex_of_string : string -> string

val string_of_hex : string -> (string, string) result
