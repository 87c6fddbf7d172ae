(** A checkpoint directory: everything an online hunt persists across
    process restarts.

    Layout (all files host-local, see {!Fp_set}):
    {ul
    {- [meta.bin] — checksummed run metadata ({!meta}): protocol,
       seed, live time reached, cumulative checks / system states /
       store hits, whether a violation was found.  Written to a
       temporary file and renamed, so a kill mid-save leaves the
       previous metadata intact.}
    {- [combos.fps] — fingerprints of system-state combinations whose
       invariant check came back clean.  An invariant verdict is a
       pure function of the combination, so a clean combination stays
       clean forever and warm restarts skip it outright: this set is
       what makes a resumed hunt explore strictly fewer states.}
    {- [node<i>.fps] — per-node LMC state-store fingerprints, the
       persistent image of each node's visited set.}
    {- [iplus.fps] — fingerprints of every message that ever entered
       [I+].}}

    Violating combinations deliberately never enter [combos.fps]: a
    preliminary violation rejected as unsound from one snapshot may be
    perfectly schedulable from a later one, so it must be re-examined
    on every restart.  Node and [I+] sets are bookkeeping for delta
    accounting (how much of a restart's exploration is genuinely new)
    — they never prune exploration, which soundness verification needs
    to rebuild in full from each snapshot's roots. *)

type t

type meta = {
  m_protocol : string;
  m_seed : int;
  m_live_time : float;  (** simulated live time the hunt had reached *)
  m_checks : int;  (** cumulative LMC restarts across all phases *)
  m_states : int;  (** cumulative system states created *)
  m_hits : int;  (** cumulative combination-store hits *)
  m_found : bool;  (** a sound violation had been reported *)
  m_membership : bool array;
      (** the fleet's membership map at the last save — under churn
          plans a resume must restore the same fleet it left *)
}

type error = Corrupt_checkpoint of string

val pp_error : Format.formatter -> error -> unit

(** [create ~dir ~protocol ~num_nodes ~seed ()] starts a cold
    checkpoint: the directory is created if missing and every store
    file is truncated fresh.  [events] (default {!Events.null})
    receives the [store.v2] stream; an ["open"] record is emitted
    here. *)
val create :
  ?events:Events.t ->
  dir:string ->
  protocol:string ->
  num_nodes:int ->
  seed:int ->
  unit ->
  t

(** [load ~dir ~protocol ~num_nodes ~seed ()] resumes from an existing
    checkpoint.  The metadata checksum, protocol name, node count and
    seed must all match — resuming a deterministic simulation under a
    different seed or protocol would silently check the wrong system,
    so any mismatch (and any truncated or bit-flipped file) is a typed
    {!error}; callers fall back to {!create}. *)
val load :
  ?events:Events.t ->
  dir:string ->
  protocol:string ->
  num_nodes:int ->
  seed:int ->
  unit ->
  (t, error) result

val meta : t -> meta

val combos : t -> Fp_set.t

val node_states : t -> Fp_set.t array

val iplus : t -> Fp_set.t

val events : t -> Events.t

(** Persist progress: flushes every store file and atomically replaces
    [meta.bin]; emits a ["flush"] record.  [membership] (default: keep
    the stored map) records the fleet at this save point. *)
val save :
  ?membership:bool array ->
  t ->
  live_time:float ->
  checks:int ->
  states:int ->
  hits:int ->
  found:bool ->
  unit

val close : t -> unit
