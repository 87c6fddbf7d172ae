(** A-posteriori soundness verification (Fig. 9, [isStateSound] /
    [isSequenceValid], with the efficient implementation of §4.2).

    Combining independently explored node states can yield system
    states no real run produces; a preliminary invariant violation is
    reported to the user only if the per-node event sequences leading
    to the combined states admit a valid total order — one in which
    every network event consumes a message generated earlier.

    The engine works purely on fingerprints: an event carries the hash
    of the message it consumes (if any) and the hashes of the messages
    it generates, so validity checking reduces to multiset bookkeeping
    over hashes — "some integer comparison operations" in the paper's
    words — with no protocol re-execution.

    The paper selects enabled events greedily and argues (technical
    report) that greediness loses nothing.  We use greedy order first
    and fall back to bounded backtracking with memoisation, which is
    never less complete. *)

type event = {
  node : Dsm.Node_id.t;
  label : Dsm.Fingerprint.t;  (** event identity, for reporting *)
  requires : Dsm.Fingerprint.t option;
      (** message consumed; [None] for internal actions, which are
          always enabled *)
  produces : Dsm.Fingerprint.t list;  (** messages generated *)
}

(** Events of one node, oldest first, from the live state to the node
    state under scrutiny. *)
type sequence = event list

type verdict =
  | Valid of event list
      (** a real run exists; the witness total order is returned *)
  | Invalid  (** no interleaving of the sequences is executable *)
  | Budget_exhausted
      (** undecided within [budget] search steps (counts as not-proven,
          so no bug is reported from it) *)

(** [check ~budget ~initial_net sequences] decides whether the [n]
    sequences admit a valid total order.  [initial_net] lists message
    fingerprints already in flight when the sequences start (empty for
    snapshot-rooted checks).  [budget] bounds backtracking steps
    (default 200_000).  This is the paper's [isSequenceValid] over
    explicit sequences; no checker calls it.  It stays as the
    brute-force reference the DAG search is tested against. *)
val check :
  ?budget:int ->
  initial_net:Dsm.Fingerprint.t list ->
  sequence array ->
  verdict

(** {2 DAG-based verification}

    Enumerating explicit event sequences per node state (the paper's
    formulation) samples an exponential path space and can miss the
    one compatible combination.  [check_dag] instead searches the
    product of the per-node {e predecessor DAGs} directly: one
    memoised forward search decides whether {e any} combination of
    paths to the target node states is schedulable — strictly more
    complete than capped sequence enumeration, and on the buggy Paxos
    ablation two orders of magnitude faster.  It is the checker's only
    soundness search. *)

(** One node's predecessor DAG, restricted to the entries that can
    reach the target: vertices are the checker's node-state indices,
    an edge [(from, event, to)] says executing [event] on state [from]
    yields state [to]. *)
type node_graph = {
  root : int;  (** the snapshot state *)
  target : int;  (** the node state under scrutiny *)
  edges : (int * event * int) list;
}

(** A scope's soundness metrics, resolved once per run: each handle
    is looked up in the registry on its first use, so a metric appears
    there exactly when something has been recorded into it. *)
type handles

val handles : Obs.scope -> handles

(** [check_dag ~budget ~initial_net graphs] decides whether every node
    can walk from its root to its target such that the interleaved
    events form a valid run.  [handles] records the call's effort into
    their scope: a [soundness.steps] histogram, the
    [soundness.checks.dag] and per-verdict counters, and one
    [ev = "soundness"] record (kind, steps, verdict) in its recorder.
    Default: {!Obs.null}'s. *)
val check_dag :
  ?handles:handles ->
  ?budget:int ->
  initial_net:Dsm.Fingerprint.t list ->
  node_graph array ->
  verdict

(** {2 Feasibility summaries}

    The necessary condition [check_dag] tests before any search, split
    so that its per-component part can be cached.  Each vertex of a
    component's predecessor graph is summarised by [must] — the
    messages consumed on {e every} root-to-vertex path, [None] when no
    path exists — and [prod] — the messages produced by any edge of its
    backward closure.  A tuple of targets is infeasible when one is
    unreachable, or one must consume a message that no component's
    closure and no initial message supplies.  Messages are dense
    integer ids, so the tuple test is a handful of word operations. *)

(** Sets of dense message ids, any size. *)
module Bits : sig
  type t

  val empty : t
  val add : int -> t -> t
  val mem : int -> t -> bool

  val words : t -> int
  (** heap words the set occupies, header excluded *)

  val of_list : int list -> t
  val elements : t -> int list
  (** in ascending order *)

  val subset : t -> t -> bool
  val equal : t -> t -> bool
  val union : t -> t -> t
  val inter : t -> t -> t
end

type summary = {
  must : Bits.t option;  (** [None]: not reachable from the root *)
  prod : Bits.t;
}

(** An edge into a vertex: its source vertex, the message it consumes
    ([-1] for none) and the messages it produces. *)
type edge = { src : int; req : int; made : Bits.t }

(** [summarise ~root ~pinned incoming] solves every vertex
    [0 .. Array.length incoming - 1], given each vertex's incoming
    edges.  [must] is the meet-over-paths fixpoint (root = [{}], every
    other vertex the intersection over its incoming edges of the
    source's [must] plus the edge's message, iterated down from
    unreachable); [prod] is the union fixpoint.  A vertex with
    [pinned.(v) = Some s] is already solved and keeps [s]; the root may
    be [-1] when it is pinned or absent.  The one implementation of
    [must], used by [feasible] and by the checker's cached summaries. *)
val summarise :
  root:int -> pinned:summary option array -> edge list array -> summary array

type infeasible =
  | Unreachable of int  (** component [i]'s target has no root path *)
  | Missing of int * int
      (** component [i] must consume message [m], which nothing produces *)

(** [screen ~initial targets] tests a tuple of target summaries against
    the initial messages and the union of their [prod] sets; [None]
    means the tuple may be schedulable.  A [Missing] reason names the
    lowest such message of the first failing component.  Each word of
    the union is formed once per call, and nothing is allocated but
    the answer, so a caller can refill one [targets] buffer per
    tuple. *)
val screen : initial:Bits.t -> summary array -> infeasible option

(** [feasible ~initial_net graphs] is [screen] over the targets of
    explicit graphs — the filter [check_dag] runs before searching. *)
val feasible : initial_net:Dsm.Fingerprint.t list -> node_graph array -> bool

(** [record_infeasible h n] records [n] calls rejected by a cached
    [screen] exactly as [check_dag] records [n] [feasible] rejections:
    0-step [dag] searches, [Invalid], one [soundness] record each
    when the scope has a recorder. *)
val record_infeasible : handles -> int -> unit
