(** Global model checking: bounded depth-first search (section 3.2).

    The classic approach the paper compares against.  States are
    {e global}: the system state (all node-local states) together with
    the network (a multiset of in-flight messages).  Every enabled
    transition is taken from every traversed global state, but each
    local step — a node state meeting a message, an action or a crash
    — runs its handler once and is shared by every global state that
    contains it (an interned {!Make.space}).  Duplicate detection uses
    a compositional 128-bit {e key} (below) that each transition
    updates with the step's memoised deltas rather than recomputes,
    held in one flat table ({!Dsm.Flat_table}) keyed by its two lanes.

    B-DFS is sound (every traversed state is reachable, so every
    report is real) and complete given enough time — but the network
    component multiplies the state space, which is precisely the
    explosion LMC removes. *)

(** The key definition's name (["mix128-pre128"]: the {!Make.key} mix
    over {!Dsm.Fingerprint.name} digests), recorded in [bdfs_run]. *)
val key_name : string

module Make (P : Dsm.Protocol.S) : sig
  (** {2 Interned local transitions}

      The paper's premise (section 3) is that node states are shared
      across global states, so each local transition needs to run only
      once.  A {!space} interns node states (per node, by digest) and
      envelopes (by [Stdlib.compare] class) into dense ids, each with
      its digest cached, and memoises every local step the search asks
      for: (state id, envelope id) to its delivery, state id to its
      enabled actions (in [enabled_actions] order), and state id to its
      crash-recovery.  A handler raising [Local_assert] memoises as a
      disabled step.

      {b Determinism contract.}  The memo hands every global state that
      contains a node state the first execution's result, so handlers,
      [enabled_actions] and [on_recover] must be deterministic functions
      of (self, state, input), and states fingerprint-equal must behave
      alike.  [Lint.Sanitize]'s determinism and canonicality sanitizers
      audit exactly this ([make lint]). *)

  type space

  (** A fresh, empty space; {!permuted_key} caches image digests for
      the given spec's group.  {!run} creates its own. *)
  val create_space : (P.state, P.message) Dsm.Symmetry.spec -> space

  (** A global state over a space's ids: one state id per node, the
      in-flight multiset as (envelope id, count) pairs in ascending
      [Stdlib.compare] order of the envelopes, the crash counts, and
      the lanes of two keys ({!Dsm.Fingerprint.Mix}).  The key is
      [sum_i slot i (of_value nodes.(i)) + sum count * of_value env],
      plus [Mix.of_value crashes] once some node has crashed — so a
      [crash_budget = 0] run keys on nodes and network alone; the
      system-state key is its first sum.  Every digest comes from the
      space's caches, and a step adds its memoised deltas. *)
  type global

  (** [make_global sp nodes net crashes] interns [nodes] and [net]
      into [sp]. *)
  val make_global :
    space -> P.state array -> P.message Dsm.Envelope.t list -> int array ->
    global

  (** The node states, by node. *)
  val nodes : space -> global -> P.state array

  (** Distinct in-flight envelopes with their multiplicities, in
      ascending [Stdlib.compare] order. *)
  val bindings : space -> global -> (P.message Dsm.Envelope.t * int) list

  val crashes : global -> int array

  (** Successors of a global state, each with the step taken and the
      messages it sent, in the order the search takes them: one
      delivery per distinct in-flight message (ascending order), each
      node's enabled internal actions (node order, then
      [enabled_actions] order), then (with [crash_budget > 0]) one
      crash-recovery per node under budget whose recovered state
      differs from its current one.  Disabled steps are skipped.  The
      search runs the same memoised steps. *)
  val successors :
    space ->
    crash_budget:int ->
    global ->
    ((P.message, P.action) Dsm.Trace.step
    * global
    * P.message Dsm.Envelope.t list)
    list

  (** The key from [g]'s cached lanes; this keys the visited set and
      step records' [fp_before]/[fp_after]. *)
  val key : global -> Dsm.Fingerprint.t

  (** The same key computed from scratch. *)
  val key_of :
    nodes:P.state array ->
    bindings:(P.message Dsm.Envelope.t * int) list ->
    crashes:int array ->
    Dsm.Fingerprint.t

  (** [permuted_key sp p g] is [key_of] of [g]'s image under [p] (an
      element of [sp]'s group; see [symmetry] below): renamed,
      slot-permuted node states, renamed envelopes and permuted crash
      counts, with each image digest cached per (permutation, id). *)
  val permuted_key : space -> Dsm.Symmetry.perm -> global -> Dsm.Fingerprint.t

  (** {2 The search} *)

  type violation = {
    system : P.state array;  (** the violating system state *)
    violation : Dsm.Invariant.violation;
    trace : (P.message, P.action) Dsm.Trace.t;
        (** event sequence from the initial state *)
    depth : int;
  }

  type stats = {
    transitions : int;
        (** global-state transitions taken (edges of the explored
            graph); each runs a handler only the first time its
            (node state, input) pair is met *)
    global_states : int;  (** distinct global states visited *)
    system_states : int;  (** distinct system states among them *)
    max_depth_reached : int;
    retained_bytes : int;
        (** analytic heap bytes the run retains: the visited table's
            slot array ({!Dsm.Flat_table.bytes}) and one word per
            visited key for its depth; two words per parent entry
            (parent index, shared step; [track_traces] only); the
            system-state table; and the {!space}: each interned node
            state and envelope at its [Marshal] size plus its cached
            digests and table slots, each memoised step's record and id
            arrays, and the intern and delivery tables.  With
            [visited_store] the keys live in the page cache and the
            visited table and depths are not kept *)
    store_hits : int;
        (** successors whose key was already present in
            [visited_store] (earlier run or this one); [0] without a
            store *)
    orbit_hits : int;
        (** successors deduplicated against a {e different} member of
            their symmetry orbit (their raw key was new but the
            canonical one was already visited); [0] with the identity
            group *)
    elapsed : float;  (** wall-clock seconds *)
  }

  type outcome = {
    stats : stats;
    violation : violation option;
    completed : bool;
        (** the whole bounded space was explored (no limit tripped) *)
  }

  type config = {
    max_depth : int option;
    time_limit : float option;  (** wall-clock seconds *)
    max_transitions : int option;
    crash_budget : int;
        (** crash-recovery transitions allowed per node on any path: a
            crash rewrites the node state through
            {!Dsm.Protocol.S.on_recover}, consumes and produces no
            messages, and is pruned when the recovered state equals the
            current one.  The crash counts join the state key only
            when some node has crashed, so [0] (the default) keys the
            crash-free space on nodes and network alone. *)
    stop_on_violation : bool;
    track_traces : bool;
        (** keep parent pointers for counterexample traces; disable to
            measure the bare visited-set footprint *)
    visited_store : Store.Fp_set.t option;
        (** disk-backed visited set ({!Store.Fp_set}): global-state
            keys go to an mmap'd file instead of the heap, so
            the visited set no longer bounds the explorable space by
            RAM (the paper's Fig. 10 axis) and a later run against the
            same file skips everything a {e completed} earlier run
            visited.  Switches the search from the recursive DFS to
            layered (breadth-first) frontier expansion, because only
            minimum-depth-first traversal makes a presence-only set
            equivalent to the DFS's depth-keyed table.  The traversal
            {e order} differs from the DFS, so a found counterexample
            may differ; an exhausted space yields the same
            [global_states] and verdict.  Reports stay sound after a resume
            (every violation found is real), but completeness is only
            guaranteed when the prior run [completed]: a truncated
            run may have recorded states whose successors it never
            expanded.  Default [None]. *)
    obs : Obs.scope;
        (** observability scope: [bdfs.transitions] /
            [bdfs.global_states] / [bdfs.system_states] counters and a
            [bdfs.depth] histogram mirror {!stats}, and a periodic
            ["progress"] heartbeat reports long runs.  Its recorder
            ({!Obs.recorder}) gets one [step] record per first-visited
            global state (global-state keys before/after,
            message provenance), a replayable [witness] record per
            violation (requires [track_traces]), and [bdfs_run] /
            [bdfs_end] framing; [bdfs_run] names the key definition
            (["key"]: {!key_name}).  The DFS and the layered frontier BFS
            (with [visited_store]) traverse in different orders, so
            their record streams legitimately differ; two runs with the
            same config record identical streams.  Defaults to
            {!Obs.null}. *)
    symmetry : (P.state, P.message) Dsm.Symmetry.spec;
        (** audited role-permutation symmetry for global-state
            canonicalization.  Every successor's key is reduced to the
            least ({!Dsm.Fingerprint.compare}) over its orbit
            ({!permuted_key}: node states renamed and slot-permuted,
            envelopes renamed, crash counts permuted) before the
            visited-set lookup, so each orbit is
            explored once.  {b Sound iff handlers, [enabled_actions],
            [initial], [on_recover] and the invariant all commute with
            the group} — audit with [Lint.Symmetry] before passing
            anything but the identity spec.  Witness traces are
            recorded in original coordinates: parent chains are keyed
            by canonical keys but store the concrete
            first-visited state of each orbit, so a rebuilt trace is a
            real executable path.  With [visited_store], the persisted
            key becomes the canonical key; share a store file
            only between runs using the same symmetry setting.
            Default: the identity spec (no reduction). *)
  }

  val default_config : config

  (** [run config ~invariant ?initial_net init] explores from the
      system state [init] (node states indexed by id) with the given
      in-flight messages (default: none). *)
  val run :
    config ->
    invariant:P.state Dsm.Invariant.t ->
    ?initial_net:P.message Dsm.Envelope.t list ->
    P.state array ->
    outcome
end
