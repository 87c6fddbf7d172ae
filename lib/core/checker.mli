(** The local model checker (LMC) — the paper's contribution (§4).

    Instead of global states, LMC keeps one store of traversed states
    {e per node} ([LS_n]) and a single shared network [I+] holding
    every message generated during checking; delivered messages are
    never removed (the monotonic-network abstraction, Fig. 8), so each
    message is eventually applied to every traversed state of its
    destination, which preserves completeness.

    System states exist only transiently: after each new node state,
    Cartesian combinations with the other nodes' stores are built just
    to evaluate the user invariant ([checkSystemInvariant], Fig. 9).
    A combination that violates the invariant is only a {e preliminary}
    violation — it may be unreachable — and is confirmed by
    {!Soundness} before being reported.

    Two system-state creation strategies mirror the paper's variants:
    {ul
    {- [General] (LMC-GEN): the full product of the stores;}
    {- [Invariant_specific] (LMC-OPT): node states are mapped through a
       user abstraction (for Paxos: the values chosen so far) and
       combinations are built only when two node states conflict under
       that abstraction; states that map to [None] are never combined
       at all.}}

    LMC does no symmetry reduction.  Skipping combinations whose
    slot permutation was already proven clean cost more than the
    invariant evaluations it saved (EXPERIMENTS.md, "Symmetry
    reduction"); role-permutation symmetry is exploited by
    [Mc_global.Bdfs] only.

    {2 Per-run bookkeeping}

    {ul
    {- {b Predecessor pointers} (Fig. 9 line 14) are pairs of ints:
       the previous entry's index in its node's store and an event id.
       Events are interned per run by (label, produced [I+] ids); each
       interned event builds its produced-id bitset and its
       {!Soundness.event} once, and every pointer naming it shares
       them.  An entry keeps its pointers oldest first in a growable
       [int array] (room doubles, up to [max_preds_per_entry]) with a
       count, so the cap test is O(1).  {e Order contract:} the
       predecessor graph ({!Soundness.node_graph}) and the cached
       summaries read the pointers newest first; the DAG's edge order,
       and with it every witness, depends on it ([test/cli.t] pins
       witnesses that change when pointers are read oldest first).}
    {- {b Message histories} (§4.2 "Duplicate messages") are
       {!Soundness.Bits} sets of [I+] ids.  [I+] deduplicates messages
       by fingerprint, so an id and a fingerprint name the same message;
       the redelivery test is one bit test.}
    {- {b Pinned-pair tuples are judged once by construction.}  LMC-OPT
       and the pairwise [Automatic] strategy pin the new state with a
       partner on node [m] and complete the tuple from the other
       stores, so a tuple holding partners on two nodes [j < m] comes
       up under both.  The partner walk of node [j] marks the entries it
       visits, and under a later [m] slot [j] offers only the unmarked
       ones.  Each tuple is thus built once, in the order it first comes
       up, with no per-tuple set lookup; tuples of different calls
       differ in the new state.}} *)

(** Cross-restart persistence, built from {!Store.Checkpoint} stores.
    Not parameterised by the protocol, so the online supervisor builds
    it once and threads it through every [Make(P)] restart. *)
type persist = {
  p_combos : Store.Fp_set.t;
      (** combinations whose invariant check came back clean; an
          invariant verdict is a pure function of the combination, so a
          clean combination stays clean and warm restarts skip it *)
  p_nodes : Store.Fp_set.t array;
      (** per-node visited node-state fingerprints, across restarts *)
  p_iplus : Store.Fp_set.t;
      (** every message that ever entered [I+] *)
}

module Make (P : Dsm.Protocol.S) : sig
  (** How system states are created for invariant checking.

      [Invariant_specific] and [Automatic] pin a pair: the new node
      state and one partner on another node, completed from the other
      nodes' full stores.  When the invariant has a pair shape
      ({!Dsm.Invariant.pairwise_witness}), the pinned pair is judged
      once per partner, as {!Dsm.Invariant.check} judges it.  If it
      violates, so does every completion: each is still counted as a
      system state and a preliminary violation, recorded and judged
      for soundness, but no [check] runs for it up front.  Its
      violation is computed by [check] on the same system state only
      when read: once for both its [prelim] and [reject] records (with
      a recorder), or by a confirmation.  So counters, records and
      witnesses are those of checking every completion.  If the pinned
      pair holds, [check] runs on every completion.  Invariants
      without a pair shape, and [General], check every system state
      they create.

      {b Group judgement.}  A violating pinned pair ([a] new, [b] its
      partner) is first screened as a whole: each node keeps the union
      of [prod] over its store's cached summaries, extended as entries
      are appended and rebuilt when the node's store generation moves.
      If [a] or [b] is unreachable, or [must(a) + must(b)] is not
      covered by [prod(a) + prod(b)] and the unions of the free slots'
      nodes, every completion's own screen rejects it too.  Such a
      group is then judged in bulk: the completions are walked in the
      usual order and marks, and each one [max_depth] allows counts as
      a system state, a preliminary violation, a soundness call and a
      rejection, observes 0 in [lmc.soundness_us] and a 0-step
      [Invalid] search in [soundness.*], adds its depth to
      [lmc.system_depth], and enters the rejected cache while it has
      room; the tallies are added once per group, and the
      [lmc.group_screened] counter (registered on first use) counts
      these completions.  With a recorder the walk emits each
      completion's [prelim], [soundness] and [reject] records as
      before, with the reason of its own screen, so record streams do
      not change.  The run's budget is checked once per group rather
      than once per completion ([max_transitions] cannot fire within
      a combination phase; [time_limit] is read at the group's start),
      and the time spent refreshing summaries and unions for the group
      test is added to [soundness_time] without a histogram
      observation.  Groups the test does not rule out, and runs with
      [defer_soundness], [verify_soundness = false] or [persist], are
      judged one completion at a time.

      {b Copy on escape.}  Every strategy enumerates a system state's
      tuple of store entries in one reused buffer, and judges it
      before the next is built; tuple slot [j] always holds node [j]'s
      entry.  Nothing is copied per tuple.  Only what outlives the
      enumeration is kept: a confirmed violation copies the tuple's
      node states, and the rejected cache keeps store indices
      ([max_rejected_cache]). *)
  type 'k strategy =
    | General
    | Invariant_specific of {
        abstract : P.state -> 'k option;
            (** [None] means the state can never contribute to a
                violation and is skipped entirely.  Each node store
                buckets its keyed states by key, so keys must be pure
                data: they are compared by structural equality and
                hashing, like fingerprinted states.  A key that is not
                canonical costs an extra bucket, never a missed
                partner. *)
        conflict : 'k -> 'k -> bool;
            (** whether two abstractions can violate the invariant
                together; called once per distinct key of each other
                node, not once per stored state *)
      }
    | Automatic
        (** derive the pruning from the invariant's shape — the paper's
            future-work idea made concrete.  Invariants built with
            {!Dsm.Invariant.for_all_pairs} only seed combinations
            containing a violating pair (exactly the partners whose
            pinned pair violates); {!Dsm.Invariant.for_all_nodes}
            ones only when the new node state itself violates; anything
            else falls back to [General]. *)

  type config = {
    max_depth : int option;
        (** bound on the number of events of a system state (the sum
            of its node states' path depths); per-node path depths are
            bounded by the same value *)
    time_limit : float option;  (** wall-clock seconds *)
    max_transitions : int option;
    local_action_bound : int option;
        (** max internal actions per node along a path (§4.2 "Local
            events") *)
    crash_budget : int;
        (** crash-recovery events explored per node path.  A crash is a
            local event that rewrites the node state through
            {!Dsm.Protocol.S.on_recover} — it requires no message and
            produces none, so soundness schedules it like any other
            history entry.  [0] (the default) skips the crash pass
            entirely and reproduces the crash-free state graph
            bit-for-bit. *)
    create_system_states : bool;
        (** disable for the LMC-explore configuration of Fig. 13 *)
    verify_soundness : bool;
        (** disable for the LMC-system-state configuration of Fig. 13;
            preliminary violations are then counted but not reported *)
    use_history : bool;
        (** per-state message history suppressing redundant
            re-deliveries (§4.2 "Duplicate messages"); off only for
            ablations *)
    stop_on_violation : bool;
    soundness_budget : int;
        (** search budget per soundness check ({!Soundness.check_dag}) *)
    max_preds_per_entry : int;
        (** cap on predecessor pointers kept per node state; with the
            history simplification, the soundness budget and this cap,
            the only sources of incompleteness are explicit and
            configurable *)
    max_rejected_cache : int;
        (** size bound on the cache of soundness-rejected violations.
            Every preliminary violation is judged the same way: the
            cached feasibility prefilter, then the predecessor-DAG
            search, on the calling domain.  A rejected one is cached
            and judged again once exploration reaches its fixpoint,
            when later-added predecessor pointers may have made it
            schedulable (§4.2's suggested remedy); a run stopped by
            its budget skips that second judgement.  Under
            [defer_soundness] the cache is the deferred queue, and a
            violation that finds it full is judged inline.  The cache
            is one flat [int] vector of fixed-width rows, one per
            tuple: the system depth, then node [j]'s store index in
            slot [j] ([num_nodes + 1] ints, no record, tuple copy or
            violation per row).  The final pass rebuilds each tuple
            from the stores and derives its violation by [check] on
            that tuple, when a record or a confirmation reads it. *)
    defer_soundness : bool;
        (** postpone all soundness verification to a single pass after
            exploration settles — the decoupling the paper's third
            contribution highlights.  Deferred checks see the final
            predecessor DAGs (strictly more complete than inline
            checking).  The pass also runs when a time or transition
            budget stops the run, so no queued violation goes
            unjudged.  Trade-off: no early stop on the first confirmed
            bug. *)
    obs : Obs.scope;
        (** observability scope.  Counters mirroring every [result]
            tally ([lmc.transitions], [lmc.node_states],
            [lmc.soundness_calls], ...) are always recorded — single
            atomic increments — and a
            periodic ["progress"] heartbeat reports explored states /
            |I+| / preliminary violations during long runs.

            When the scope carries a recorder ({!Obs.recorder}), every
            explored transition is logged as a causal [trace.v1] [step]
            record (acting node, handler label, consumed/produced
            message fingerprints with I+ provenance, state fingerprints
            before/after, depth), together with the run's [lmc_run] /
            [lmc_end] frame ([lmc_run] names the fingerprint kernel,
            ["fp"]: {!Dsm.Fingerprint.name}), each preliminary
            violation ([prelim]), the soundness search's own records
            (per-call verdicts, rejections and why), fully replayable
            violation witnesses and per-phase time attribution.  Each fact is one record.
            The checker runs on one domain, so two runs with the same
            config record bit-identical step streams.  Defaults to
            {!Obs.null} (no recorder, throwaway registry; the hot loops
            pay one branch).

            The system-state path batches its metric updates: the
            [lmc.system_states_created], [lmc.preliminary_violations],
            [lmc.soundness_calls] and [lmc.soundness_rejections]
            counters, the [lmc.system_depth] and [lmc.soundness_us]
            histograms and, without a recorder, the [soundness.*]
            metrics of screen rejections are published when a
            combination phase (the system states of one new node state)
            returns and when the run ends, however it ends.  Mid-run
            readers (timeseries, the live exporter) see them lag by at
            most the phase in progress; at the end they equal the
            [result] tallies. *)
    persist : persist option;
        (** disk-backed stores shared across restarts ({!persist}).
            When set, every combination consults the on-disk set of
            proven-clean combinations before a system state is created;
            clean verdicts are recorded back.  Violating
            combinations are never stored: soundness depends on the
            snapshot, so they must be re-judged on every restart.
            Default [None]. *)
  }

  val default_config : config

  type violation = {
    system : P.state array;  (** the violating system state *)
    violation : Dsm.Invariant.violation;
    schedule : (P.message, P.action) Dsm.Trace.t;
        (** a witness total order of events from the snapshot to the
            violating system state, found by soundness verification *)
    system_depth : int;  (** events in the witness schedule *)
  }

  type result = {
    node_states : int array;  (** per-node store sizes (|LS_n|) *)
    total_node_states : int;
    transitions : int;  (** handler executions *)
    net_messages : int;  (** |I+| at the end *)
    system_states_created : int;
    preliminary_violations : int;
    sound_violation : violation option;
    soundness_calls : int;  (** isStateSound invocations *)
    soundness_rejections : int;
        (** preliminary violations not confirmed (proven unreachable,
            or undecided within the soundness budget) *)
    soundness_budget_exhausted : int;
        (** soundness checks that ran out of search budget — counted
            within [soundness_rejections]; a nonzero value means some
            rejections are "unknown", not "proven invalid" *)
    local_assert_drops : int;  (** node states discarded per §4.2 *)
    store_hits : int;
        (** combinations skipped because a previous run (or an earlier
            restart) already proved them invariant-clean; [0] without
            [config.persist] *)
    completed : bool;  (** fixpoint reached within budget *)
    elapsed : float;
    system_state_time : float;
        (** seconds spent creating system states and checking the
            invariant on them *)
    soundness_time : float;
        (** seconds spent in soundness checks, read around summary
            refreshes and DAG searches only.  A judgement whose screen
            rejects the tuple on fresh summaries reads no clock: it
            adds nothing here and observes 0 in [lmc.soundness_us]
            (one observation per call either way), and its few word
            operations count in [system_state_time] (or, in the final
            pass, in exploration time). *)
    retained_bytes : int;
        (** analytic footprint of the node stores, the interned events
            and I+ (Fig. 12), with heap layout in 8-byte words.  Per
            node state: its [Marshal] size, its 16-byte fingerprint, a
            flat 64 bytes of bookkeeping, its history bitset and its
            pointer array (each a header plus its words; a history
            shared by several states is counted with each).  Per
            interned event: a flat 21 words, its produced-id bitset and
            6 words per produced message.  Per [I+] message: its
            [Marshal] size, its fingerprint and 48 bytes.  The flat
            charges are estimates set when the intern tables were
            string-keyed [Hashtbl]s (a bucket and a boxed key per
            item).  They are kept now that {!Dsm.Id_table} holds one
            word per slot, so that Fig. 12's series stays comparable
            across versions; perfbench's [peak_heap_mb] measures the
            heap itself. *)
    max_system_depth : int;
        (** deepest system state created (events) *)
    max_node_depth : int;
        (** longest per-node event path explored *)
  }

  (** Exploration time excluding system-state creation and soundness
      verification (the LMC-explore series of Fig. 13). *)
  val explore_time : result -> float

  (** [run config ~strategy ~invariant snapshot] runs [findBugs] from
      the live system state [snapshot] (node states indexed by id).
      [I+] starts empty, as in Fig. 9 line 2. *)
  val run :
    config ->
    strategy:'k strategy ->
    invariant:P.state Dsm.Invariant.t ->
    P.state array ->
    result
end
