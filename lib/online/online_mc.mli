(** Online model checking (§3.3, the CrystalBall execution mode).

    "An online model checker is restarted periodically from the live
    state of a running system.  As a consequence, the model checker has
    a chance to explore more relevant states at deeper levels, instead
    of getting stuck in the exponential explosion problem at some very
    shallow depths."

    This driver interleaves a {!Sim.Live_sim} deployment with periodic
    LMC runs seeded from snapshots.  Each LMC run gets a bounded budget
    (the paper restarts every minute with runs of a few seconds); the
    first soundness-verified violation stops the hunt and is reported
    with its witness schedule.

    The functor takes two protocol modules over the same state type:
    [Live] drives the deployment (it wants background traffic), and
    [Check] is the state machine the checker explores — typically the
    same protocol with a more focused test driver, which §4.2 singles
    out as decisive for model-checking efficiency. *)

module Make
    (Live : Dsm.Protocol.S)
    (Check : Dsm.Protocol.S
               with type state = Live.state
                and type message = Live.message
                and type action = Live.action) : sig
  module Checker : module type of Lmc.Checker.Make (Check)

  (** Hardening knobs for the supervised loop.  The live loop must
      outlive its checker: every pathology — a checker exception, a
      restart that blows its budget, a corrupt snapshot — is recorded
      as an [online.degraded] event and the hunt continues, possibly
      with a narrower checker. *)
  type supervisor = {
    restart_budget_ms : int option;
        (** wall-clock budget per checker restart.  Caps each restart's
            [time_limit]; a restart that consumes it escalates the
            degradation tier: tier 1 halves [max_depth], tier 2 drops a
            [General] strategy to [Automatic], tier 3 sets
            [defer_soundness], which moves soundness out of the
            budgeted window: the preliminary violations a tripped
            restart queued are still judged after its budget stops
            exploration, so a tier-3 restart can report a bug.  [None]
            (default): no budget, no tiers. *)
    memory_budget_bytes : int option;
        (** retained-bytes budget per restart, audited after each run
            from the checker's analytic footprint; exceeding it
            escalates the tier like a wall-clock trip *)
    max_retries : int;
        (** retries per restart when [Checker.run] raises; after the
            last one the restart is abandoned (degradation event
            ["checker_failed_permanently"]) and the loop moves on *)
    backoff_base_ms : int;
        (** base of the exponential retry backoff; attempt [k] sleeps
            [base * 2^k] ms, jittered uniformly in [0.5, 1.5) of that
            from a deterministic stream split off the simulation seed *)
    backoff_cap_ms : int;  (** upper bound on the nominal backoff *)
    checksum_snapshots : bool;
        (** round-trip every snapshot through the checksummed wire
            encoding ({!Sim.Snapshot.to_string} / [of_string]); a
            capture failing its digest is skipped with a typed
            ["corrupt_snapshot"] degradation event instead of being
            handed to [Marshal] *)
    snapshot_tamper : (string -> string) option;
        (** test hook: rewrite the wire bytes between encode and
            decode (fault injection for the checksum path) *)
  }

  (** No budgets, 2 retries, 10 ms base / 1 s cap backoff, no
      checksumming. *)
  val default_supervisor : supervisor

  (** Disk-backed persistence for the hunt ({!Store.Checkpoint}): the
      per-node stores, [I+] and the set of invariant-clean combinations
      live in mmap'd files under [dir], checkpointed after every
      snapshot check, so a killed hunt resumes instead of restarting. *)
  type store_config = {
    dir : string;  (** checkpoint directory, created if missing *)
    resume : bool;
        (** warm-start: load the checkpoint, fast-forward the
            deterministic simulation to the saved live time and skip
            every combination an earlier phase already proved clean —
            a resumed phase creates strictly fewer system states than
            a cold rerun.  A missing or corrupt checkpoint (truncated
            file, digest mismatch, different seed or protocol) emits a
            ["corrupt_checkpoint"] degradation and falls back to a
            cold start; it never crashes the hunt. *)
  }

  type config = {
    sim : Sim.Live_sim.Make(Live).config;
    check_interval : float;
        (** simulated seconds of live execution between snapshots *)
    max_live_time : float;  (** give up after this much simulated time *)
    checker : Checker.config;
        (** per-run budget; set [time_limit]/[max_transitions] so one
            run stays within the restart period *)
    action_bounds : int list;
        (** iterative widening (§4.2 "Local events"): each snapshot is
            checked once per bound, restarting from scratch with more
            allowed local events per node.  [[]] means a single
            unbounded run. *)
    steer : bool;
        (** execution steering (the CrystalBall idea this checker was
            built to serve): instead of stopping at the first confirmed
            violation, veto the witness's first internal action at its
            node in the live deployment — the predicted run loses its
            trigger — and keep hunting until [max_live_time].  The
            first prediction is still returned as the report. *)
    steer_scope : [ `Exact_action | `Node ];
        (** veto width: [`Exact_action] denies only the predicted
            action value — precise, but a stale node can often reach
            the same violation through a sibling action before the next
            restart; [`Node] quarantines the offending node's driver
            entirely. *)
    supervisor : supervisor;
        (** hardened-loop knobs; {!default_supervisor} preserves the
            unsupervised behaviour except that checker exceptions are
            retried instead of propagated *)
    store : store_config option;
        (** persistent, resumable checking; [None] keeps everything in
            memory.  When the flight recorder streams to a file, the
            checkpoint emits its own [store.v2] records
            (open/flush/compact/resume) into the same JSONL sink. *)
  }

  type report = {
    live_time : float;  (** simulated time of the revealing snapshot *)
    checks_run : int;  (** LMC runs performed, including the hit *)
    snapshot : Live.state array;  (** the live state the run started from *)
    violation : Checker.violation;
    result : Checker.result;  (** statistics of the revealing run *)
  }

  type outcome = {
    report : report option;  (** [None]: no bug within [max_live_time] *)
    total_checks : int;
    total_check_time : float;  (** wall-clock spent inside LMC runs *)
    vetoed : (Dsm.Node_id.t * Live.action) list;
        (** steering mode: the (node, action) pairs denied to the live
            system, in installation order *)
    live_violation_time : float option;
        (** first simulated time at which the {e live} system state
            itself violated the invariant — [None] is the steering
            success criterion *)
    degradations : string list;
        (** reasons of every [online.degraded] event, in order
            (["checker_failure"], ["checker_failed_permanently"],
            ["restart_budget_exceeded"], ["memory_budget_exceeded"],
            ["corrupt_snapshot"]) *)
    final_tier : int;
        (** degradation tier at the end of the hunt, 0 (never
            degraded) to 3 *)
    resumed_at : float option;
        (** simulated time the hunt fast-forwarded to after loading a
            checkpoint; [None] for a cold start *)
    states_explored : int;
        (** system states created, {e cumulative across resumed
            phases} (a warm phase inherits the checkpoint's count) *)
    store_hits : int;
        (** combinations skipped because the persistent store already
            proved them clean, cumulative across phases *)
    membership : bool array;
        (** the live fleet's membership map at the end of the hunt —
            all-present unless the plan has join/leave clauses.  A
            resumed hunt restores this from the deterministic
            fast-forward; the checkpoint's saved map is audited
            against the plan at load time (mismatch degrades with
            ["membership_mismatch"] and cold-starts). *)
  }

  (** [run ?obs config ~strategy ~invariant] drives the hunt.  When
      [obs] is given it reaches every layer: the simulation and each
      LMC restart record into it (overriding [config.checker.obs]),
      the driver itself counts [online.checks] / [online.vetoes] and
      emits one [online.check] event per restart (live time, widening
      bound, run statistics, verdict) plus an [online.veto] event per
      steering intervention. *)
  val run :
    ?obs:Obs.scope ->
    config ->
    strategy:'k Checker.strategy ->
    invariant:Live.state Dsm.Invariant.t ->
    outcome

  val pp_report : Format.formatter -> report -> unit
end
