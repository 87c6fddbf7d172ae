(** Discrete-event simulation of a live deployment.

    Substitutes for the real three-node UDP deployment of sections
    5.5/5.6: nodes run the protocol state machine, messages cross a
    lossy link with random latency, and a per-node timer periodically
    fires one enabled internal action (the application/test driver).
    Everything is driven by a seeded {!Rng}, so runs replay exactly.

    A {!Fault.Plan.t} in the config injects environment faults as
    ordinary events on the same queue: crash/recovery of nodes (with
    configurable persistence), partitions, duplication, bounded
    reordering, and corruption-as-drop.  Fault randomness draws from a
    dedicated stream split off the same seed, so an empty plan leaves
    the base run bit-identical and a non-empty plan is itself exactly
    replayable (same seed + same plan = same trace).

    The fleet is dynamic: [join]/[leave] clauses admit and remove
    nodes at plan times.  The state array keeps a fixed width — an
    absent slot holds the node's canonical initial state, ticks no
    timers, and drops (and counts as fault drops) any envelope
    addressed to it.  A [load] clause drives an open-loop Poisson
    arrival process (seeded, from the fault stream): each arrival
    fires one enabled action at a uniformly drawn present-and-up
    node. *)

module Make (P : Dsm.Protocol.S) : sig
  type config = {
    seed : int;
    link : Net.Lossy_link.t;
    timer_min : float;  (** earliest next tick after an action fires *)
    timer_max : float;  (** latest next tick *)
    action_prob : (Dsm.Node_id.t -> P.action -> float) option;
        (** probability that the action picked at a tick actually
            fires; [None] means always.  Models drivers like §5.6's
            fault detector, which the application "triggers with the
            probability of 0.1". *)
    faults : Fault.Plan.t;
        (** deterministic fault schedule; {!Fault.Plan.empty} (the
            default) injects nothing and costs nothing *)
  }

  (** Sensible defaults: seed 42, reliable link, ticks in [0.5, 1.5],
      actions always fire, no faults. *)
  val default_config : config

  type t

  (** [create ?obs config] builds a simulation.  When [obs] is given,
      [sim.events] / [sim.messages_sent] / [sim.messages_dropped]
      counters mirror the accessors below, and a periodic ["progress"]
      heartbeat reports them together with the simulated clock.  When
      its recorder is enabled, every executed event additionally enters
      the flight recorder as a lightweight [ev = "live"] record
      (simulated clock, acting node, rendered event). *)
  val create : ?obs:Obs.scope -> config -> t

  (** Current simulation time in seconds. *)
  val now : t -> float

  (** Copy of the node states at the current time. *)
  val states : t -> P.state array

  (** Snapshots carry the membership map; see {!Snapshot}. *)
  val snapshot : t -> P.state Snapshot.t

  (** Indices of the nodes currently in the fleet, ascending.  Without
      [join]/[leave] clauses this is every node. *)
  val live_nodes : t -> int list

  (** Copy of the membership map (width [P.num_nodes]). *)
  val membership : t -> bool array

  (** [run_until t time] processes events up to [time] (inclusive of
      events scheduled exactly at [time]). *)
  val run_until : t -> float -> unit

  (** [step t] processes one event; false when the queue is empty. *)
  val step : t -> bool

  val events_executed : t -> int

  val messages_sent : t -> int

  (** Dropped by the lossy link's own Bernoulli loss. *)
  val messages_dropped : t -> int

  (** Executed crash/recover events from the fault plan. *)
  val fault_events : t -> int

  (** Messages destroyed by the plan: corruption, delivery to a
      crashed node, or an active partition. *)
  val fault_drops : t -> int

  val messages_duplicated : t -> int

  (** Executed join/leave events from the plan. *)
  val churn_events : t -> int

  (** Executed load-process arrivals (inside an active window, with at
      least one present-and-up node to land on). *)
  val load_arrivals : t -> int
end
