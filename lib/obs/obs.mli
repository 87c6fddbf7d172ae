(** Unified observability: metrics, the flight recorder, progress.

    A {!scope} bundles a {!Metrics} registry, an optional {!Trace}
    recorder and an optional progress heartbeat; checkers thread one
    scope through their run and record into it.  The design splits the
    cost model in two:

    {ul
    {- {b metrics} (counters, gauges, log-scale histograms) are
       always-on: updates are single atomic operations, safe across
       domains and negligible next to a handler execution or a
       fingerprint;}
    {- {b records} — the one event stream — go to the scope's
       {!recorder} ([trace.v1]).  {!null}, the default scope
       everywhere, carries {!Trace.null}, so every record call reduces
       to one branch.}} *)

module Metrics = Metrics
module Sink = Sink

(** The flight recorder (causal transition records, [trace.v1]). *)
module Trace = Trace

(** Witness replay for {!Trace} recordings. *)
module Replay = Replay

(** Sampling profiler over an explicit frame stack ([profile.v1],
    collapsed-stack and speedscope exports). *)
module Prof = Prof

(** Live /metrics (Prometheus exposition) + /healthz HTTP endpoint. *)
module Exporter = Exporter

(** Bounded counter/gauge timeseries ring ([timeseries.v1]). *)
module Timeseries = Timeseries

(** GC and RSS readings shared by heartbeats, health and timeseries. *)
module Procstat = Procstat

type scope

(** The disabled scope: no recorder, no heartbeat, a private
    throwaway registry.  Physically unique, so [scope == null] is the
    "instrumentation off" test. *)
val null : scope

(** [create ?metrics ?recorder ?progress ()] builds a live scope.
    [recorder] (default {!Trace.null}) receives every record the
    checkers emit and is closed by {!close}.  [progress] is the
    heartbeat period in seconds; without it (and without a
    [timeseries]), {!heartbeat} is free.  An attached [profiler] makes
    {!frame} live and is boundary-sampled from the heartbeat tick
    gate; an attached [timeseries] is sampled from the same gate and
    closed by {!close}. *)
val create :
  ?metrics:Metrics.t ->
  ?recorder:Trace.t ->
  ?progress:float ->
  ?profiler:Prof.t ->
  ?timeseries:Timeseries.t ->
  unit ->
  scope

val is_null : scope -> bool

val metrics : scope -> Metrics.t

(** The scope's flight recorder; {!Trace.null} on {!null}.  Checkers
    emit their records on it directly. *)
val recorder : scope -> Trace.t

(** Get-or-create in the scope's registry. *)
val counter : scope -> string -> Metrics.counter

val gauge : scope -> string -> Metrics.gauge

val histogram : scope -> string -> Metrics.histogram

(** [heartbeat scope fields] is called from hot loops; roughly every
    [progress] seconds it prints one ["progress"] line to stderr with
    [fields ()] plus GC/RSS figures.  Progress never enters the
    recorder: it is time-gated, and the record stream is
    deterministic.  The same tick gate drives the
    attached {!Timeseries} sampler.  The common path is a branch plus
    an integer increment — the clock is consulted every 256th call —
    so it can sit on a per-transition path.  Call from one domain
    only. *)
val heartbeat : scope -> (unit -> (string * Dsm.Json.t) list) -> unit

(** The attached profiler, if any — hot paths that push/pop per-
    transition frames resolve it once and use {!Prof} directly.
    Sampling boundaries ride {!heartbeat}'s tick gate (every 256th
    beat), so per-transition code needs no separate profiler tick. *)
val prof : scope -> Prof.t option

(** [frame scope name f] runs [f] inside a boundary-sampled profiler
    frame (see {!Prof.enter}); just [f ()] without a profiler. *)
val frame : scope -> string -> (unit -> 'a) -> 'a

(** Close the recorder (ring mode dumps here) and dump the attached
    timeseries, if any. *)
val close : scope -> unit

(** Dump the scope's registry as JSONL, one metric per line. *)
val write_metrics_jsonl : scope -> string -> unit
