(** Named scenarios: reproducible workload + fault-plan bundles.

    "Model Checking in Bits and Pieces" motivates checking a system
    per-scenario rather than in one monolithic run; a scenario here is
    a named, seeded record — protocol, node count, fault plan,
    expected verdict — that an executor (the CLI's [lmc scenario])
    drives either as a {!Live_sim} soak with periodic invariant
    evaluation or as an online hunt.  The scenario layer itself is
    protocol-generic: the concrete bundled suite lives with the CLI,
    which knows the protocol registry.

    Results stream as [scenario.v1] JSONL records (own schema tag,
    own [seq] space, interleavable with trace.v1 / store.v2 lines). *)

val schema : string

(** The [scenario.v1] emitter; same discipline as [Store.Events]. *)
module Events : sig
  type t

  val null : t

  val of_sink : Obs.Sink.t -> t

  val enabled : t -> bool

  val emit : t -> ev:string -> (string * Dsm.Json.t) list -> unit
end

type verdict = Clean | Violation

val verdict_to_string : verdict -> string

type kind = Soak | Hunt

val kind_to_string : kind -> string

type report = {
  verdict : verdict;
  detail : string;  (** violated invariant + detail; [""] when clean *)
  steps : int;
      (** executed sim events (soak) / explored states (hunt) *)
  churn : int;  (** executed join/leave events *)
  fleet : int;  (** present nodes at the end of the run *)
}

type t = {
  name : string;
  description : string;
  protocol : string;  (** runner name in the CLI registry *)
  nodes : int;
  seed : int;
  plan : string;  (** fault-plan DSL, for display and replay *)
  kind : kind;
  expected : verdict;
  run : unit -> report;  (** the executor closure *)
}

type outcome = {
  scenario : t;
  report : report;
  pass : bool;  (** verdict matched the expectation *)
  elapsed : float;
}

(** Run one scenario: emits a [scenario_run] record, executes, emits
    a [scenario_end] record carrying verdict/expected/pass. *)
val run_one : Events.t -> t -> outcome

val run_all : Events.t -> t list -> outcome list

(** Generic soak executor: drive {!Live_sim} to [duration] in
    [check_every]-sized slices (default 5 simulated seconds),
    evaluating [invariant] over the live states after each slice;
    the first violation ends the run. *)
module Soak (P : Dsm.Protocol.S) : sig
  module S : module type of Live_sim.Make (P)

  val run :
    ?obs:Obs.scope ->
    ?check_every:float ->
    invariant:P.state Dsm.Invariant.t ->
    duration:float ->
    S.config ->
    report
end
