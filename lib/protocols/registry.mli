(** The bundled protocol instances, each spelled out once.

    A {e subject} is everything the checkers need to know about one
    instance, as a plain value: the protocol, its invariant, and three
    optional parts — the invariant-specific abstraction LMC-OPT prunes
    with (§4.2), an online-hunt setup (§3.3: a live deployment plus the
    focused test driver the checker explores), and a symmetry claim for
    the symmetry audit.  The CLI, the bench and the tests look instances
    up here instead of re-applying the protocol functors. *)

(** An LMC-OPT abstraction over states ['s]; the abstract domain ['k]
    is existential, so subjects with different abstractions share one
    type. *)
type 's opt =
  | Opt : {
      abstract : 's -> 'k option;
          (** [None]: the state never contributes to a violation.  The
              checker buckets states by key with structural equality
              and hashing, so keys must be pure data; a key that is not
              canonical costs an extra bucket, never a missed
              partner. *)
      conflict : 'k -> 'k -> bool;
          (** whether two abstractions can violate the invariant
              together; called once per pair of distinct keys *)
    }
      -> 's opt

(** Online checking: [Live] drives the simulated deployment and [Check]
    is the state machine each checker restart explores — the same
    protocol over the same state type, typically with a more focused
    driver. *)
module type HUNT = sig
  module Live : Dsm.Protocol.S

  module Check :
    Dsm.Protocol.S
      with type state = Live.state
       and type message = Live.message
       and type action = Live.action

  val invariant : Check.state Dsm.Invariant.t
  val opt : Check.state opt option

  (** Probability that a picked live action fires ([None]: always). *)
  val action_prob : (Dsm.Node_id.t -> Check.action -> float) option
end

module type SUBJECT = sig
  val name : string
  val description : string

  module P : Dsm.Protocol.S

  val invariant : P.state Dsm.Invariant.t
  val opt : P.state opt option
  val hunt : (module HUNT) option

  (** A symmetry group the instance claims; the audit must confirm it
      before any checker exploits it. *)
  val claim : Dsm.Symmetry.group option
end

type t = (module SUBJECT)

val name : t -> string

(** The model-checkable instances, in listing order. *)
val subjects : t list

(** Lint-only planted-defect fixtures.  They have no invariant worth
    checking (theirs is constantly true); they exist so each sanitizer
    class can be shown to fire. *)
val fixtures : t list

(** [find name] looks [name] up among {!subjects}. *)
val find : string -> t option

(** SWIM at any fleet size (the registry's own entries have 4 servers);
    the name follows the planted bug: [swim], [swim-nosuspect],
    [swim-ackrace]. *)
val swim : num_servers:int -> Swim.bug -> t
