(** User-specified invariants over system states.

    A system state is the vector of node-local states, indexed by node
    identifier — the paper's [L] — with the network deliberately
    absent: "the invariants are typically specified only on the system
    states, i.e., the invariants do not involve the network states"
    (section 1). *)

type violation = { invariant : string; detail : string }

type 'state t

val name : 'state t -> string

(** [check inv system] is [Some violation] when [inv] does not hold on
    [system]. *)
val check : 'state t -> 'state array -> violation option

(** [make ~name f] builds an invariant from a checker returning
    [Some detail] on violation. *)
val make : name:string -> ('state array -> string option) -> 'state t

(** Conjunction: first violation wins. *)
val conj : 'state t list -> 'state t

(** [for_all_nodes ~name f] holds when [f node state] is [None] for
    every node — the shape of node-local invariants such as RandTree's
    children/siblings disjointness (section 4.1). *)
val for_all_nodes :
  name:string -> (Node_id.t -> 'state -> string option) -> 'state t

(** [for_all_pairs ~name f] checks [f] on every unordered pair of
    distinct nodes — the shape of agreement invariants such as Paxos
    safety. *)
val for_all_pairs :
  name:string ->
  (Node_id.t -> 'state -> Node_id.t -> 'state -> string option) ->
  'state t

val pp_violation : Format.formatter -> violation -> unit

(** {2 Shape introspection}

    The paper's concluding remarks propose "methods to automatically
    prune the system states according to a given invariant" as future
    work.  The combinators above record enough structure to do it: a
    {!for_all_nodes} invariant can only be violated by a combination
    whose new component violates it locally, and a {!for_all_pairs}
    invariant only by one containing a violating pair.  The local
    checker's [Automatic] strategy uses these witnesses to skip every
    other combination. *)

(** For invariants built with {!for_all_nodes}: does this single node
    state violate it? *)
val nodewise_witness : 'state t -> (Node_id.t -> 'state -> bool) option

(** For invariants built with {!for_all_pairs}: does this pair of
    node states violate it as {!check} judges it, with [f] applied to
    the lower node id first?  A pair that does makes {!check} return
    [Some] on every system state holding both, whatever the other
    nodes hold. *)
val pairwise_witness :
  'state t -> (Node_id.t -> 'state -> Node_id.t -> 'state -> bool) option
