(** Role-permutation symmetry groups over node identifiers.

    "Symmetry Reduction for the Local Mu-Calculus" observes that for
    protocols whose nodes are role-identical, states that differ only
    by a permutation of node identifiers satisfy the same properties.
    This module provides the group machinery: permutations over the
    dense identifier space [0 .. degree-1], the three group families
    the inference pass proposes (identity, rotations, full symmetric
    group), and the permutation action on global states.

    Soundness is {e not} decided here.  A group is only safe to
    exploit after the commutation audit in [Lint.Symmetry] passes:
    global-state reduction in B-DFS needs every handler to commute
    with the permutation action and the invariant to be equivariant
    under it.  B-DFS takes the group as config and trusts the caller
    to have audited it. *)

(** A permutation of [0 .. n-1]; [p.(i)] is the image of [i]. *)
type perm = int array

(** The group families the inference pass can propose. *)
type kind =
  | Id    (** identity only — no reduction *)
  | Rot   (** cyclic rotations [i -> (i + k) mod n] *)
  | Full  (** the full symmetric group [S_n] *)

type group = {
  kind : kind;
  degree : int;
  elements : perm list;    (** every element, identity included *)
  generators : perm list;  (** a generating set (empty for [Id]) *)
}

val identity : int -> perm

val is_identity : perm -> bool

val apply : perm -> Node_id.t -> Node_id.t

val equal_perm : perm -> perm -> bool

val pp_perm : Format.formatter -> perm -> unit

(** [identity_group n] — the trivial group; exploiting it is always
    sound and always a no-op. *)
val identity_group : int -> group

(** [rotations n] — the cyclic group [C_n], generated by
    [i -> (i + 1) mod n].  [n] elements. *)
val rotations : int -> group

(** [full n] — the symmetric group [S_n], [n!] elements, enumerated
    eagerly.  Raises [Invalid_argument] for [n > 8] (40320 elements is
    the ceiling we are willing to hold in memory). *)
val full : int -> group

(** [is_trivial g] is true when the group has no non-identity element;
    reduction under a trivial group is the identity transformation. *)
val is_trivial : group -> bool

(** Short names used by the [--symmetry] CLI flag and stats JSON:
    ["id"], ["rot"], ["full"]. *)
val name : group -> string

(** [of_name s ~degree] parses a CLI group name (["off"]/["id"],
    ["rot"], ["full"]); [None] on anything else. *)
val of_name : string -> degree:int -> group option

(** [permute_slots p arr] moves slot [i] to slot [p.(i)]:
    [(permute_slots p arr).(p.(i)) = arr.(i)]. *)
val permute_slots : perm -> 'a array -> 'a array

(** How a protocol's data types transport under a node-identifier
    permutation.  [map_state]/[map_message] must rewrite every embedded
    [Node_id.t] through the given renaming (and nothing else).
    Protocols whose state and messages embed no identifiers use
    {!id_spec}. *)
type ('s, 'm) spec = {
  group : group;
  map_state : (Node_id.t -> Node_id.t) -> 's -> 's;
  map_message : (Node_id.t -> Node_id.t) -> 'm -> 'm;
}

(** Identity mappers with the given group — correct whenever states and
    messages embed no node identifiers. *)
val with_id_maps : group -> ('s, 'm) spec

(** Trivial spec: identity group, identity mappers. *)
val id_spec : degree:int -> ('s, 'm) spec

(** [permute_global spec p nodes envs] is the permuted global state:
    node [p.(i)] takes node [i]'s (identifier-rewritten) state, and
    each envelope has [src]/[dst] renamed and its payload rewritten.
    Envelope list order is preserved; callers canonicalize multiset
    order themselves. *)
val permute_global :
  ('s, 'm) spec ->
  perm ->
  's array ->
  'm Envelope.t list ->
  's array * 'm Envelope.t list
