(** State and message fingerprints.

    Section 4.2: "To efficiently check for duplicate states, we use the
    hashes of the serialized states."  We serialise with [Marshal] and
    hash with MD5 ([Digest]), yielding a 16-byte binary string.

    Contract: fingerprinted values must be {e canonical pure data} — no
    closures, and logically-equal values must be structurally identical
    (e.g. use sorted association lists rather than balanced-tree maps,
    whose internal shape depends on insertion order). *)

type t = string

(** [of_value v] is the MD5 digest of the marshalled representation of
    [v].  Raises [Invalid_argument] if [v] contains functional values. *)
val of_value : 'a -> t

(** Digest of a raw string, for composing fingerprints of fingerprints. *)
val of_string : string -> t

(** [combine fps] fingerprints a list of fingerprints. *)
val combine : t list -> t

val equal : t -> t -> bool

val compare : t -> t -> int

(** Number of bytes in a fingerprint (16). *)
val size : int

(** [serialized_size v] is the number of bytes [Marshal] uses for [v];
    the unit of our retained-memory accounting (Fig. 12). *)
val serialized_size : 'a -> int

(** Short hex form (first 8 hex digits), for traces and logs. *)
val pp : Format.formatter -> t -> unit

(** Full hex form. *)
val to_hex : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

(** Compositional keys for product states (a node array plus a
    message multiset), updated incrementally as one node and a few
    messages change.

    A key is two lanes of 63-bit integers, summed modulo [2^63]:
    {ul
    {- each node's digest ({!of_value}) is multiplied lane-wise by an
       odd constant particular to its slot ({!slot}), so equal states in
       different slots contribute differently;}
    {- each in-flight message adds its digest times its multiplicity,
       so the multiset part is commutative and a delivery or send is
       one subtraction or addition.}}
    The sum is {e linear}: replacing node [i]'s digest [d] by [d'] adds
    [slot i (sub d' d)].  {!to_fp} packs the lanes into a 16-byte
    {!t}, so visited tables and trace hex keep their type.  Two lanes,
    never one: a key collision silently merges two distinct states. *)
module Mix : sig
  type fp := t
  type t

  val zero : t

  (** [of_value v] is the lanes of [Fingerprint.of_value v] (63 bits of
      each 8-byte half). *)
  val of_value : 'a -> t

  val add : t -> t -> t
  val sub : t -> t -> t

  (** [slot i x] is [x]'s positional image in slot [i]: each lane
      multiplied by a distinct odd constant. *)
  val slot : int -> t -> t

  val equal : t -> t -> bool

  (** [slots xs] is [sum_i slot i xs.(i)]. *)
  val slots : t array -> t

  (** [bindings bs] is [sum (e, c) in bs. c * of_value e], from
      scratch; the order of [bs] is immaterial. *)
  val bindings : ('a * int) list -> t

  val to_fp : t -> fp
end

(** [product nodes bindings] is the key of the product state with node
    states [nodes] and message multiset [bindings], computed from
    scratch: [Mix.to_fp (Mix.add (Mix.slots (Array.map Mix.of_value
    nodes)) (Mix.bindings bindings))].  The B-DFS checker maintains the
    same key incrementally; the lint explorations key their visited
    sets by it.  Raises [Invalid_argument] like {!of_value}. *)
val product : 'a array -> ('b * int) list -> t
