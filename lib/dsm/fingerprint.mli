(** State and message fingerprints.

    Section 4.2: "To efficiently check for duplicate states, we use the
    hashes of the serialized states."  A fingerprint is a 16-byte
    binary string: a 128-bit hash of what [Marshal.to_string v []]
    would write, computed without building that string.

    {b Kernel.}  A C stub walks [v] in [Marshal]'s own preorder (fields
    left to right, depth first) and feeds a two-lane 64-bit
    multiply-xorshift mixer with immediates, block tags and sizes,
    string bytes and float bits.  A size-0 block hashes as its tag
    alone.  Any other block reached a second time during the walk
    hashes as a back-reference to its preorder number, exactly where
    [Marshal] would write a shared reference; so cyclic values are fine.

    {b Sharing sensitivity.}  Two values get equal fingerprints exactly
    when their [Marshal.to_string v []] bytes are equal, up to hash
    collisions.  Physical sharing is therefore part of the fingerprint:
    a list aliased into two fields and two separately allocated equal
    lists fingerprint differently.

    {b Fallback.}  Custom blocks (e.g. [Int64]), abstract, lazy and
    object blocks, forward blocks that [Marshal] does not
    short-circuit, values nested more than 4095 levels deep through
    non-last fields, and values of more than 32768 blocks are hashed
    from their marshalled bytes with the same mixer.  That is
    deterministic in the same bytes, so the equivalence above still
    holds; closures raise [Invalid_argument] as [Marshal] does.

    Fingerprints are stable across runs on one host byte order; they
    are not an interchange format.  {!name} names the kernel, so
    recordings and persisted stores made under another one are
    recognised.

    Contract: fingerprinted values must be {e canonical pure data} — no
    closures, and logically-equal values must be structurally identical
    (e.g. use sorted association lists rather than balanced-tree maps,
    whose internal shape depends on insertion order) and share alike. *)

type t = string

(** The kernel's name (["pre128"]), recorded in [lmc_run] headers. *)
val name : string

(** [of_value v] is [v]'s fingerprint (see above).  Raises
    [Invalid_argument] if [v] contains functional values.  Safe to call
    from several domains at once. *)
val of_value : 'a -> t

(** Fingerprint of a raw string, for composing fingerprints of
    fingerprints. *)
val of_string : string -> t

(** [combine fps] fingerprints a list of fingerprints: each element's
    length and bytes feed the same mixer; order matters. *)
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

  (** [of_fp d] is the lanes of the fingerprint [d]:
      [of_value v = of_fp (Fingerprint.of_value v)]. *)
  val of_fp : fp -> t

  (** The two lanes, for tables keyed by native ints
      ({!Flat_table}); [of_lanes (lane_a x) (lane_b x)] equals [x]. *)
  val lane_a : t -> int

  val lane_b : t -> int
  val of_lanes : int -> int -> t
end

(** [product nodes bindings] is the key of the product state with node
    states [nodes] and message multiset [bindings], computed from
    scratch: [Mix.to_fp (Mix.add (Mix.slots (Array.map Mix.of_value
    nodes)) (Mix.bindings bindings))].  The B-DFS checker maintains the
    same key incrementally; the lint explorations key their visited
    sets by it.  Raises [Invalid_argument] like {!of_value}. *)
val product : 'a array -> ('b * int) list -> t
