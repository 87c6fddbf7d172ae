(** Metrics registry: counters, gauges and log-scale histograms.

    Every cell is an [Atomic.t], so instrumented code can record from
    several domains concurrently and the registry stays consistent
    without per-update locking; only registration (get-or-create by
    name) takes a mutex.  Updates are a handful of nanoseconds, cheap
    enough to leave always-on in checker hot loops. *)

type t

val create : unit -> t

(** {2 Counters} — monotone integers. *)

type counter

(** Get or create; raises [Invalid_argument] if [name] is already
    registered as a different metric type. *)
val counter : t -> string -> counter

val incr : counter -> unit

val add : counter -> int -> unit

val value : counter -> int

(** {2 Gauges} — last-written floats. *)

type gauge

val gauge : t -> string -> gauge

val set : gauge -> float -> unit

val gauge_value : gauge -> float

(** {2 Histograms} — log-scale (base-2) integer histograms. *)

type histogram

val histogram : t -> string -> histogram

val observe : histogram -> int -> unit

(** [observe_n h v n] records [n] observations of [v] at once, as [n]
    calls of [observe h v] would; nothing when [n <= 0]. *)
val observe_n : histogram -> int -> int -> unit

(** Bucket [0] holds values [<= 0]; bucket [i >= 1] holds
    [2^(i-1) .. 2^i - 1]; the last bucket absorbs everything above its
    lower bound (so [max_int] lands in bucket [num_buckets - 1]). *)
val bucket_index : int -> int

(** Inclusive (lo, hi) range of a bucket, for reporting. *)
val bucket_bounds : int -> int * int

val num_buckets : int

type histogram_snapshot = {
  count : int;
  sum : int;  (** negative observations contribute 0 to the sum *)
  max : int;
  buckets : (int * int * int) list;
      (** (lo, hi, count) of each non-empty bucket, ascending *)
}

val histogram_snapshot : histogram -> histogram_snapshot

(** [quantile snapshot q] estimates the [q]-quantile (clamped to
    [0..1]) from the log-scale bucket counts: the upper bound of the
    bucket holding the rank-[ceil(q*count)] observation, clamped by
    the observed maximum.  [None] on an empty histogram. *)
val quantile : histogram_snapshot -> float -> int option

(** {2 Export} *)

type view =
  | Counter_view of string * int
  | Gauge_view of string * float
  | Histogram_view of string * histogram_snapshot

(** One consistent, name-sorted snapshot of every registered metric,
    taken under the registration mutex — safe from a scraping thread
    while checker domains keep recording. *)
val snapshot_all : t -> view list

(** One JSON object per registered metric, sorted by name — ready to
    be written as JSONL. *)
val to_json_lines : t -> Dsm.Json.t list

(** Lookup without registration: [None] when the name is absent {e or}
    registered as a different metric type.  Lets tests and tooling
    read a finished run's registry without re-registering. *)
val find_counter : t -> string -> counter option

val find_gauge : t -> string -> gauge option

val find_histogram : t -> string -> histogram option
