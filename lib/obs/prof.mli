(** Sampling wall-clock profiler over an explicit frame stack.

    Checkers push named frames around their phases and transitions;
    {!tick} rides the same per-transition path as the progress
    heartbeat.  Every [sample_every]-th tick the clock is read once
    and the elapsed interval is attributed to the collapsed stack
    current at that moment, yielding a statistical flamegraph.

    Two frame disciplines:
    {ul
    {- {!push}/{!pop} — hot frames (per applied transition): one
       store and a branch, no clock;}
    {- {!enter}/{!leave} — slow frames (phases such as combination
       checking or soundness verification): force a sample at both
       edges so neighbouring phases never bleed into each other.}}

    Single-domain: call only from the exploration loop. *)

type t

(** [sample_every] is rounded up to a power of two (default 256). *)
val create : ?sample_every:int -> unit -> t

val push : t -> string -> unit

val pop : t -> unit

(** Boundary-sampled frame entry/exit for coarse phases. *)
val enter : t -> string -> unit

val leave : t -> unit

(** The per-transition sampling gate. *)
val tick : t -> unit

(** Force a sample now, attributing the interval since the previous
    sample to the current stack. *)
val boundary : t -> unit

type entry = {
  stack : string list;  (** outermost frame first *)
  total_us : int;
  samples : int;
}

(** Hottest stack first.  Forces a final boundary sample. *)
val snapshot : t -> entry list

(** Sum of attributed microseconds across all stacks. *)
val total_us : t -> int

(** Collapsed-stack flamegraph text ("a;b;c us" per line) — the input
    of flamegraph.pl / inferno / speedscope import. *)
val write_collapsed : t -> string -> unit

(** speedscope "sampled" profile JSON (weights in microseconds). *)
val write_speedscope : t -> name:string -> string -> unit

(** ["profile.v1"], the schema tag on every JSONL record below. *)
val schema : string

(** The profile.v1 JSONL stream: a [prof_run] header then one [stack]
    record per distinct collapsed stack, own [seq] space. *)
val jsonl_records : t -> Dsm.Json.t list

(** Append {!jsonl_records} to [path] (creating it if needed) — lets a
    recording file carry trace.v1 and profile.v1 together. *)
val append_jsonl : t -> string -> unit
