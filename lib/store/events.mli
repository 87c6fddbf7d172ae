(** The [store.v2] record stream.

    Checkpoint life-cycle events — open, resume, flush, compact — ride
    the same JSONL sinks as the flight recorder's [trace.v1] and the
    sanitizer's [lint.v1] records, carrying their own schema tag and
    their own strictly-increasing [seq] space so [bin/jsonl_check] can
    validate each stream independently however the lines interleave. *)

val schema : string

type t

val null : t

val of_sink : Obs.Sink.t -> t

(** Emit into the recorder's underlying sink; {!null} when the trace
    is disabled or buffers in ring mode (see {!Obs.Trace.sink}). *)
val of_trace : Obs.Trace.t -> t

val enabled : t -> bool

val emit : t -> ev:string -> (string * Dsm.Json.t) list -> unit
