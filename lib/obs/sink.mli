(** JSONL and in-memory line writers.

    The flight recorder ({!Trace}), the lint report and the scenario
    log write through a sink; emission is serialised behind a per-sink
    mutex so events arriving from several domains interleave whole. *)

type event = {
  ts : float;  (** seconds since the writer's owner started *)
  name : string;
  fields : (string * Dsm.Json.t) list;
}

val event_to_json : event -> Dsm.Json.t

type t

val emit : t -> event -> unit

(** The sink's raw byte writer, if it has one: the buffer must hold
    whole newline-terminated lines, each a JSON object serialised
    exactly as {!emit} would have, and is written verbatim.  Lets hot
    paths skip the intermediate {!Dsm.Json.t} and batch many records
    into one write. *)
val raw : t -> (Buffer.t -> unit) option

val flush : t -> unit

(** Flush and release resources; for {!jsonl_file}, closes the file. *)
val close : t -> unit

(** One compact JSON object per line in the file at [path]. *)
val jsonl_file : string -> t

(** In-memory sink for tests; the closure returns the events captured
    so far in emission order. *)
val memory : unit -> t * (unit -> event list)
