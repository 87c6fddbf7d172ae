module Metrics = Metrics
module Sink = Sink
module Trace = Trace
module Replay = Replay
module Prof = Prof
module Exporter = Exporter
module Timeseries = Timeseries
module Procstat = Procstat

type scope = {
  metrics : Metrics.t;
  recorder : Trace.t;
  clock0 : float;
  progress_interval : float option;
  mutable next_beat : float;
  mutable beat_tick : int;
  profiler : Prof.t option;
  timeseries : Timeseries.t option;
  (* Precomputed: any of progress / profiler / timeseries attached.
     Keeps the heartbeat's common path to a load, a branch, an
     increment and a mask even when all three are on. *)
  ticking : bool;
}

let now () = Unix.gettimeofday ()

let create ?metrics ?(recorder = Trace.null) ?progress ?profiler ?timeseries
    () =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  {
    metrics;
    recorder;
    clock0 = now ();
    progress_interval = progress;
    next_beat =
      (match progress with Some iv -> now () +. iv | None -> infinity);
    beat_tick = 0;
    profiler;
    timeseries;
    ticking =
      progress <> None || profiler <> None || timeseries <> None;
  }

let null = create ()

let is_null scope = scope == null

let metrics scope = scope.metrics

let recorder scope = scope.recorder

let counter scope name = Metrics.counter scope.metrics name

let gauge scope name = Metrics.gauge scope.metrics name

let histogram scope name = Metrics.histogram scope.metrics name

let pp_field ppf (k, v) =
  Format.fprintf ppf " %s=%s" k (Dsm.Json.to_string v)

(* Hot-loop safe: a branch and an integer increment on the common path;
   the clock is consulted only every 256 calls.  Meant to be called
   from a single domain (the exploration loop).  The same tick gate
   drives profiler sampling and the attached timeseries sampler, and
   progress lines carry GC/RSS so memory pressure shows without any
   extra flag.  Progress goes to stderr, never to the recorder: it is
   time-gated, and the record stream must not depend on the clock. *)
let heartbeat scope fields =
  if scope.ticking then begin
    scope.beat_tick <- scope.beat_tick + 1;
    if scope.beat_tick land 0xff = 0 then begin
      (match scope.profiler with
      | Some p -> Prof.boundary p
      | None -> ());
      match (scope.progress_interval, scope.timeseries) with
      | None, None -> ()
      | progress, timeseries -> (
          let t = now () in
          (match timeseries with
          | Some ts -> Timeseries.maybe_sample ts ~now:t
          | None -> ());
          match progress with
          | Some iv when t >= scope.next_beat ->
              scope.next_beat <- t +. iv;
              Format.eprintf "[obs %.3f] progress%a@." (t -. scope.clock0)
                (Format.pp_print_list ~pp_sep:(fun _ () -> ()) pp_field)
                (fields () @ Procstat.mem_fields ())
          | _ -> ())
    end
  end

(* {2 Profiling} — all no-ops (one branch) without an attached
   profiler, so they can sit on per-transition paths. *)

let prof scope = scope.profiler

(* Boundary-sampled frame for coarse phases (combination checking,
   soundness verification, a whole run): entry and exit force a
   sample, so neighbouring phases never bleed into each other. *)
let frame scope name f =
  match scope.profiler with
  | None -> f ()
  | Some p -> (
      Prof.enter p name;
      match f () with
      | r ->
          Prof.leave p;
          r
      | exception e ->
          Prof.leave p;
          raise e)

let close scope =
  (match scope.timeseries with
  | Some ts -> Timeseries.close ts
  | None -> ());
  Trace.close scope.recorder

let write_metrics_jsonl scope path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun json ->
          output_string oc (Dsm.Json.to_string json);
          output_char oc '\n')
        (Metrics.to_json_lines scope.metrics))
