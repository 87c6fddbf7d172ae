let schema = "scenario.v1"

(* ----- the scenario.v1 record stream -----

   Same discipline as [Store.Events]: its own schema tag and its own
   strictly-increasing [seq] space, so the records interleave with
   trace.v1 / lint.v1 / store.v2 lines in one JSONL file and
   [bin/jsonl_check] validates each stream independently. *)

module Events = struct
  type t = {
    sink : Obs.Sink.t option;
    mutable seq : int;
    clock0 : float;
  }

  let null = { sink = None; seq = 0; clock0 = 0. }

  let of_sink sink =
    { sink = Some sink; seq = 0; clock0 = Unix.gettimeofday () }

  let enabled t = t.sink <> None

  let emit t ~ev fields =
    match t.sink with
    | None -> ()
    | Some sink ->
        let seq = t.seq in
        t.seq <- seq + 1;
        Obs.Sink.emit sink
          {
            Obs.Sink.ts = Unix.gettimeofday () -. t.clock0;
            name = "scenario";
            fields =
              ("schema", Dsm.Json.String schema)
              :: ("seq", Dsm.Json.Int seq)
              :: ("ev", Dsm.Json.String ev)
              :: fields;
          }
end

(* ----- scenarios ----- *)

type verdict = Clean | Violation

let verdict_to_string = function Clean -> "clean" | Violation -> "violation"

type kind = Soak | Hunt

let kind_to_string = function Soak -> "soak" | Hunt -> "hunt"

type report = {
  verdict : verdict;
  detail : string;  (* violated invariant + detail; "" when clean *)
  steps : int;  (* executed sim events (soak) / explored states (hunt) *)
  churn : int;  (* executed join/leave events *)
  fleet : int;  (* present nodes at the end of the run *)
}

type t = {
  name : string;
  description : string;
  protocol : string;
  nodes : int;
  seed : int;
  plan : string;
  kind : kind;
  expected : verdict;
  run : unit -> report;
}

type outcome = {
  scenario : t;
  report : report;
  pass : bool;  (* verdict matched the expectation *)
  elapsed : float;
}

let run_one events sc =
  Events.emit events ~ev:"scenario_run"
    [
      ("name", Dsm.Json.String sc.name);
      ("protocol", Dsm.Json.String sc.protocol);
      ("nodes", Dsm.Json.Int sc.nodes);
      ("seed", Dsm.Json.Int sc.seed);
      ("plan", Dsm.Json.String sc.plan);
      ("kind", Dsm.Json.String (kind_to_string sc.kind));
      ("expected", Dsm.Json.String (verdict_to_string sc.expected));
    ];
  let t0 = Unix.gettimeofday () in
  let report = sc.run () in
  let elapsed = Unix.gettimeofday () -. t0 in
  let pass = report.verdict = sc.expected in
  Events.emit events ~ev:"scenario_end"
    [
      ("name", Dsm.Json.String sc.name);
      ("verdict", Dsm.Json.String (verdict_to_string report.verdict));
      ("expected", Dsm.Json.String (verdict_to_string sc.expected));
      ("pass", Dsm.Json.Bool pass);
      ("steps", Dsm.Json.Int report.steps);
      ("churn", Dsm.Json.Int report.churn);
      ("fleet", Dsm.Json.Int report.fleet);
      ("detail", Dsm.Json.String report.detail);
      ("elapsed", Dsm.Json.Float elapsed);
    ];
  { scenario = sc; report; pass; elapsed }

let run_all events scs = List.map (run_one events) scs

(* ----- the generic soak executor -----

   Drives [Live_sim] to [duration] in [check_every]-sized slices,
   evaluating the invariant over the live states after each slice.
   The state vector keeps its full width under churn (absent slots
   are canonical initial states), so a fixed-width invariant stays
   well-defined throughout. *)

module Soak (P : Dsm.Protocol.S) = struct
  module S = Live_sim.Make (P)

  let run ?obs ?(check_every = 5.) ~invariant ~duration config =
    let sim = S.create ?obs config in
    let rec loop violation =
      match violation with
      | Some _ -> violation
      | None ->
          if S.now sim >= duration then None
          else begin
            S.run_until sim (Float.min duration (S.now sim +. check_every));
            loop (Dsm.Invariant.check invariant (S.states sim))
          end
    in
    let violation = loop (Dsm.Invariant.check invariant (S.states sim)) in
    {
      verdict = (match violation with None -> Clean | Some _ -> Violation);
      detail =
        (match violation with
        | None -> ""
        | Some v ->
            Printf.sprintf "%s: %s" v.Dsm.Invariant.invariant
              v.Dsm.Invariant.detail);
      steps = S.events_executed sim;
      churn = S.churn_events sim;
      fleet = List.length (S.live_nodes sim);
    }
end
