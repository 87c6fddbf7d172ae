(* Tests for the flight recorder (Obs.Trace) and deterministic witness
   replay (Obs.Replay): step-record encode/decode round-trips, ring
   buffering, and the end-to-end contract that two buggy-Paxos hunts
   with the same config record bit-identical fingerprint streams and
   that their recorded witnesses re-execute without divergence. *)

let check = Alcotest.check
let fail = Alcotest.fail

(* ---------- step record round-trip ---------- *)

let fp_gen =
  QCheck.Gen.(
    map (fun n -> Printf.sprintf "%032x" (abs n land 0xffffff)) int)

let step_gen : Obs.Trace.step QCheck.Gen.t =
  QCheck.Gen.(
    let* node = int_range 0 9 in
    let* kind = oneofl [ Obs.Trace.Deliver; Obs.Trace.Action ] in
    let* src = int_range (-1) 9 in
    let* label = string_size ~gen:printable (int_range 0 20) in
    let* fp_before = fp_gen in
    let* fp_after = fp_gen in
    let* consumed =
      option (pair fp_gen (int_range (-1) 1000))
    in
    let* produced = list_size (int_range 0 4) fp_gen in
    let* depth = int_range 0 100 in
    return
      {
        Obs.Trace.node;
        kind;
        src;
        label;
        fp_before;
        fp_after;
        consumed;
        produced;
        depth;
        dom = 0;
      })

let step_eq (a : Obs.Trace.step) (b : Obs.Trace.step) =
  a.node = b.node && a.kind = b.kind && a.src = b.src && a.label = b.label
  && a.fp_before = b.fp_before && a.fp_after = b.fp_after
  && a.consumed = b.consumed && a.produced = b.produced && a.depth = b.depth
  && a.dom = b.dom

let prop_step_roundtrip =
  QCheck.Test.make ~count:200 ~name:"step record encode/decode round-trip"
    (QCheck.make step_gen)
    (fun step ->
      (* through the typed encoder and through the JSON printer/parser,
         as the record travels in a real trace file *)
      let json = Obs.Trace.step_to_json step in
      match Dsm.Json.of_string (Dsm.Json.to_string json) with
      | Error msg -> QCheck.Test.fail_reportf "reparse failed: %s" msg
      | Ok json' -> (
          match Obs.Trace.step_of_json json' with
          | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg
          | Ok step' -> step_eq step step'))

let prop_hex_roundtrip =
  QCheck.Test.make ~count:200 ~name:"hex transport encoding round-trip"
    QCheck.(string_of_size (Gen.int_range 0 64))
    (fun s ->
      match Obs.Trace.string_of_hex (Obs.Trace.hex_of_string s) with
      | Ok s' -> s = s'
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg)

(* ---------- recorder mechanics ---------- *)

let test_null_recorder () =
  check Alcotest.bool "null disabled" false (Obs.Trace.enabled Obs.Trace.null);
  check Alcotest.int "emit on null returns -1" (-1)
    (Obs.Trace.emit Obs.Trace.null ~ev:"step" [])

let test_seq_monotonic () =
  let sink, events = Obs.Sink.memory () in
  let t = Obs.Trace.of_sink sink in
  let seqs = List.init 5 (fun i -> Obs.Trace.emit t ~ev:"live" [ ("i", Dsm.Json.Int i) ]) in
  Obs.Trace.close t;
  check Alcotest.(list int) "returned seqs count up" [ 0; 1; 2; 3; 4 ] seqs;
  check Alcotest.int "all records reach the sink" 5 (List.length (events ()))

let test_ring_keeps_tail () =
  let path = Filename.temp_file "trace_ring" ".jsonl" in
  let t = Obs.Trace.ring ~capacity:4 path in
  for i = 0 to 9 do
    ignore (Obs.Trace.emit t ~ev:"live" [ ("i", Dsm.Json.Int i) ])
  done;
  Obs.Trace.close t;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let records =
    List.rev_map
      (fun line ->
        match Dsm.Json.of_string line with
        | Ok (Dsm.Json.Obj fields) -> fields
        | _ -> fail "unparseable ring line")
      !lines
  in
  check Alcotest.int "capacity + meta records" 5 (List.length records);
  let ev f =
    match List.assoc_opt "ev" f with
    | Some (Dsm.Json.String e) -> e
    | _ -> "?"
  in
  let meta = List.nth records 4 in
  check Alcotest.string "trailing meta record" "ring_meta" (ev meta);
  check Alcotest.bool "dropped count = overwritten head" true
    (List.assoc_opt "dropped" meta = Some (Dsm.Json.Int 6));
  (* the survivors are the newest [capacity] records, oldest first *)
  let kept =
    List.filter_map
      (fun f ->
        if ev f = "live" then
          match List.assoc_opt "i" f with
          | Some (Dsm.Json.Int i) -> Some i
          | _ -> None
        else None)
      records
  in
  check Alcotest.(list int) "tail survives in order" [ 6; 7; 8; 9 ] kept

(* ---------- end-to-end: buggy-Paxos hunt determinism ---------- *)

module Common = struct
  let num_nodes = 3
  let proposers = [ 0; 1; 2 ]
  let max_attempts = 2
  let max_index = 8
  let bug = Protocols.Paxos_core.Last_response_wins
end

module Live = Protocols.Paxos.Make (struct
  include Common

  let fresh_proposals = true
end)

module Check_p = Protocols.Paxos.Make (struct
  include Common

  let fresh_proposals = false
end)

module O = Online.Online_mc.Make (Live) (Check_p)
module Sim_p = Sim.Live_sim.Make (Live)
module RW = Obs.Replay.Make (Check_p)

let strategy =
  O.Checker.Invariant_specific
    { abstract = Check_p.abstraction; conflict = Check_p.conflicts }

(* One hunt recording into memory; the returned list keeps each
   record's fields in emission order. *)
let hunt_trace () =
  let sink, events = Obs.Sink.memory () in
  let obs = Obs.create ~recorder:(Obs.Trace.of_sink sink) () in
  let config =
    {
      O.sim =
        {
          Sim_p.seed = 7;
          link =
            Net.Lossy_link.create ~drop_prob:0.3 ~latency_min:0.05
              ~latency_max:0.3 ();
          timer_min = 2.0;
          timer_max = 20.0;
          action_prob = None;
          faults = Fault.Plan.empty;
        };
      check_interval = 30.0;
      max_live_time = 600.0;
      (* Deterministic budgets only: a wall-clock limit would truncate
         restarts at machine-speed-dependent points and void the
         stream-equality contract (the CLI's replay refuses truncated
         recordings for the same reason). *)
      checker =
        {
          O.Checker.default_config with
          max_transitions = Some 100_000;
          obs;
        };
      action_bounds = [ 1; 2 ];
      steer = false;
      steer_scope = `Exact_action;
      supervisor = O.default_supervisor;
      store = None;
    }
  in
  let outcome = O.run config ~strategy ~invariant:Check_p.safety in
  Obs.close obs;
  ( outcome,
    List.map (fun (e : Obs.Sink.event) -> e.Obs.Sink.fields) (events ()) )

let ev_of fields =
  match List.assoc_opt "ev" fields with
  | Some (Dsm.Json.String e) -> e
  | _ -> "?"

(* The determinism contract compares full records minus the wall-clock
   timestamp (which lives in the sink envelope, not the fields). *)
let step_stream records =
  List.filter_map
    (fun f ->
      if ev_of f = "step" then Some (Dsm.Json.to_string (Dsm.Json.Obj f))
      else None)
    records

let test_hunt_stream_deterministic () =
  let outcome1, records1 = hunt_trace () in
  let outcome2, records2 = hunt_trace () in
  check Alcotest.bool "hunt found the injected bug" true
    (outcome1.O.report <> None);
  check Alcotest.bool "same verdict on the second run" true
    (outcome2.O.report <> None);
  let s1 = step_stream records1 and s2 = step_stream records2 in
  check Alcotest.bool "steps recorded" true (List.length s1 > 0);
  check Alcotest.(list string) "identical step records" s1 s2

let test_hunt_witness_replays () =
  let _, records = hunt_trace () in
  let witnesses = List.filter (fun f -> ev_of f = "witness") records in
  check Alcotest.bool "witness recorded" true (witnesses <> []);
  List.iter
    (fun fields ->
      match RW.replay_witness fields with
      | Error msg -> fail ("witness does not decode: " ^ msg)
      | Ok o ->
          (match o.RW.divergence with
          | None -> ()
          | Some (i, expect, got) ->
              fail
                (Printf.sprintf "diverged at step %d: %s vs %s" i expect got));
          check Alcotest.bool "final fingerprint matches" true
            o.RW.final_matches;
          check Alcotest.bool "non-empty schedule" true (o.RW.steps_checked > 0))
    witnesses

(* Every rejection names its reason: a prefilter rejection the node and
   the message it can never receive, a searched one "search". *)
let test_reject_reasons () =
  let _, records = hunt_trace () in
  let rejects = List.filter (fun f -> ev_of f = "reject") records in
  check Alcotest.bool "rejections recorded" true (rejects <> []);
  let str name f =
    match List.assoc_opt name f with
    | Some (Dsm.Json.String s) -> s
    | _ -> fail (Printf.sprintf "reject record without a string %S" name)
  in
  List.iter
    (fun f ->
      let reason = str "reason" f and why = str "why" f in
      let well_formed =
        match String.split_on_char ':' reason with
        | [ "search" ] -> why = "invalid"
        | [ "budget_exhausted" ] -> why = "budget_exhausted"
        | [ "unreachable"; n ] -> why = "invalid" && int_of_string_opt n <> None
        | "missing" :: n :: _ :: _ -> why = "invalid" && int_of_string_opt n <> None
        | _ -> false
      in
      if not well_formed then
        fail (Printf.sprintf "malformed reason %S (why %S)" reason why))
    rejects;
  check Alcotest.string "first rejection" "missing:0:Learn(i=1,r=9,v=3)"
    (str "reason" (List.hd rejects))

(* A tampered witness must be caught, not silently accepted. *)
let test_tampered_witness_diverges () =
  let _, records = hunt_trace () in
  match List.find_opt (fun f -> ev_of f = "witness") records with
  | None -> fail "no witness recorded"
  | Some fields ->
      let tampered =
        List.map
          (fun (k, v) ->
            if k <> "wsteps" then (k, v)
            else
              match v with
              | Dsm.Json.List (Dsm.Json.Obj step :: rest) ->
                  let step' =
                    List.map
                      (fun (sk, sv) ->
                        if sk = "fp_after" then
                          (sk, Dsm.Json.String (String.make 32 '0'))
                        else (sk, sv))
                      step
                  in
                  (k, Dsm.Json.List (Dsm.Json.Obj step' :: rest))
              | _ -> (k, v))
          fields
      in
      (match RW.replay_witness tampered with
      | Error msg -> fail ("tampered witness does not decode: " ^ msg)
      | Ok o -> (
          match o.RW.divergence with
          | Some (0, _, _) -> ()
          | Some (i, _, _) ->
              fail (Printf.sprintf "divergence reported at step %d, not 0" i)
          | None -> fail "tampered fingerprint not detected"))

(* ---------- one fact, one record ---------- *)

(* A run into a fresh memory-backed scope; the records' fields, in
   emission order. *)
let recorded f =
  let sink, events = Obs.Sink.memory () in
  let obs = Obs.create ~recorder:(Obs.Trace.of_sink sink) () in
  let r = f obs in
  Obs.close obs;
  (r, List.map (fun (e : Obs.Sink.event) -> e.Obs.Sink.fields) (events ()))

let count ev records = List.length (List.filter (fun f -> ev_of f = ev) records)

let test_lmc_facts_once () =
  let (module S) = Option.get (Protocols.Registry.find "2pc-buggy") in
  let module L = Lmc.Checker.Make (S.P) in
  let r, records =
    recorded (fun obs ->
        match S.opt with
        | Some (Protocols.Registry.Opt o) ->
            L.run { L.default_config with obs }
              ~strategy:
                (L.Invariant_specific
                   { abstract = o.abstract; conflict = o.conflict })
              ~invariant:S.invariant
              (Dsm.Protocol.initial_system (module S.P))
        | None -> fail "2pc-buggy has no LMC-OPT abstraction")
  in
  check Alcotest.bool "a witness was found" true (r.sound_violation <> None);
  check Alcotest.int "one prelim record per preliminary violation"
    r.preliminary_violations (count "prelim" records);
  check Alcotest.int "one witness record" 1 (count "witness" records);
  let lmc_end =
    match List.filter (fun f -> ev_of f = "lmc_end") records with
    | [ f ] -> f
    | l -> fail (Printf.sprintf "%d lmc_end records" (List.length l))
  in
  let expected =
    Dsm.Json.
      [
        ("transitions", Int r.transitions);
        ("node_states", Int r.total_node_states);
        ("net_messages", Int r.net_messages);
        ("system_states", Int r.system_states_created);
        ("preliminary_violations", Int r.preliminary_violations);
        ("sound_violation", Bool (r.sound_violation <> None));
        ("soundness_calls", Int r.soundness_calls);
        ("store_hits", Int r.store_hits);
        ("completed", Bool r.completed);
      ]
  in
  List.iter
    (fun (k, v) ->
      if not (List.mem k [ "schema"; "seq"; "ev" ]) then
        match List.assoc_opt k expected with
        | None -> fail (Printf.sprintf "lmc_end field %S has no result twin" k)
        | Some e ->
            check Alcotest.string ("lmc_end." ^ k) (Dsm.Json.to_string e)
              (Dsm.Json.to_string v))
    lmc_end;
  check Alcotest.int "every result tally is in lmc_end"
    (List.length expected + 3) (List.length lmc_end)

let test_bdfs_witness_once () =
  let (module S) = Option.get (Protocols.Registry.find "2pc-buggy") in
  let module G = Mc_global.Bdfs.Make (S.P) in
  let o, records =
    recorded (fun obs ->
        G.run { G.default_config with obs } ~invariant:S.invariant
          (Dsm.Protocol.initial_system (module S.P)))
  in
  check Alcotest.bool "a violation was found" true (o.violation <> None);
  check Alcotest.int "one witness record" 1 (count "witness" records)

(* Every restart blows a zero budget, so each one degrades. *)
let test_degraded_once () =
  let config =
    {
      O.sim =
        {
          Sim_p.seed = 7;
          link =
            Net.Lossy_link.create ~drop_prob:0.3 ~latency_min:0.05
              ~latency_max:0.3 ();
          timer_min = 2.0;
          timer_max = 20.0;
          action_prob = None;
          faults = Fault.Plan.empty;
        };
      check_interval = 30.0;
      max_live_time = 120.0;
      checker =
        {
          O.Checker.default_config with
          time_limit = Some 5.0;
          max_transitions = Some 100_000;
        };
      action_bounds = [ 1; 2 ];
      steer = false;
      steer_scope = `Exact_action;
      supervisor = { O.default_supervisor with O.restart_budget_ms = Some 0 };
      store = None;
    }
  in
  let (outcome, degraded), records =
    recorded (fun obs ->
        let outcome = O.run ~obs config ~strategy ~invariant:Check_p.safety in
        ( outcome,
          Obs.Metrics.find_counter (Obs.metrics obs) "online.degraded"
          |> Option.map Obs.Metrics.value ))
  in
  check Alcotest.bool "the hunt degraded" true (outcome.O.degradations <> []);
  check Alcotest.(option int) "one degraded record per counted degradation"
    degraded (Some (count "degraded" records));
  check Alcotest.int "one degraded record per reported degradation"
    (List.length outcome.O.degradations) (count "degraded" records)

(* ---------- registry lookups the recorder leans on ---------- *)

let test_find_gauge_and_histogram () =
  let scope = Obs.create () in
  let m = Obs.metrics scope in
  check Alcotest.bool "absent gauge" true
    (Obs.Metrics.find_gauge m "online.tier" = None);
  check Alcotest.bool "absent histogram" true
    (Obs.Metrics.find_histogram m "lmc.system_depth" = None);
  (* a checker run populates the histograms; a registered gauge is
     found by name *)
  let module C = Lmc.Checker.Make (Check_p) in
  let init = Dsm.Protocol.initial_system (module Check_p) in
  ignore
    (C.run
       { C.default_config with obs = scope; max_depth = Some 6 }
       ~strategy:C.General ~invariant:Check_p.safety init);
  ignore (Obs.gauge scope "online.tier");
  (match Obs.Metrics.find_gauge m "online.tier" with
  | None -> fail "gauge not registered"
  | Some _ -> ());
  (match Obs.Metrics.find_histogram m "lmc.system_depth" with
  | None -> fail "depth histogram not registered"
  | Some h ->
      check Alcotest.bool "histogram observed states" true
        ((Obs.Metrics.histogram_snapshot h).Obs.Metrics.count > 0));
  (* same name resolves to the same cell, mirroring find_counter *)
  (match Obs.Metrics.find_counter m "lmc.transitions" with
  | None -> fail "transitions counter not registered"
  | Some c -> check Alcotest.bool "counted" true (Obs.Metrics.value c > 0));
  Obs.close scope

let () =
  Alcotest.run "trace"
    [
      ( "records",
        [
          QCheck_alcotest.to_alcotest prop_step_roundtrip;
          QCheck_alcotest.to_alcotest prop_hex_roundtrip;
          Alcotest.test_case "null recorder" `Quick test_null_recorder;
          Alcotest.test_case "seq monotonic" `Quick test_seq_monotonic;
          Alcotest.test_case "ring keeps the tail" `Quick test_ring_keeps_tail;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same config, identical step streams" `Slow
            test_hunt_stream_deterministic;
          Alcotest.test_case "hunt witnesses replay bit-identically" `Slow
            test_hunt_witness_replays;
          Alcotest.test_case "tampered witness detected" `Slow
            test_tampered_witness_diverges;
          Alcotest.test_case "rejections carry their reason" `Slow
            test_reject_reasons;
        ] );
      ( "one record",
        [
          Alcotest.test_case "LMC: lmc_end mirrors the result" `Quick
            test_lmc_facts_once;
          Alcotest.test_case "B-DFS: one witness" `Quick test_bdfs_witness_once;
          Alcotest.test_case "hunt: one record per degradation" `Slow
            test_degraded_once;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "find_gauge / find_histogram" `Quick
            test_find_gauge_and_histogram;
        ] );
    ]
