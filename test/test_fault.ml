(* Tests for the fault-injection subsystem: plan DSL round-trips and
   diagnostics, the pure injection queries, Live_sim fault events, and
   the determinism contract — same seed + same plan is bit-identical,
   and two hunts under faults with the same config record identical
   streams. *)

let check = Alcotest.check
let fail = Alcotest.fail

(* ---------- plan DSL ---------- *)

let parse s =
  match Fault.Plan.of_string s with
  | Ok p -> p
  | Error e -> fail (Printf.sprintf "parse %S: %s" s e)

let test_roundtrip () =
  List.iter
    (fun s ->
      let p = parse s in
      let printed = Fault.Plan.to_string p in
      let p' = parse printed in
      check Alcotest.string
        (Printf.sprintf "round-trip %s" s)
        printed (Fault.Plan.to_string p'))
    [
      "crash:node=0,at=40";
      "crash:node=0,at=40,recover=60,persist=volatile";
      "crash:node=2,at=1.5,recover=2.5,persist=full";
      "part:from=10,until=30,cut=0+1/2";
      "dup:p=0.1";
      "reorder:p=0.3,window=2";
      "corrupt:p=0.05,from=5,until=50";
      "crash:node=1,at=5;dup:p=0.5;corrupt:p=1";
      "join:node=3,at=25";
      "leave:node=1,at=70";
      "load:rate=2,from=10,until=90";
      "load:rate=0.5";
      "join:node=2,at=5;leave:node=2,at=30;load:rate=1.5,from=2,until=8";
    ]

let test_diagnostics () =
  List.iter
    (fun s ->
      match Fault.Plan.of_string s with
      | Ok _ -> fail (Printf.sprintf "accepted %S" s)
      | Error e ->
          check Alcotest.bool
            (Printf.sprintf "diagnostic for %S non-empty" s)
            true
            (String.length e > 0))
    [
      "boom:p=1" (* unknown clause kind *);
      "dup:p=2" (* probability out of range *);
      "dup:p=0.1,zap=3" (* unknown key *);
      "part:from=1,cut=0/1" (* partition without until *);
      "part:from=1,until=2,cut=0+1" (* fewer than two groups *);
      "crash:node=0,at=1,persist=wat" (* bad persistence mode *);
      "crash:node=0,at=-3" (* negative crash time *);
      "join:node=0,at=-5" (* negative join time *);
      "leave:node=1,at=-0.5" (* negative leave time *);
      "join:node=0" (* join without a time *);
      "leave:at=3" (* leave without a node *);
      "load:rate=0" (* rate must be positive *);
      "load:rate=-2,from=1,until=9" (* negative rate *);
      "load:from=1,until=9" (* load without a rate *);
      "join:node=0,at=5,p=1" (* unknown key on a membership clause *);
    ]

let test_validate () =
  let p = parse "crash:node=9,at=1" in
  (match Fault.Plan.validate ~num_nodes:3 p with
  | Ok () -> fail "node 9 accepted for a 3-node instance"
  | Error _ -> ());
  (match Fault.Plan.validate ~num_nodes:3 (parse "join:node=3,at=1") with
  | Ok () -> fail "join of node 3 accepted for a 3-node instance"
  | Error _ -> ());
  (match Fault.Plan.validate ~num_nodes:3 (parse "leave:node=7,at=1") with
  | Ok () -> fail "leave of node 7 accepted for a 3-node instance"
  | Error _ -> ());
  match
    Fault.Plan.validate ~num_nodes:3
      (parse "crash:node=2,at=1;join:node=1,at=2;leave:node=0,at=3")
  with
  | Ok () -> ()
  | Error e -> fail e

let test_node_events_sorted () =
  let p = parse "crash:node=1,at=50,recover=60;crash:node=0,at=10" in
  (match Fault.Plan.node_events p with
  | [ (10., `Crash 0); (50., `Crash 1); (60., `Recover (1, Fault.Plan.Hook)) ]
    ->
      ()
  | evs ->
      fail (Printf.sprintf "unexpected schedule (%d events)" (List.length evs)));
  let churny = parse "leave:node=2,at=30;join:node=1,at=5;crash:node=0,at=10" in
  match Fault.Plan.node_events churny with
  | [ (5., `Join 1); (10., `Crash 0); (30., `Leave 2) ] -> ()
  | evs ->
      fail
        (Printf.sprintf "unexpected churn schedule (%d events)"
           (List.length evs))

let test_membership_queries () =
  let p = parse "join:node=2,at=10;leave:node=0,at=20;join:node=0,at=40" in
  check Alcotest.bool "join-first node starts absent" true
    (Fault.Plan.starts_absent p ~node:2);
  check Alcotest.bool "leave-first node starts present" false
    (Fault.Plan.starts_absent p ~node:0);
  check Alcotest.bool "unmentioned node starts present" false
    (Fault.Plan.starts_absent p ~node:1);
  let m time = Fault.Plan.membership_at p ~num_nodes:3 ~time in
  check
    Alcotest.(list bool)
    "t=0: joiner absent"
    [ true; true; false ]
    (Array.to_list (m 0.));
  check
    Alcotest.(list bool)
    "t=15: joined"
    [ true; true; true ]
    (Array.to_list (m 15.));
  check
    Alcotest.(list bool)
    "t=25: node 0 departed"
    [ false; true; true ]
    (Array.to_list (m 25.));
  check
    Alcotest.(list bool)
    "t=50: node 0 rejoined"
    [ true; true; true ]
    (Array.to_list (m 50.))

let test_load_queries () =
  let p = parse "load:rate=2,from=10,until=20;load:rate=0.5,from=15,until=30" in
  check Alcotest.bool "has_load" true (Fault.Plan.has_load p);
  check Alcotest.bool "no load clause" false (Fault.Plan.has_load []);
  check (Alcotest.float 1e-9) "outside every window" 0.
    (Fault.Plan.load_rate p ~time:5.);
  check (Alcotest.float 1e-9) "single window" 2.
    (Fault.Plan.load_rate p ~time:12.);
  check (Alcotest.float 1e-9) "overlapping windows sum" 2.5
    (Fault.Plan.load_rate p ~time:17.);
  check (Alcotest.float 1e-9) "until is exclusive" 0.5
    (Fault.Plan.load_rate p ~time:20.);
  (match Fault.Plan.next_load_start p ~time:0. with
  | Some t -> check (Alcotest.float 1e-9) "next window opening" 10. t
  | None -> fail "expected a next load window");
  (match Fault.Plan.next_load_start p ~time:12. with
  | Some t -> check (Alcotest.float 1e-9) "second opening" 15. t
  | None -> fail "expected the second window");
  match Fault.Plan.next_load_start p ~time:16. with
  | Some t -> fail (Printf.sprintf "no opening expected, got %g" t)
  | None -> ()

let test_partitioned_window () =
  let p = parse "part:from=10,until=30,cut=0+1/2" in
  let cut ~time ~src ~dst = Fault.Plan.partitioned p ~time ~src ~dst in
  check Alcotest.bool "cut inside window" true (cut ~time:20. ~src:0 ~dst:2);
  check Alcotest.bool "cut is symmetric" true (cut ~time:20. ~src:2 ~dst:1);
  check Alcotest.bool "same group stays connected" false
    (cut ~time:20. ~src:0 ~dst:1);
  check Alcotest.bool "before the window" false (cut ~time:5. ~src:0 ~dst:2);
  check Alcotest.bool "window end exclusive" false
    (cut ~time:30. ~src:0 ~dst:2)

let test_message_fate_rolls () =
  (* one roll per active probabilistic clause, in plan order *)
  let p = parse "dup:p=0;corrupt:p=0" in
  let rolls = ref 0 in
  let roll () =
    incr rolls;
    0.9
  in
  let fate = Fault.Plan.message_fate p ~time:1.0 ~roll in
  check Alcotest.int "two clauses, two rolls" 2 !rolls;
  check Alcotest.bool "nothing fired" true
    ((not fate.Fault.Plan.corrupt)
    && (not fate.Fault.Plan.duplicate)
    && fate.Fault.Plan.extra_latency = 0.);
  let certain = parse "corrupt:p=1" in
  let fate = Fault.Plan.message_fate certain ~time:1.0 ~roll:(fun () -> 0.5) in
  check Alcotest.bool "corruption fires at p=1" true fate.Fault.Plan.corrupt;
  let dup = parse "dup:p=1" in
  let fate = Fault.Plan.message_fate dup ~time:1.0 ~roll:(fun () -> 0.5) in
  check Alcotest.bool "duplication fires at p=1" true fate.Fault.Plan.duplicate;
  let reorder = parse "reorder:p=1,window=2" in
  let fate =
    Fault.Plan.message_fate reorder ~time:1.0 ~roll:(fun () -> 0.25)
  in
  check Alcotest.bool "reorder adds latency" true
    (fate.Fault.Plan.extra_latency > 0.);
  (* an inactive window consumes no rolls *)
  let windowed = parse "corrupt:p=1,from=10,until=20" in
  let rolls = ref 0 in
  let fate =
    Fault.Plan.message_fate windowed ~time:5.0
      ~roll:(fun () ->
        incr rolls;
        0.0)
  in
  check Alcotest.int "inactive clause rolls nothing" 0 !rolls;
  check Alcotest.bool "inactive clause is a no-op" false fate.Fault.Plan.corrupt

(* qcheck round-trips for the three membership/load clause kinds:
   print-parse is the identity on the parsed value, not just on the
   printed form. *)
let churn_clause_gen =
  QCheck.Gen.(
    let join_leave =
      let* kind = oneofl [ "join"; "leave" ] in
      let* node = int_range 0 9 in
      let* at10 = int_range 0 500 in
      return (Printf.sprintf "%s:node=%d,at=%.1f" kind node (float_of_int at10 /. 10.))
    in
    let load =
      let* rate10 = int_range 1 100 in
      let* windowed = bool in
      let* from_ = int_range 0 50 in
      let* len = int_range 1 50 in
      return
        (if windowed then
           Printf.sprintf "load:rate=%.1f,from=%d,until=%d"
             (float_of_int rate10 /. 10.)
             from_ (from_ + len)
         else Printf.sprintf "load:rate=%.1f" (float_of_int rate10 /. 10.))
    in
    oneof [ join_leave; load ])

let churn_plan_gen =
  QCheck.Gen.(
    let* clauses = list_size (int_range 1 6) churn_clause_gen in
    return (String.concat ";" clauses))

let prop_churn_clause_roundtrip =
  QCheck.Test.make ~count:200
    ~name:"join/leave/load round-trip through of_string/to_string"
    (QCheck.make churn_plan_gen ~print:(fun s -> s))
    (fun s ->
      let p = parse s in
      let printed = Fault.Plan.to_string p in
      let p' = parse printed in
      p = p' && printed = Fault.Plan.to_string p')

(* ---------- live-sim injection ---------- *)

module Ping = Protocols.Ping.Make (struct
  let num_servers = 2
end)

module S = Sim.Live_sim.Make (Ping)

let sim_config ?(seed = 11) ?(drop = 0.0) faults =
  {
    S.seed;
    link =
      Net.Lossy_link.create ~drop_prob:drop ~latency_min:0.05 ~latency_max:0.3
        ();
    timer_min = 0.5;
    timer_max = 1.5;
    action_prob = None;
    faults;
  }

let test_empty_plan_no_fault_work () =
  let sim = S.create (sim_config Fault.Plan.empty) in
  S.run_until sim 50.0;
  check Alcotest.bool "traffic flowed" true (S.messages_sent sim > 0);
  check Alcotest.int "no fault events" 0 (S.fault_events sim);
  check Alcotest.int "no fault drops" 0 (S.fault_drops sim);
  check Alcotest.int "no duplicates" 0 (S.messages_duplicated sim)

let test_crash_recover_events () =
  let sim = S.create (sim_config (parse "crash:node=0,at=5,recover=9")) in
  S.run_until sim 20.0;
  check Alcotest.int "crash + recover executed" 2 (S.fault_events sim);
  let stopped = S.create (sim_config (parse "crash:node=0,at=5")) in
  S.run_until stopped 20.0;
  check Alcotest.int "crash-stop executes once" 1 (S.fault_events stopped)

let test_duplication_and_corruption () =
  let dup = S.create (sim_config (parse "dup:p=1")) in
  S.run_until dup 30.0;
  check Alcotest.bool "duplicates counted" true
    (S.messages_duplicated dup > 0);
  let corrupt = S.create (sim_config (parse "corrupt:p=1")) in
  S.run_until corrupt 30.0;
  check Alcotest.bool "corrupted sends dropped" true (S.fault_drops corrupt > 0)

let test_partition_drops () =
  let sim = S.create (sim_config (parse "part:from=0,until=1000,cut=0/1+2")) in
  S.run_until sim 30.0;
  check Alcotest.bool "cut traffic dropped at delivery" true
    (S.fault_drops sim > 0)

let test_churn_membership () =
  let sim =
    S.create (sim_config (parse "leave:node=2,at=10;join:node=2,at=30"))
  in
  S.run_until sim 5.0;
  check Alcotest.(list int) "full fleet before the leave" [ 0; 1; 2 ]
    (S.live_nodes sim);
  S.run_until sim 20.0;
  check Alcotest.(list int) "node 2 departed" [ 0; 1 ] (S.live_nodes sim);
  check Alcotest.(list bool) "membership map matches" [ true; true; false ]
    (Array.to_list (S.membership sim));
  S.run_until sim 40.0;
  check Alcotest.(list int) "node 2 rejoined" [ 0; 1; 2 ] (S.live_nodes sim);
  check Alcotest.int "one leave + one join" 2 (S.churn_events sim);
  (* the snapshot carries the membership map of its capture time *)
  let snap = S.snapshot sim in
  check Alcotest.(list int) "snapshot live set" [ 0; 1; 2 ]
    (Sim.Snapshot.live_nodes snap)

let test_departed_traffic_dropped () =
  (* ping's client (node 0) keeps probing both servers; server 2 being
     out of the fleet turns that traffic into fault drops *)
  let sim = S.create (sim_config (parse "leave:node=2,at=1")) in
  S.run_until sim 30.0;
  check Alcotest.bool "envelopes to the departed node dropped" true
    (S.fault_drops sim > 0);
  check Alcotest.(list int) "fleet stays shrunk" [ 0; 1 ] (S.live_nodes sim)

let test_join_starts_absent () =
  (* a node whose first membership event is a join begins outside the
     fleet *)
  let sim = S.create (sim_config (parse "join:node=2,at=15")) in
  S.run_until sim 5.0;
  check Alcotest.(list int) "starts without the joiner" [ 0; 1 ]
    (S.live_nodes sim);
  S.run_until sim 20.0;
  check Alcotest.(list int) "joiner arrived" [ 0; 1; 2 ] (S.live_nodes sim)

let test_load_arrivals () =
  let sim = S.create (sim_config (parse "load:rate=5,from=2,until=20")) in
  S.run_until sim 25.0;
  check Alcotest.bool "arrivals fired inside the window" true
    (S.load_arrivals sim > 0);
  let before = S.load_arrivals sim in
  S.run_until sim 60.0;
  check Alcotest.int "no arrivals after the window closes" before
    (S.load_arrivals sim);
  let quiet = S.create (sim_config Fault.Plan.empty) in
  S.run_until quiet 25.0;
  check Alcotest.int "no load clause, no arrivals" 0 (S.load_arrivals quiet)

let test_churn_deterministic () =
  (* join/leave/load clauses keep the bit-identical-replay contract *)
  let run () =
    let sim =
      S.create
        (sim_config ~drop:0.2
           (parse
              "leave:node=2,at=5;join:node=2,at=12;load:rate=3,from=1,until=30"))
    in
    S.run_until sim 40.0;
    ( Dsm.Fingerprint.of_value (S.states sim),
      S.events_executed sim,
      S.churn_events sim,
      S.load_arrivals sim )
  in
  let fp1, ev1, ch1, ld1 = run () in
  let fp2, ev2, ch2, ld2 = run () in
  check Alcotest.bool "identical states" true (Dsm.Fingerprint.equal fp1 fp2);
  check Alcotest.int "identical event counts" ev1 ev2;
  check Alcotest.int "identical churn counts" ch1 ch2;
  check Alcotest.int "identical arrival counts" ld1 ld2

(* ---------- determinism ---------- *)

(* Same seed + same plan: bit-identical states, counters, and live
   trace records.  The plan is drawn from a small generator covering
   every clause kind. *)
let plan_gen =
  QCheck.Gen.(
    let* crash_at = int_range 1 20 in
    let* crash_len = int_range 1 10 in
    let* node = int_range 0 2 in
    let* persist = oneofl [ "hook"; "full"; "volatile" ] in
    let* dup_p = int_range 0 10 in
    let* corrupt_p = int_range 0 10 in
    let* reorder_p = int_range 0 10 in
    return
      (Printf.sprintf
         "crash:node=%d,at=%d,recover=%d,persist=%s;dup:p=0.%d;corrupt:p=0.%d;reorder:p=0.%d,window=2"
         node crash_at (crash_at + crash_len) persist dup_p corrupt_p
         reorder_p))

let run_fingerprint ~seed plan_str =
  let sink, events = Obs.Sink.memory () in
  let obs = Obs.create ~recorder:(Obs.Trace.of_sink sink) () in
  let sim = S.create ~obs (sim_config ~seed ~drop:0.2 (parse plan_str)) in
  S.run_until sim 40.0;
  Obs.close obs;
  let records =
    List.map
      (fun (e : Obs.Sink.event) -> Dsm.Json.to_string (Dsm.Json.Obj e.Obs.Sink.fields))
      (events ())
  in
  ( Dsm.Fingerprint.of_value (S.states sim),
    ( S.events_executed sim,
      S.messages_sent sim,
      S.fault_events sim,
      S.fault_drops sim,
      S.messages_duplicated sim ),
    records )

let prop_same_seed_same_plan_identical =
  QCheck.Test.make ~count:20 ~name:"same seed + same plan = identical run"
    (QCheck.make
       QCheck.Gen.(pair (int_range 0 1000) plan_gen)
       ~print:(fun (seed, plan) -> Printf.sprintf "seed=%d plan=%s" seed plan))
    (fun (seed, plan) ->
      let fp1, counters1, records1 = run_fingerprint ~seed plan in
      let fp2, counters2, records2 = run_fingerprint ~seed plan in
      Dsm.Fingerprint.equal fp1 fp2 && counters1 = counters2
      && records1 = records2)

(* ---------- inert plans ----------

   A plan whose every clause is windowed past the horizon makes the
   injector scan each message but roll nothing, so the run must follow
   the empty plan's trajectory exactly.  The deployment is the bench's
   token ring, whose timer ticks launch multi-hop tokens: sends
   dominate, so any stray fault-stream draw or membership slip would
   show. *)
module Token_ring (N : sig
  val num_nodes : int
  val hops : int
end) =
struct
  let name = "token-ring"
  let num_nodes = N.num_nodes

  type state = int
  type message = int (* remaining hops *)
  type action = unit

  let initial _ = 0

  let fwd self ttl =
    if ttl <= 0 then []
    else
      [ Dsm.Envelope.make ~src:self ~dst:((self + 1) mod num_nodes) (ttl - 1) ]

  let handle_message ~self st (env : message Dsm.Envelope.t) =
    (st + 1, fwd self env.Dsm.Envelope.payload)

  let enabled_actions ~self:_ _ = [ () ]
  let handle_action ~self st () = (st + 1, fwd self N.hops)
  let on_recover = Dsm.Protocol.default_on_recover
  let pp_state = Format.pp_print_int
  let pp_message ppf ttl = Format.fprintf ppf "tok%d" ttl
  let pp_action ppf () = Format.pp_print_string ppf "launch"
end

let test_inert_plan_identical () =
  List.iter
    (fun (nodes, hops) ->
      let module R = Token_ring (struct
        let num_nodes = nodes
        let hops = hops
      end) in
      let module Sr = Sim.Live_sim.Make (R) in
      let far = "from=9000000,until=9000001" in
      let inert =
        parse
          (String.concat ";"
             [
               "corrupt:p=0.5," ^ far;
               "dup:p=0.5," ^ far;
               "reorder:p=0.5,window=2," ^ far;
               "part:cut=0/1," ^ far;
               "crash:node=0,at=9000000,recover=9000001";
               "leave:node=1,at=9000000";
               "join:node=1,at=9000001";
             ])
      in
      let run faults =
        let sim =
          Sr.create
            {
              Sr.seed = 11;
              link =
                Net.Lossy_link.create ~drop_prob:0.05 ~latency_min:0.05
                  ~latency_max:0.3 ();
              timer_min = 0.5;
              timer_max = 1.5;
              action_prob = None;
              faults;
            }
        in
        Sr.run_until sim 60.0;
        ( Sr.events_executed sim,
          Sr.messages_sent sim,
          Dsm.Fingerprint.to_hex (Dsm.Fingerprint.of_value (Sr.states sim)) )
      in
      let ev, sent, fp = run Fault.Plan.empty in
      let ev', sent', fp' = run inert in
      let tag s = Printf.sprintf "%d nodes: %s" nodes s in
      check Alcotest.bool (tag "traffic flowed") true (ev > 0);
      check Alcotest.int (tag "events executed") ev ev';
      check Alcotest.int (tag "messages sent") sent sent';
      check Alcotest.string (tag "final states") fp fp')
    [ (3, 32); (100, 8) ]

(* ---------- hunt under faults: run-to-run determinism ---------- *)

module PB_cr = Protocols.Pb_store.Make (struct
  let key = 7
  let value = 42
  let bug = Protocols.Pb_store.Lose_acked_writes_on_recovery
end)

module O = Online.Online_mc.Make (PB_cr) (PB_cr)
module Sim_pb = Sim.Live_sim.Make (PB_cr)

let hunt_trace () =
  let sink, events = Obs.Sink.memory () in
  let obs = Obs.create ~recorder:(Obs.Trace.of_sink sink) () in
  let config =
    {
      O.sim =
        {
          Sim_pb.seed = 7;
          link =
            Net.Lossy_link.create ~drop_prob:0.1 ~latency_min:0.05
              ~latency_max:0.3 ();
          timer_min = 1.0;
          timer_max = 4.0;
          action_prob = None;
          faults = parse "crash:node=0,at=5,recover=7;dup:p=0.1";
        };
      check_interval = 1.0;
      max_live_time = 60.0;
      (* deterministic budgets only: a wall-clock limit would truncate
         restarts at machine-speed-dependent points *)
      checker =
        {
          O.Checker.default_config with
          max_transitions = Some 100_000;
          crash_budget = 1;
          obs;
        };
      action_bounds = [ 1; 2 ];
      steer = false;
      steer_scope = `Exact_action;
      supervisor = O.default_supervisor;
      store = None;
    }
  in
  let outcome = O.run config ~strategy:O.Checker.General ~invariant:PB_cr.read_your_writes in
  Obs.close obs;
  ( outcome,
    List.filter_map
      (fun (e : Obs.Sink.event) ->
        match List.assoc_opt "ev" e.Obs.Sink.fields with
        | Some (Dsm.Json.String "step") ->
            Some (Dsm.Json.to_string (Dsm.Json.Obj e.Obs.Sink.fields))
        | _ -> None)
      (events ()) )

let test_fault_hunt_deterministic () =
  let outcome1, steps1 = hunt_trace () in
  let outcome2, steps2 = hunt_trace () in
  check Alcotest.bool "bug found" true (outcome1.O.report <> None);
  check Alcotest.bool "bug found again" true (outcome2.O.report <> None);
  check Alcotest.bool "steps recorded" true (List.length steps1 > 0);
  check Alcotest.(list string) "identical step records" steps1 steps2

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "DSL round-trip" `Quick test_roundtrip;
          Alcotest.test_case "diagnostics" `Quick test_diagnostics;
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "node events sorted" `Quick
            test_node_events_sorted;
          Alcotest.test_case "membership queries" `Quick
            test_membership_queries;
          Alcotest.test_case "load queries" `Quick test_load_queries;
          Alcotest.test_case "partition window" `Quick test_partitioned_window;
          Alcotest.test_case "message fate rolls" `Quick
            test_message_fate_rolls;
          QCheck_alcotest.to_alcotest prop_churn_clause_roundtrip;
        ] );
      ( "live-sim",
        [
          Alcotest.test_case "empty plan, no fault work" `Quick
            test_empty_plan_no_fault_work;
          Alcotest.test_case "crash/recover events" `Quick
            test_crash_recover_events;
          Alcotest.test_case "duplication and corruption" `Quick
            test_duplication_and_corruption;
          Alcotest.test_case "partition drops" `Quick test_partition_drops;
        ] );
      ( "churn",
        [
          Alcotest.test_case "membership follows join/leave" `Quick
            test_churn_membership;
          Alcotest.test_case "departed traffic dropped" `Quick
            test_departed_traffic_dropped;
          Alcotest.test_case "join starts absent" `Quick
            test_join_starts_absent;
          Alcotest.test_case "load arrivals windowed" `Quick
            test_load_arrivals;
          Alcotest.test_case "churn runs deterministic" `Quick
            test_churn_deterministic;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest prop_same_seed_same_plan_identical;
          Alcotest.test_case "inert plan = empty plan" `Quick
            test_inert_plan_identical;
          Alcotest.test_case "fault hunt, identical step streams" `Slow
            test_fault_hunt_deterministic;
        ] );
    ]
