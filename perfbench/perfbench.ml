(* The benchmark of record: four fixed-work workloads run through the
   checkers' public entry points.

     perfbench.exe --workload W --params JSON --seed N --trace 0|1
                   [--setup-only]

   Runs one round of the workload (a checker run, or one hunt per
   deployment seed) and prints it as a JSON line, then an end line.
   With [--trace 1] the round is traced (shims, spans and a
   metrics-only [Obs] scope) and carries the per-layer numbers.  [--setup-only] exits just before the first checker call,
   so the caller can time set-up.  run.py starts one process per round
   and owns the time budget, the correctness check against the
   reference and the aggregation into the benchmark's metrics. *)

open Dsm

let now = Shim.now

(* ----- parameters (the workload's "params" object in spec.json) ----- *)

let field p k = match p with Json.Obj kv -> List.assoc_opt k kv | _ -> None
let bad k = failwith (Printf.sprintf "bad or missing param %S" k)
let int p k = match field p k with Some (Json.Int n) -> n | _ -> bad k

let int_opt p k =
  match field p k with
  | Some (Json.Int n) -> Some n
  | Some Json.Null | None -> None
  | _ -> bad k

let str p k = match field p k with Some (Json.String s) -> s | _ -> bad k

let ints p k =
  match field p k with
  | Some (Json.List l) ->
      List.map (function Json.Int n -> n | _ -> bad k) l
  | _ -> bad k

(* ----- Paxos instances ----- *)

module type PAXOS = sig
  include Protocols.Scenarios.PAXOS

  val safety : Protocols.Paxos.paxos_state Invariant.t

  val abstraction :
    Protocols.Paxos.paxos_state -> (int * Protocols.Paxos_core.value) list option

  val conflicts :
    (int * Protocols.Paxos_core.value) list ->
    (int * Protocols.Paxos_core.value) list ->
    bool
end

let paxos ~nodes ~proposers ~max_attempts ~max_index ~fresh ~bug =
  (module Protocols.Paxos.Make (struct
    let num_nodes = nodes
    let proposers = proposers
    let max_attempts = max_attempts
    let max_index = max_index
    let fresh_proposals = fresh
    let bug = bug
  end) : PAXOS)

(* ----- one operation ----- *)

(* One round of the workload: a checker run, or one hunt per
   deployment seed. *)
type round = {
  verdict_s : float;
  facts : (string * Json.t) list list;
      (** one object per checker run or hunt, checked against the
          reference *)
  layers : (string * float) list;  (** traced rounds only *)
}

type workload = {
  run : traced:bool -> round;
  fingerprint : unit -> (string * float) list;
}

let timed_call f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

let us s = s *. 1e6
let per_call_ns secs calls = if calls = 0 then 0. else secs *. 1e9 /. float_of_int calls
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let shim_layers () =
  let open Shim in
  [
    ("protocols.handler_calls", float_of_int handlers.calls);
    ("protocols.handler_us", us (secs handlers));
    ("protocols.handler_ns", per_call_ns (secs handlers) handlers.calls);
    ("strategy.abstract_calls", float_of_int abstract.calls);
    ("strategy.conflict_calls", float_of_int conflict.calls);
    ("strategy.us", us (secs abstract +. secs conflict));
    ("invariant.calls", float_of_int invariant.calls);
    ("invariant.ns", per_call_ns (secs invariant) invariant.calls);
    ("sim.handler_us", us (secs live_handlers));
  ]

(* Always-on registry of the traced operation's metrics-only scope. *)
let registry_layers obs =
  let m = Obs.metrics obs in
  let count name =
    match Obs.Metrics.find_counter m name with
    | Some c -> Obs.Metrics.value c
    | None -> 0
  in
  let hist name =
    Option.map Obs.Metrics.histogram_snapshot (Obs.Metrics.find_histogram m name)
  in
  let quantile name q =
    match Option.bind (hist name) (fun h -> Obs.Metrics.quantile h q) with
    | Some v -> float_of_int v
    | None -> 0.
  in
  let zero_steps, searched =
    match hist "soundness.steps" with
    | Some h ->
        ( List.fold_left
            (fun acc (_, hi, n) -> if hi <= 0 then acc + n else acc)
            0 h.Obs.Metrics.buckets,
          h.Obs.Metrics.count )
    | None -> (0, 0)
  in
  [
    ("lmc.transitions", float_of_int (count "lmc.transitions"));
    ("lmc.node_states", float_of_int (count "lmc.node_states"));
    ("lmc.net_messages", float_of_int (count "lmc.net_messages"));
    ("lmc.system_states_created", float_of_int (count "lmc.system_states_created"));
    ("lmc.orbit_hits", float_of_int (count "lmc.orbit_hits"));
    ("lmc.preliminary_violations", float_of_int (count "lmc.preliminary_violations"));
    ("lmc.soundness_calls", float_of_int (count "lmc.soundness_calls"));
    ("lmc.soundness_us_p50", quantile "lmc.soundness_us" 0.5);
    ("lmc.soundness_us_p99", quantile "lmc.soundness_us" 0.99);
    ("soundness.zero_step_share", ratio zero_steps searched);
    ("soundness.confirm_ratio", ratio (count "soundness.valid") searched);
    ("online.checks", float_of_int (count "online.checks"));
    ("sim.events", float_of_int (count "sim.events"));
  ]

(* ----- LMC ----- *)

module Lmc_side (P : Dsm.Protocol.S) = struct
  module L = Lmc.Checker.Make (P)

  let facts (r : L.result) =
    [
      ("verdict", Json.String (if r.sound_violation = None then "clean" else "violation"));
      ("completed", Json.Bool r.completed);
      ("transitions", Json.Int r.transitions);
      ("node_states", Json.Int r.total_node_states);
      ("net_messages", Json.Int r.net_messages);
      ("system_states_created", Json.Int r.system_states_created);
      ("preliminary_violations", Json.Int r.preliminary_violations);
      ("soundness_calls", Json.Int r.soundness_calls);
    ]

  (* Phase times from the result record. *)
  let layers (r : L.result) =
    [
      ("lmc.explore_us", us (L.explore_time r));
      ("lmc.system_state_us", us r.system_state_time);
      ("lmc.system_state_ns", per_call_ns r.system_state_time r.system_states_created);
      ("lmc.soundness_us", us r.soundness_time);
      ("lmc.retained_bytes", float_of_int r.retained_bytes);
    ]
end

let lmc_workload p ~seed =
  let nodes = int p "nodes" in
  let (module P) =
    paxos ~nodes ~proposers:[ seed mod nodes ] ~max_attempts:1
      ~max_index:(int p "max_index") ~fresh:true
      ~bug:Protocols.Paxos_core.No_bug
  in
  let module U = Lmc_side (P) in
  let module T =
    Lmc_side
      (Shim.Protocol
         (P)
         (struct
           let acc = Shim.handlers
         end))
  in
  let max_depth = int_opt p "max_depth" in
  let opt =
    match str p "strategy" with
    | "opt" -> true
    | "gen" -> false
    | _ -> bad "strategy"
  in
  let init = Protocol.initial_system (module P) in
  let run ~traced =
    if not traced then
      let strategy =
        if opt then
          U.L.Invariant_specific
            { abstract = P.abstraction; conflict = P.conflicts }
        else U.L.General
      in
      let dt, r =
        timed_call (fun () ->
            U.L.run { U.L.default_config with max_depth } ~strategy
              ~invariant:P.safety init)
      in
      { verdict_s = dt; facts = [ U.facts r ]; layers = [] }
    else begin
      Shim.reset_all ();
      let obs = Obs.create () in
      let strategy =
        if opt then
          T.L.Invariant_specific
            {
              abstract = Shim.timed_abstract P.abstraction;
              conflict = Shim.timed_conflict P.conflicts;
            }
        else T.L.General
      in
      let invariant = Shim.paxos_safety P.safety in
      let dt, r =
        timed_call (fun () ->
            Shim.span ~parent:"workload" "lmc.run" (fun () ->
                T.L.run { T.L.default_config with max_depth; obs } ~strategy
                  ~invariant init))
      in
      (* Exploration residue: I+, stores and digests, i.e. explore
         time minus the shimmed handler and [abstract] time. *)
      let residue =
        T.L.explore_time r -. Shim.secs Shim.handlers -. Shim.secs Shim.abstract
      in
      {
        verdict_s = dt;
        facts = [ T.facts r ];
        layers =
          shim_layers () @ registry_layers obs @ T.layers r
          @ [ ("lmc.explore_residue_us", us residue) ];
      }
    end
  in
  let fingerprint () =
    let module S = Sample.Make (P) in
    let states_ns, _, combine_ns = S.fingerprint_ns ~seed init in
    [ ("fingerprint.of_value_ns", states_ns); ("fingerprint.combine_ns", combine_ns) ]
  in
  { run; fingerprint }

(* ----- B-DFS ----- *)

module Bdfs_side (P : Dsm.Protocol.S) = struct
  module G = Mc_global.Bdfs.Make (P)

  let facts (o : G.outcome) =
    [
      ("verdict", Json.String (if o.violation = None then "clean" else "violation"));
      ("completed", Json.Bool o.completed);
      ("transitions", Json.Int o.stats.transitions);
      ("global_states", Json.Int o.stats.global_states);
    ]

  (* Residue: traversal time minus the shimmed handler and invariant
     time (visited set, digests, multiset updates). *)
  let layers (o : G.outcome) =
    let s = o.stats in
    [
      ("bdfs.transitions", float_of_int s.transitions);
      ("bdfs.global_states", float_of_int s.global_states);
      ("bdfs.ns_per_state", per_call_ns s.elapsed s.global_states);
      ( "bdfs.residue_us",
        us (s.elapsed -. Shim.secs Shim.handlers -. Shim.secs Shim.invariant) );
      ("bdfs.retained_bytes", float_of_int s.retained_bytes);
    ]
end

let bdfs_workload p ~seed =
  let nodes = int p "nodes" in
  let (module P) =
    paxos ~nodes ~proposers:[ seed mod nodes ] ~max_attempts:1
      ~max_index:(int p "max_index") ~fresh:true
      ~bug:Protocols.Paxos_core.No_bug
  in
  let module U = Bdfs_side (P) in
  let module T =
    Bdfs_side
      (Shim.Protocol
         (P)
         (struct
           let acc = Shim.handlers
         end))
  in
  let max_depth = int_opt p "max_depth" in
  let init = Protocol.initial_system (module P) in
  let run ~traced =
    if not traced then
      let dt, o =
        timed_call (fun () ->
            U.G.run { U.G.default_config with max_depth } ~invariant:P.safety
              init)
      in
      { verdict_s = dt; facts = [ U.facts o ]; layers = [] }
    else begin
      Shim.reset_all ();
      let obs = Obs.create () in
      let invariant = Shim.paxos_safety P.safety in
      let dt, o =
        timed_call (fun () ->
            Shim.span ~parent:"workload" "bdfs.run" (fun () ->
                T.G.run { T.G.default_config with max_depth; obs } ~invariant
                  init))
      in
      {
        verdict_s = dt;
        facts = [ T.facts o ];
        layers = shim_layers () @ registry_layers obs @ T.layers o;
      }
    end
  in
  let fingerprint () =
    let module S = Sample.Make (P) in
    let _, globals_ns, combine_ns = S.fingerprint_ns ~seed init in
    [ ("fingerprint.of_value_ns", globals_ns); ("fingerprint.combine_ns", combine_ns) ]
  in
  { run; fingerprint }

(* ----- the §5.5 online hunt ----- *)

module Hunt_side
    (Live : Dsm.Protocol.S)
    (Check : Dsm.Protocol.S
               with type state = Live.state
                and type message = Live.message
                and type action = Live.action) =
struct
  module O = Online.Online_mc.Make (Live) (Check)
  module S = Sim.Live_sim.Make (Live)
  module C = Lmc_side (Check)

  (* Table 5.5's deployment: 30% loss, 2-20 s action ticks, a check
     every 30 simulated seconds with widening bounds 1 and 2.  Each
     restart is bounded by [max_transitions], never by wall clock. *)
  let config ~dseed ~max_transitions =
    {
      O.sim =
        {
          S.seed = dseed;
          link =
            Net.Lossy_link.create ~drop_prob:0.3 ~latency_min:0.05
              ~latency_max:0.3 ();
          timer_min = 2.0;
          timer_max = 20.0;
          action_prob = None;
          faults = Fault.Plan.empty;
        };
      check_interval = 30.0;
      max_live_time = 3600.0;
      checker =
        { O.Checker.default_config with max_transitions = Some max_transitions };
      action_bounds = [ 1; 2 ];
      steer = false;
      steer_scope = `Exact_action;
      supervisor = O.default_supervisor;
      store = None;
    }

  (* Facts of the hunt and of its revealing restart; [replays] checks
     the witness from the revealing snapshot. *)
  let facts ~dseed ~replays (o : O.outcome) =
    ("dseed", Json.Int dseed)
    ::
    (match o.report with
    | None -> [ ("found", Json.Bool false) ]
    | Some r ->
        [
          ("found", Json.Bool true);
          ("witness_replays", Json.Bool (replays r.snapshot r.violation.schedule));
          ("live_time", Json.Float r.live_time);
          ("witness_events", Json.Int (List.length r.violation.schedule));
          ("checks", Json.Int r.checks_run);
        ]
        @ C.facts r.result)

  (* Additive per-hunt numbers, summed over the round: simulation time
     is the hunt's wall time outside checker runs; the LMC phase times
     are the revealing restart's. *)
  let layers ~dt (o : O.outcome) =
    [
      ("online.check_us", us o.total_check_time);
      ("sim.us", us (dt -. o.total_check_time));
    ]
    @
    match o.report with
    | None -> []
    | Some r ->
        ("online.found_at_live_s", r.live_time)
        :: ("online.witness_events", float_of_int (List.length r.violation.schedule))
        :: ("revealing.system_states", float_of_int r.result.system_states_created)
        :: C.layers r.result

  let run ?obs ~dseed ~max_transitions ~strategy ~invariant () =
    timed_call (fun () ->
        O.run ?obs (config ~dseed ~max_transitions) ~strategy ~invariant)
end

(* Sum same-named numbers, keeping first-seen order. *)
let sum_layers ls =
  List.fold_left
    (fun acc (n, v) ->
      match List.assoc_opt n acc with
      | Some v0 -> List.map (fun (n', x) -> if n' = n then (n, v0 +. v) else (n', x)) acc
      | None -> acc @ [ (n, v) ])
    [] ls

let hunt_workload p ~seed =
  let paxos_hunt ~fresh =
    paxos ~nodes:3 ~proposers:[ 0; 1; 2 ] ~max_attempts:2 ~max_index:16 ~fresh
      ~bug:Protocols.Paxos_core.Last_response_wins
  in
  let (module Live) = paxos_hunt ~fresh:true in
  let (module Check) = paxos_hunt ~fresh:false in
  let module U = Hunt_side (Live) (Check) in
  let module T =
    Hunt_side
      (Shim.Protocol
         (Live)
         (struct
           let acc = Shim.live_handlers
         end))
      (Shim.Protocol
         (Check)
         (struct
           let acc = Shim.handlers
         end))
  in
  let module W = Lmc.Witness.Make (Check) in
  let dseeds = ints p "dseeds" in
  let max_transitions = int p "max_transitions" in
  let replays snapshot schedule =
    match W.replay ~init:snapshot schedule with
    | Some final -> Invariant.check Check.safety final <> None
    | None -> false
  in
  let untraced dseed =
    let strategy =
      U.O.Checker.Invariant_specific
        { abstract = Check.abstraction; conflict = Check.conflicts }
    in
    let dt, o = U.run ~dseed ~max_transitions ~strategy ~invariant:Check.safety () in
    (dt, U.facts ~dseed ~replays o, [])
  in
  (* One scope and one set of shim accumulators for the whole round,
     so counts and soundness percentiles pool over its hunts. *)
  let traced_hunt obs dseed =
    let strategy =
      T.O.Checker.Invariant_specific
        {
          abstract = Shim.timed_abstract Check.abstraction;
          conflict = Shim.timed_conflict Check.conflicts;
        }
    in
    let invariant = Shim.paxos_safety Check.safety in
    let dt, o =
      Shim.span ~parent:"workload" "online.hunt" (fun () ->
          T.run ~obs ~dseed ~max_transitions ~strategy ~invariant ())
    in
    (dt, T.facts ~dseed ~replays o, T.layers ~dt o)
  in
  let run ~traced =
    let obs = Obs.create () in
    Shim.reset_all ();
    (* Each hunt starts after a full collection, so its time does not
       carry the previous hunt's garbage. *)
    let hunts =
      List.map
        (fun d ->
          Gc.full_major ();
          if traced then traced_hunt obs d else untraced d)
        dseeds
    in
    let verdict_s = List.fold_left (fun acc (dt, _, _) -> acc +. dt) 0. hunts in
    let facts = List.map (fun (_, f, _) -> f) hunts in
    if not traced then { verdict_s; facts; layers = [] }
    else begin
      let summed = sum_layers (List.concat_map (fun (_, _, l) -> l) hunts) in
      let get n = Option.value ~default:0. (List.assoc_opt n summed) in
      let layers =
        List.filter
          (fun (n, _) ->
            n <> "revealing.system_states" && n <> "lmc.system_state_ns")
          summed
        @ [
            ( "lmc.system_state_ns",
              if get "revealing.system_states" = 0. then 0.
              else get "lmc.system_state_us" *. 1e3 /. get "revealing.system_states" );
          ]
      in
      { verdict_s; facts; layers = shim_layers () @ registry_layers obs @ layers }
    end
  in
  let fingerprint () =
    let module S = Sample.Make (Check) in
    let states_ns, _, combine_ns =
      S.fingerprint_ns ~seed (Protocol.initial_system (module Check))
    in
    [ ("fingerprint.of_value_ns", states_ns); ("fingerprint.combine_ns", combine_ns) ]
  in
  { run; fingerprint }

(* ----- main ----- *)

let setup name p ~seed =
  match name with
  | "lmc-explore" | "lmc-combine" -> lmc_workload p ~seed
  | "bdfs-global" -> bdfs_workload p ~seed
  | "paxos-hunt" -> hunt_workload p ~seed
  | _ -> failwith ("unknown workload " ^ name)

let print_line j =
  print_string (Json.to_string j);
  print_newline ()

let round_json traced r =
  Json.Obj
    [
      ("traced", Json.Bool traced);
      ("verdict_s", Json.Float r.verdict_s);
      ("facts", Json.List (List.map (fun f -> Json.Obj f) r.facts));
      ("layers", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) r.layers));
    ]

let () =
  let workload = ref "" and params = ref "" and seed = ref 0 in
  let trace = ref 0 and setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--params", Arg.Set_string params, "JSON workload parameters");
      ("--seed", Arg.Set_int seed, "N benchmark seed");
      ("--trace", Arg.Set_int trace, "0|1 run the traced round");
      ("--setup-only", Arg.Set setup_only, " exit before the first checker call");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --params JSON --seed N --trace 0|1";
  let p =
    match Json.of_string !params with
    | Ok p -> p
    | Error e -> failwith ("--params: " ^ e)
  in
  let origin = now () in
  let w = Shim.span "setup" (fun () -> setup !workload p ~seed:(abs !seed)) in
  if !setup_only then exit 0;
  let traced = !trace = 1 in
  (* The heap peak is read after the round, which starts from the fresh
     process heap; the runtime updates it when a major cycle ends. *)
  let heap_mb =
    Shim.span "workload" (fun () ->
        print_line (round_json traced (w.run ~traced));
        Gc.full_major ();
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1e6)
  in
  let extra =
    if not traced then []
    else
      [
        ( "fingerprint",
          Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) (w.fingerprint ())) );
        ("spans", Json.List (List.rev_map (Shim.span_json origin) !Shim.spans));
      ]
  in
  print_line
    (Json.Obj ([ ("end", Json.Bool true); ("peak_heap_mb", Json.Float heap_mb) ] @ extra))
