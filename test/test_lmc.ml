(* Tests for the local model checker — the paper's contribution. *)

let check = Alcotest.check
let fail = Alcotest.fail

module Tree = Protocols.Tree.Make (Protocols.Tree.Paper_config)
module L_tree = Lmc.Checker.Make (Tree)
module G_tree = Mc_global.Bdfs.Make (Tree)

module Ping2 = Protocols.Ping.Make (struct
  let num_servers = 2
end)

module L_ping = Lmc.Checker.Make (Ping2)
module G_ping = Mc_global.Bdfs.Make (Ping2)

module Chain4 = Protocols.Chain.Make (struct
  let length = 4
end)

module L_chain = Lmc.Checker.Make (Chain4)

let tree_init () = Dsm.Protocol.initial_system (module Tree)
let ping_init () = Dsm.Protocol.initial_system (module Ping2)

(* ---------- the primer (§2, Fig. 4) ---------- *)

let test_primer_numbers () =
  let r =
    L_tree.run L_tree.default_config ~strategy:L_tree.General
      ~invariant:Tree.received_implies_sent (tree_init ())
  in
  check Alcotest.bool "completed" true r.completed;
  (* Fig. 4: the four system states -----, s----, s---r and the
     invalid ----r *)
  check Alcotest.int "4 system states" 4 r.system_states_created;
  (* ----r violates received-implies-sent but is unsound *)
  check Alcotest.int "1 preliminary violation" 1 r.preliminary_violations;
  check Alcotest.int "1 rejection" 1 r.soundness_rejections;
  check Alcotest.bool "no sound violation" true (r.sound_violation = None);
  (* node stores: node 0 gains Sent, node 4 gains Received *)
  check Alcotest.(array int) "per-node states" [| 2; 1; 1; 1; 2 |]
    r.node_states;
  (* I+ holds the four tree messages and never shrinks *)
  check Alcotest.int "I+ size" 4 r.net_messages;
  check Alcotest.bool "fewer transitions than global" true
    (r.transitions < 16)

let test_primer_sound_violation_confirmed () =
  (* The reachable state s---r, flagged by a trigger invariant, must be
     confirmed by soundness verification with a replayable schedule. *)
  let trigger =
    Dsm.Invariant.make ~name:"received" (fun sys ->
        if sys.(4) = Protocols.Tree.Received && sys.(0) = Protocols.Tree.Sent
        then Some "target received"
        else None)
  in
  let r =
    L_tree.run L_tree.default_config ~strategy:L_tree.General
      ~invariant:trigger (tree_init ())
  in
  match r.sound_violation with
  | None -> fail "reachable violation not confirmed"
  | Some v ->
      check Alcotest.bool "schedule non-empty" true (v.schedule <> []);
      check Alcotest.int "schedule length = depth" v.system_depth
        (List.length v.schedule);
      (* replay the schedule on the global semantics *)
      let states = tree_init () in
      let net = ref Net.Multiset.empty in
      List.iter
        (fun step ->
          match step with
          | Dsm.Trace.Execute (n, a) ->
              let s', out = Tree.handle_action ~self:n states.(n) a in
              states.(n) <- s';
              net := Net.Multiset.add_list out !net
          | Dsm.Trace.Deliver env ->
              (match Net.Multiset.remove env !net with
              | Some net' -> net := net'
              | None -> fail "schedule consumes an unsent message");
              let node = env.Dsm.Envelope.dst in
              let s', out = Tree.handle_message ~self:node states.(node) env in
              states.(node) <- s';
              net := Net.Multiset.add_list out !net
          | Dsm.Trace.Crash n ->
              states.(n) <- Tree.on_recover ~self:n states.(n))
        v.schedule;
      check Alcotest.bool "replay reaches the reported state" true
        (states.(0) = v.system.(0) && states.(4) = v.system.(4))

(* ---------- toggles ---------- *)

let test_no_system_states () =
  let cfg = { L_tree.default_config with create_system_states = false } in
  let r =
    L_tree.run cfg ~strategy:L_tree.General
      ~invariant:Tree.received_implies_sent (tree_init ())
  in
  check Alcotest.int "no system states" 0 r.system_states_created;
  check Alcotest.int "no preliminary violations" 0 r.preliminary_violations;
  check Alcotest.bool "exploration unaffected" true (r.total_node_states = 7)

let test_no_soundness () =
  let cfg = { L_tree.default_config with verify_soundness = false } in
  let r =
    L_tree.run cfg ~strategy:L_tree.General
      ~invariant:Tree.received_implies_sent (tree_init ())
  in
  check Alcotest.int "preliminary still counted" 1 r.preliminary_violations;
  check Alcotest.int "no soundness calls" 0 r.soundness_calls;
  check Alcotest.bool "nothing reported" true (r.sound_violation = None)

(* Each newly visited node state is announced once, by the step record
   that reached it: the distinct (node, fp_after) pairs outside the
   roots are exactly the non-root states. *)
let test_observer_hook () =
  let sink, events = Obs.Sink.memory () in
  let obs = Obs.create ~recorder:(Obs.Trace.of_sink sink) () in
  let cfg = { L_tree.default_config with obs } in
  let init = tree_init () in
  let r =
    L_tree.run cfg ~strategy:L_tree.General
      ~invariant:Tree.received_implies_sent init
  in
  Obs.close obs;
  let roots =
    Array.to_list
      (Array.mapi
         (fun n s -> (n, Dsm.Fingerprint.to_hex (Dsm.Fingerprint.of_value s)))
         init)
  in
  let reached =
    List.filter_map
      (fun (e : Obs.Sink.event) ->
        match Obs.Trace.step_of_json (Dsm.Json.Obj e.fields) with
        | Ok st when not (List.mem (st.node, st.fp_after) roots) ->
            Some (st.node, st.fp_after)
        | _ -> None)
      (events ())
  in
  check Alcotest.int "step records reach every non-root state"
    (r.total_node_states - Array.length init)
    (List.length (List.sort_uniq compare reached))

let test_transition_budget () =
  let cfg = { L_ping.default_config with max_transitions = Some 2 } in
  let r =
    L_ping.run cfg ~strategy:L_ping.General ~invariant:Ping2.no_excess_pongs
      (ping_init ())
  in
  check Alcotest.bool "truncated" false r.completed

let test_depth_bound () =
  let cfg = { L_tree.default_config with max_depth = Some 1 } in
  let r =
    L_tree.run cfg ~strategy:L_tree.General
      ~invariant:Tree.received_implies_sent (tree_init ())
  in
  (* within one event per node: node 0 reaches Sent; node 4 reaches
     Received (the forwarded token is in I+ even though the forwarding
     nodes never changed state) *)
  check Alcotest.int "seven node states" 7 r.total_node_states;
  check Alcotest.bool "bounded depth" true (r.max_system_depth <= 1)

let test_local_action_bound () =
  let cfg = { L_ping.default_config with local_action_bound = Some 0 } in
  let r =
    L_ping.run cfg ~strategy:L_ping.General ~invariant:Ping2.no_excess_pongs
      (ping_init ())
  in
  (* no local actions allowed: nothing ever happens *)
  check Alcotest.int "only roots" 3 r.total_node_states;
  check Alcotest.int "no messages" 0 r.net_messages

let test_initial_snapshot_violation_is_sound () =
  (* A live state that already violates must be reported immediately
     with an empty schedule. *)
  let trigger =
    Dsm.Invariant.make ~name:"never" (fun _ -> Some "always fails")
  in
  let r =
    L_tree.run L_tree.default_config ~strategy:L_tree.General
      ~invariant:trigger (tree_init ())
  in
  match r.sound_violation with
  | Some v ->
      check Alcotest.int "empty schedule" 0 (List.length v.schedule);
      check Alcotest.int "depth 0" 0 v.system_depth
  | None -> fail "live violation not reported"

let test_deferred_soundness () =
  (* deferral decides the same verdicts as inline checking *)
  let trigger =
    Dsm.Invariant.make ~name:"received" (fun sys ->
        if sys.(4) = Protocols.Tree.Received && sys.(0) = Protocols.Tree.Sent
        then Some "target received"
        else None)
  in
  let run cfg =
    L_tree.run cfg ~strategy:L_tree.General ~invariant:trigger (tree_init ())
  in
  let inline = run L_tree.default_config in
  let deferred = run { L_tree.default_config with defer_soundness = true } in
  check Alcotest.bool "both confirm" true
    (inline.sound_violation <> None && deferred.sound_violation <> None);
  (* and the unreachable ----r stays rejected under deferral *)
  let deferred_neg =
    L_tree.run
      { L_tree.default_config with defer_soundness = true }
      ~strategy:L_tree.General ~invariant:Tree.received_implies_sent
      (tree_init ())
  in
  check Alcotest.bool "no false positive deferred" true
    (deferred_neg.sound_violation = None);
  check Alcotest.int "rejection counted" 1 deferred_neg.soundness_rejections

(* The snapshot is a single combination: LMC-OPT must create it once,
   however many of its root pairs conflict — as many system states as
   LMC-GEN creates at depth 0. *)
let test_opt_snapshot_created_once () =
  let module Paxos = Protocols.Paxos.Make (Protocols.Paxos.Bench_config) in
  let module L = Lmc.Checker.Make (Paxos) in
  let init = Dsm.Protocol.initial_system (module Paxos) in
  let config = { L.default_config with max_depth = Some 0 } in
  let run strategy = L.run config ~strategy ~invariant:Paxos.safety init in
  let everything_conflicts =
    L.Invariant_specific
      { abstract = (fun _ -> Some ()); conflict = (fun () () -> true) }
  in
  check Alcotest.int "GEN creates the snapshot once" 1
    (run L.General).system_states_created;
  check Alcotest.int "OPT creates the snapshot once" 1
    (run everything_conflicts).system_states_created

let test_deferred_cache_overflow_falls_back () =
  (* with a tiny cache, overflowing combos are verified inline, so
     nothing is lost *)
  let trigger =
    Dsm.Invariant.make ~name:"both-pongs" (fun sys ->
        if List.length sys.(0).Protocols.Ping.pongs >= 2 then Some "hit"
        else None)
  in
  let r =
    L_ping.run
      {
        L_ping.default_config with
        defer_soundness = true;
        max_rejected_cache = 1;
      }
      ~strategy:L_ping.General ~invariant:trigger (ping_init ())
  in
  check Alcotest.bool "still confirmed" true (r.sound_violation <> None)

(* A budget stop must not drop the deferred queue: the buggy §5.5
   Paxos from the WiDS snapshot trips [max_transitions] with
   preliminary violations queued, and every one of them is still
   judged on the way out — or a sound violation is reported.  At 2591
   transitions the queue has also overflowed into inline judgements. *)
let test_deferred_drained_on_budget () =
  let module B = Protocols.Paxos.Make (struct
    let num_nodes = 3
    let proposers = [ 0; 1; 2 ]
    let max_attempts = 2
    let max_index = 4
    let fresh_proposals = false
    let bug = Protocols.Paxos_core.Last_response_wins
  end) in
  let module L = Lmc.Checker.Make (B) in
  List.iter
    (fun budget ->
      let r =
        L.run
          {
            L.default_config with
            local_action_bound = Some 1;
            defer_soundness = true;
            max_transitions = Some budget;
          }
          ~strategy:
            (L.Invariant_specific
               { abstract = B.abstraction; conflict = B.conflicts })
          ~invariant:B.safety
          (Protocols.Scenarios.wids_snapshot (module B))
      in
      check Alcotest.bool "budget tripped" false r.completed;
      check Alcotest.bool "violations were queued" true
        (r.preliminary_violations > 0);
      if r.sound_violation = None then
        check Alcotest.int "every preliminary violation judged"
          r.preliminary_violations r.soundness_calls)
    [ 2590; 2591 ]

(* ---------- automatic pruning (the paper's future work) ---------- *)

let test_automatic_equals_handcrafted_on_paxos () =
  let module Paxos = Protocols.Paxos.Make (Protocols.Paxos.Bench_config) in
  let module L = Lmc.Checker.Make (Paxos) in
  let init = Dsm.Protocol.initial_system (module Paxos) in
  let run strategy =
    L.run L.default_config ~strategy ~invariant:Paxos.safety init
  in
  let hand =
    run
      (L.Invariant_specific
         { abstract = Paxos.abstraction; conflict = Paxos.conflicts })
  in
  let auto = run L.Automatic in
  check Alcotest.int "both create zero system states" 0
    (hand.system_states_created + auto.system_states_created);
  check Alcotest.bool "both quiet" true
    (hand.sound_violation = None && auto.sound_violation = None)

let test_automatic_prunes_nodewise () =
  let module RTB = Protocols.Randtree.Make (struct
    let num_nodes = 4
    let max_children = 2
    let max_attempts = 1
    let bug = Protocols.Randtree.Double_bookkeeping
  end) in
  let module L = Lmc.Checker.Make (RTB) in
  let init = Dsm.Protocol.initial_system (module RTB) in
  let gen =
    L.run L.default_config ~strategy:L.General ~invariant:RTB.disjointness
      init
  in
  let auto =
    L.run L.default_config ~strategy:L.Automatic ~invariant:RTB.disjointness
      init
  in
  check Alcotest.bool "both find the bug" true
    (gen.sound_violation <> None && auto.sound_violation <> None);
  check Alcotest.bool "automatic creates far fewer combinations" true
    (auto.system_states_created * 2 < gen.system_states_created);
  (* every automatic combination is a preliminary violation by
     construction *)
  check Alcotest.int "no wasted combinations" auto.system_states_created
    auto.preliminary_violations

let test_automatic_falls_back_for_opaque_invariants () =
  (* invariants built with [make] carry no shape: behave like General *)
  let trigger =
    Dsm.Invariant.make ~name:"both-pongs" (fun sys ->
        if List.length sys.(0).Protocols.Ping.pongs >= 2 then Some "hit"
        else None)
  in
  let auto =
    L_ping.run L_ping.default_config ~strategy:L_ping.Automatic
      ~invariant:trigger (ping_init ())
  in
  let gen =
    L_ping.run L_ping.default_config ~strategy:L_ping.General
      ~invariant:trigger (ping_init ())
  in
  check Alcotest.bool "same verdict" true
    ((auto.sound_violation <> None) = (gen.sound_violation <> None));
  check Alcotest.int "same combinations" gen.system_states_created
    auto.system_states_created

let test_automatic_initial_violation () =
  (* a live snapshot that already violates a pairwise invariant must be
     reported by the Automatic strategy immediately *)
  let disagree =
    Dsm.Invariant.for_all_pairs ~name:"states-agree" (fun _ a _ b ->
        if a <> b then Some "differ" else None)
  in
  let snapshot =
    [| Protocols.Tree.Sent; Protocols.Tree.Waiting; Protocols.Tree.Waiting;
       Protocols.Tree.Waiting; Protocols.Tree.Waiting |]
  in
  let r =
    L_tree.run L_tree.default_config ~strategy:L_tree.Automatic
      ~invariant:disagree snapshot
  in
  match r.sound_violation with
  | Some v -> check Alcotest.int "depth 0" 0 v.system_depth
  | None -> fail "live pairwise violation missed"

(* ---------- monotonic network ---------- *)

let test_network_monotone () =
  (* the chain delivers 3 messages; LMC's I+ retains all of them *)
  let r =
    L_chain.run L_chain.default_config ~strategy:L_chain.General
      ~invariant:Chain4.prefix_closed
      (Dsm.Protocol.initial_system (module Chain4))
  in
  check Alcotest.int "all messages retained" 3 r.net_messages;
  check Alcotest.bool "completed" true r.completed

(* ---------- cross-checker agreement ---------- *)

(* For a list of trigger invariants over ping, B-DFS and LMC must agree
   on reachability: B-DFS finds a violating state iff LMC confirms a
   sound violation. *)
let cross_check_ping name trigger expected_reachable =
  let g =
    G_ping.run G_ping.default_config ~invariant:trigger (ping_init ())
  in
  let l =
    L_ping.run L_ping.default_config ~strategy:L_ping.General
      ~invariant:trigger (ping_init ())
  in
  check Alcotest.bool (name ^ ": B-DFS reachability") expected_reachable
    (g.violation <> None);
  check Alcotest.bool (name ^ ": LMC agrees") expected_reachable
    (l.sound_violation <> None)

let test_cross_reachable_states () =
  cross_check_ping "one pong"
    (Dsm.Invariant.make ~name:"one-pong" (fun sys ->
         if List.length sys.(0).Protocols.Ping.pongs >= 1 then Some "hit"
         else None))
    true;
  cross_check_ping "both pongs"
    (Dsm.Invariant.make ~name:"two-pongs" (fun sys ->
         if List.length sys.(0).Protocols.Ping.pongs >= 2 then Some "hit"
         else None))
    true;
  cross_check_ping "server 1 before ping impossible"
    (Dsm.Invariant.make ~name:"served-unpinged" (fun sys ->
         if sys.(1).Protocols.Ping.served && not sys.(0).Protocols.Ping.pinged
         then Some "hit"
         else None))
    false;
  cross_check_ping "pong without serve impossible"
    (Dsm.Invariant.make ~name:"pong-unserved" (fun sys ->
         if
           List.mem 1 sys.(0).Protocols.Ping.pongs
           && not sys.(1).Protocols.Ping.served
         then Some "hit"
         else None))
    false

(* LMC also flags cross-node states that are unreachable and must
   reject all of them. *)
let test_unsound_combination_rejected () =
  (* server 2 served while server 1 unserved AND client has server 1's
     pong: the pong implies server 1 served — unreachable. *)
  let trigger =
    Dsm.Invariant.make ~name:"impossible-combo" (fun sys ->
        if
          List.mem 1 sys.(0).Protocols.Ping.pongs
          && not sys.(1).Protocols.Ping.served
        then Some "hit"
        else None)
  in
  let r =
    L_ping.run L_ping.default_config ~strategy:L_ping.General
      ~invariant:trigger (ping_init ())
  in
  check Alcotest.bool "combinations were flagged" true
    (r.preliminary_violations > 0);
  check Alcotest.int "all rejected" r.preliminary_violations
    r.soundness_rejections;
  check Alcotest.bool "none reported" true (r.sound_violation = None)

(* qcheck over tree shapes: the received-implies-sent invariant never
   produces a sound violation, on any topology. *)
let prop_tree_invariant_never_sound =
  QCheck.Test.make ~count:30 ~name:"received-implies-sent sound on all trees"
    QCheck.(pair (int_range 2 5) (int_range 0 1000))
    (fun (n, seed) ->
      (* random tree over n nodes: parent of i is a random j < i *)
      let rng = Sim.Rng.create ~seed in
      let children = Array.make n [] in
      for i = 1 to n - 1 do
        let parent = Sim.Rng.int rng i in
        children.(parent) <- children.(parent) @ [ i ]
      done;
      let module T = Protocols.Tree.Make (struct
        let children = children
        let origin = 0
        let target = n - 1
      end) in
      let module L = Lmc.Checker.Make (T) in
      let r =
        L.run L.default_config ~strategy:L.General
          ~invariant:T.received_implies_sent
          (Dsm.Protocol.initial_system (module T))
      in
      r.completed && r.sound_violation = None)

(* qcheck: B-DFS and LMC agree on chain reachability of the last hop *)
let prop_chain_agreement =
  QCheck.Test.make ~count:15 ~name:"chain: B-DFS and LMC agree on reachability"
    QCheck.(int_range 2 7)
    (fun n ->
      let module C = Protocols.Chain.Make (struct
        let length = n
      end) in
      let module G = Mc_global.Bdfs.Make (C) in
      let module L = Lmc.Checker.Make (C) in
      let trigger =
        Dsm.Invariant.make ~name:"last-received" (fun sys ->
            if sys.(n - 1).Protocols.Chain.received then Some "hit" else None)
      in
      let init () = Dsm.Protocol.initial_system (module C) in
      let g = G.run G.default_config ~invariant:trigger (init ()) in
      let l =
        L.run L.default_config ~strategy:L.General ~invariant:trigger (init ())
      in
      g.violation <> None && l.sound_violation <> None)

(* ---------- memory accounting ---------- *)

let test_lmc_memory_smaller_than_global () =
  (* On a space with real parallel network activity (Paxos, §5.3) LMC's
     node stores retain less than the global visited set.  On toy
     spaces constants dominate, so the comparison lives on Paxos. *)
  let module Paxos = Protocols.Paxos.Make (Protocols.Paxos.Bench_config) in
  let module G = Mc_global.Bdfs.Make (Paxos) in
  let module L = Lmc.Checker.Make (Paxos) in
  let init () = Dsm.Protocol.initial_system (module Paxos) in
  let g = G.run G.default_config ~invariant:Paxos.safety (init ()) in
  let l =
    L.run L.default_config
      ~strategy:
        (L.Invariant_specific
           { abstract = Paxos.abstraction; conflict = Paxos.conflicts })
      ~invariant:Paxos.safety (init ())
  in
  check Alcotest.bool "LMC retains less" true
    (l.retained_bytes < g.stats.retained_bytes);
  check Alcotest.bool "LMC executes fewer transitions" true
    (l.transitions < g.stats.transitions)

(* ---------- LMC-OPT partner index ---------- *)

(* Each [prelim] record's tuple of node-state fingerprints, in
   emission order. *)
let prelims events =
  List.filter_map
    (fun (e : Obs.Sink.event) ->
      match (List.assoc_opt "ev" e.fields, List.assoc_opt "tuple" e.fields) with
      | Some (Dsm.Json.String "prelim"), Some (Dsm.Json.List fps) ->
          Some
            (List.map (function Dsm.Json.String h -> h | _ -> fail "tuple") fps)
      | _ -> None)
    events

(* LMC-OPT finds a new state's partners through per-node key buckets;
   they must be exactly the entries the whole-store scan accepted, in
   store order.  The reference abstraction pairs every key with its
   state's fingerprint, so each bucket holds one entry and the checker
   walks every store in full, in store order: the old scan.  Both runs
   must agree on every counter, on the ordered stream of [prelim]
   tuples and on the witness. *)
module Opt_equiv (P : Dsm.Protocol.S) = struct
  module L = Lmc.Checker.Make (P)

  let counters (r : L.result) =
    Printf.sprintf
      "nodes=%s transitions=%d net=%d system=%d prelim=%d calls=%d \
       rejected=%d exhausted=%d drops=%d completed=%b depth=%d/%d"
      (String.concat ","
         (Array.to_list (Array.map string_of_int r.node_states)))
      r.transitions r.net_messages r.system_states_created
      r.preliminary_violations r.soundness_calls r.soundness_rejections
      r.soundness_budget_exhausted r.local_assert_drops r.completed
      r.max_system_depth r.max_node_depth

  let witness (r : L.result) =
    match r.sound_violation with
    | None -> "none"
    | Some v ->
        Dsm.Fingerprint.to_hex
          (Dsm.Fingerprint.of_value
             (v.violation.Dsm.Invariant.detail, v.schedule))

  (* The transition budget keeps 1Paxos's spaces small; it cuts both
     runs at the same transition. *)
  let run ~invariant ~abstract ~conflict =
    let sink, events = Obs.Sink.memory () in
    let obs = Obs.create ~recorder:(Obs.Trace.of_sink sink) () in
    let r =
      L.run
        {
          L.default_config with
          stop_on_violation = false;
          max_transitions = Some 20_000;
          obs;
        }
        ~strategy:(L.Invariant_specific { abstract; conflict })
        ~invariant
        (Dsm.Protocol.initial_system (module P))
    in
    Obs.close obs;
    (r, prelims (events ()))

  (* Returns the indexed run's [prelim] tuples. *)
  let agree ~name ~invariant ~abstract ~conflict =
    let r, p = run ~invariant ~abstract ~conflict in
    let r', p' =
      run ~invariant
        ~abstract:(fun s ->
          Option.map (fun k -> (Dsm.Fingerprint.of_value s, k)) (abstract s))
        ~conflict:(fun (_, k) (_, k') -> conflict k k')
    in
    let tag s = Printf.sprintf "%s: %s" name s in
    check Alcotest.string (tag "counters") (counters r') (counters r);
    check Alcotest.(list (list string)) (tag "prelim stream") p' p;
    check Alcotest.string (tag "witness") (witness r') (witness r);
    p
end

let test_opt_index_equals_scan () =
  List.iter
    (fun (module S : Protocols.Registry.SUBJECT) ->
      match S.opt with
      | None -> ()
      | Some (Protocols.Registry.Opt { abstract; conflict }) ->
          let module E = Opt_equiv (S.P) in
          ignore
            (E.agree ~name:S.name ~invariant:S.invariant ~abstract ~conflict))
    Protocols.Registry.subjects

(* Node 0 walks through chosen values K1 = [(1,2)], K2 = [(2,2)], K1,
   K2 (distinct states, interleaved keys), then tells node 1, which
   chooses K = [(1,1); (2,1)]: Paxos's [conflicts] puts K against both
   K1 and K2, so node 1's new state has two conflicting buckets on node
   0, whose union must be walked in store order. *)
module Two_index = struct
  let name = "two-index"
  let num_nodes = 2

  type state = int * (int * int) list  (* step, chosen (index, value) *)
  type message = unit
  type action = Advance

  let script = [| []; [ (1, 2) ]; [ (2, 2) ]; [ (1, 2) ]; [ (2, 2) ] |]
  let decided = [ (1, 1); (2, 1) ]
  let initial _ = (0, [])
  let handle_message ~self:_ _ _ = ((1, decided), [])

  let enabled_actions ~self (step, _) =
    if self = 0 && step < Array.length script - 1 then [ Advance ] else []

  let handle_action ~self:_ (step, _) Advance =
    let step = step + 1 in
    ( (step, script.(step)),
      if step = Array.length script - 1 then
        [ Dsm.Envelope.make ~src:0 ~dst:1 () ]
      else [] )

  let on_recover = Dsm.Protocol.default_on_recover
  let pp_state ppf (step, _) = Format.pp_print_int ppf step
  let pp_message ppf () = Format.pp_print_string ppf "decide"
  let pp_action ppf Advance = Format.pp_print_string ppf "advance"
end

let test_opt_merges_buckets_in_store_order () =
  let module Paxos = Protocols.Paxos.Make (Protocols.Paxos.Bench_config) in
  let module E = Opt_equiv (Two_index) in
  let invariant =
    Dsm.Invariant.make ~name:"agree" (fun sys ->
        if Paxos.conflicts (snd sys.(0)) (snd sys.(1)) then Some "disagree"
        else None)
  in
  let abstract (_, chosen) = if chosen = [] then None else Some chosen in
  let p =
    E.agree ~name:"two-index" ~invariant ~abstract ~conflict:Paxos.conflicts
  in
  let hex s = Dsm.Fingerprint.to_hex (Dsm.Fingerprint.of_value s) in
  check
    Alcotest.(list string)
    "node 0 partners in store order"
    (List.init 4 (fun i -> hex (i + 1, Two_index.script.(i + 1))))
    (List.map List.hd p)

(* One [conflict] call per distinct key of each other node: on the
   5.1 Paxos instance (243 node states) the count is bounded by keyed
   states x (nodes - 1) x distinct keys.  The distinct keys are counted
   over all nodes, a bound on any one node's. *)
let test_opt_conflict_calls_bounded () =
  let module Paxos = Protocols.Paxos.Make (Protocols.Paxos.Bench_config) in
  let module L = Lmc.Checker.Make (Paxos) in
  let keyed = ref 0 and keys = Hashtbl.create 8 and calls = ref 0 in
  let abstract s =
    let k = Paxos.abstraction s in
    Option.iter
      (fun k ->
        incr keyed;
        Hashtbl.replace keys k ())
      k;
    k
  in
  let conflict a b =
    incr calls;
    Paxos.conflicts a b
  in
  let r =
    L.run L.default_config
      ~strategy:(L.Invariant_specific { abstract; conflict })
      ~invariant:Paxos.safety
      (Dsm.Protocol.initial_system (module Paxos))
  in
  check Alcotest.int "node states" 243 r.total_node_states;
  check Alcotest.bool "some states are keyed" true (!keyed > 0);
  let bound = !keyed * (Paxos.num_nodes - 1) * Hashtbl.length keys in
  if !calls > bound then
    fail
      (Printf.sprintf "%d conflict calls > %d keyed x %d x %d keys" !calls
         !keyed (Paxos.num_nodes - 1) (Hashtbl.length keys))

(* ---------- cached feasibility summaries ---------- *)

(* Node 0 reaches s1 two ways: quietly (s0 -> s1), or loudly through s2,
   sending the m that moves node 1 to "got" (s0 -> s2 -> s1).  The
   loud route is found one round after (s1, got) is first judged, as a
   predecessor pointer into the known s1.  State encoding: node 0 is
   0/1/2 for s0/s1/s2, node 1 is 0/1 for idle/got. *)
module Detour = struct
  let name = "detour"
  let num_nodes = 2

  type state = int
  type message = unit
  type action = Quiet | Loud | Settle

  let initial _ = 0
  let handle_message ~self s _ = if self = 1 then (1, []) else (s, [])

  let enabled_actions ~self s =
    match (self, s) with
    | 0, 0 -> [ Quiet; Loud ]
    | 0, 2 -> [ Settle ]
    | _ -> []

  let handle_action ~self:_ _ = function
    | Quiet | Settle -> (1, [])
    | Loud -> (2, [ Dsm.Envelope.make ~src:0 ~dst:1 () ])

  let on_recover = Dsm.Protocol.default_on_recover
  let pp_state = Format.pp_print_int
  let pp_message ppf () = Format.pp_print_string ppf "m"

  let pp_action ppf a =
    Format.pp_print_string ppf
      (match a with Quiet -> "quiet" | Loud -> "loud" | Settle -> "settle")

  let quiet_got =
    Dsm.Invariant.make ~name:"quiet-got" (fun sys ->
        if sys.(0) = 1 && sys.(1) = 1 then Some "s1 with got" else None)
end

module L_detour = Lmc.Checker.Make (Detour)

(* (s1, got) is screened out when first judged: s1's closure produces
   no m.  Re-verification must see the summary the later pointer made
   stale, recompute it and confirm the tuple. *)
let test_stale_summary_recomputed () =
  let r =
    L_detour.run L_detour.default_config ~strategy:L_detour.General
      ~invariant:Detour.quiet_got
      (Dsm.Protocol.initial_system (module Detour))
  in
  check Alcotest.int "first judgement rejects" 1 r.soundness_rejections;
  check Alcotest.int "re-verified once" 2 r.soundness_calls;
  match r.sound_violation with
  | None -> fail "stale summary reused: (s1, got) never confirmed"
  | Some v ->
      check Alcotest.int "loud route witnessed" 3 (List.length v.schedule)

(* ---------- pinned-pair tuples judged exactly once ---------- *)

(* LMC-OPT and LMC-AUTO pin the new node state with one partner on
   node m and complete the tuple from the other stores, so a tuple
   holding partners on two nodes is built under both.  It must still
   be judged once.  A tuple is keyed by its per-slot node-state
   fingerprints.  OPT judges through the invariant, so a wrapping
   invariant sees every system it creates; every AUTO tuple holds a
   violating pair (or node), so AUTO's [prelim] records list them
   all.  Runs judge everything ([stop_on_violation = false]). *)
module Once (P : Dsm.Protocol.S) = struct
  module L = Lmc.Checker.Make (P)

  (* Soundness never feeds back into which tuples are built once
     nothing stops the run, so it is off: the searches would dominate. *)
  let config ?max_depth obs =
    {
      L.default_config with
      stop_on_violation = false;
      verify_soundness = false;
      max_depth;
      obs;
    }

  (* A note function and a count of the keys noted more than once. *)
  let repeats () =
    let seen = Hashtbl.create 4096 and dups = ref 0 in
    ( (fun k -> if Hashtbl.mem seen k then incr dups else Hashtbl.add seen k ()),
      fun () -> !dups )

  (* (system states created, repeated tuples) under [strategy]. *)
  let judged ?max_depth ~invariant strategy =
    let note, dups = repeats () in
    let calls = ref 0 in
    let wrapped =
      Dsm.Invariant.make ~name:(Dsm.Invariant.name invariant) (fun sys ->
          incr calls;
          note
            (Dsm.Fingerprint.combine
               (Array.to_list (Array.map Dsm.Fingerprint.of_value sys)));
          Option.map
            (fun (v : Dsm.Invariant.violation) -> v.detail)
            (Dsm.Invariant.check invariant sys))
    in
    let r =
      L.run (config ?max_depth Obs.null) ~strategy ~invariant:wrapped
        (Dsm.Protocol.initial_system (module P))
    in
    check Alcotest.int "one invariant call per system state"
      r.system_states_created !calls;
    (r.system_states_created, dups ())

  (* The same for [Automatic], from the [prelim] records. *)
  let automatic ?max_depth ~invariant () =
    let sink, events = Obs.Sink.memory () in
    let obs = Obs.create ~recorder:(Obs.Trace.of_sink sink) () in
    let r =
      L.run (config ?max_depth obs) ~strategy:L.Automatic ~invariant
        (Dsm.Protocol.initial_system (module P))
    in
    Obs.close obs;
    let tuples = prelims (events ()) in
    let note, dups = repeats () in
    List.iter (fun tuple -> note (String.concat "," tuple)) tuples;
    check Alcotest.int "every AUTO tuple is a preliminary violation"
      r.system_states_created (List.length tuples);
    (r.system_states_created, dups ())
end

(* Per subject: a system-depth bound and (OPT, AUTO) system states.
   A subject without an OPT abstraction runs GEN there, as
   [lmc check -c lmc-opt] does.  The RandTree bounds keep each run
   near 10^4 tuples; unbounded they judge ~5 x 10^5. *)
let once_registry =
  [
    ("randtree", Some 7, (107_707, 13_363));
    ("randtree-buggy", Some 7, (113_561, 13_485));
    ("ring-buggy", None, (352, 352));
    ("2pc-buggy", None, (101, 101));
  ]

(* Per node count, seeds 0.. of [Protocols.Synthetic] under a pairwise
   invariant that no two nodes have both moved; OPT keys each moved
   state by its value and lets every key conflict.  Each list holds
   (OPT, AUTO) system states. *)
let once_synthetic =
  [
    ( 3,
      [
        (1, 1); (0, 0); (112, 112); (0, 0); (1, 1); (2, 2); (112, 112);
        (0, 0); (0, 0); (12, 12); (0, 0); (0, 0); (112, 112); (112, 112);
        (2, 2); (0, 0); (112, 112); (0, 0); (0, 0); (0, 0)
      ] );
    ( 4,
      [
        (1, 1); (0, 0); (608, 608); (0, 0); (40, 40); (608, 608); (608, 608);
        (0, 0); (0, 0); (1, 1); (0, 0); (0, 0); (608, 608); (608, 608);
        (4, 4); (0, 0); (608, 608); (0, 0); (0, 0); (0, 0)
      ] );
  ]

let test_tuples_judged_once () =
  let expect name what created dups literal =
    check Alcotest.int (Printf.sprintf "%s %s: no tuple judged twice" name what)
      0 dups;
    check Alcotest.int (Printf.sprintf "%s %s: system states" name what)
      literal created
  in
  List.iter
    (fun (name, max_depth, (opt_n, auto_n)) ->
      let (module S : Protocols.Registry.SUBJECT) =
        Option.get (Protocols.Registry.find name)
      in
      let module O = Once (S.P) in
      let created, dups =
        match S.opt with
        | Some (Protocols.Registry.Opt { abstract; conflict }) ->
            O.judged ?max_depth ~invariant:S.invariant
              (O.L.Invariant_specific { abstract; conflict })
        | None -> O.judged ?max_depth ~invariant:S.invariant O.L.General
      in
      expect name "OPT" created dups opt_n;
      let created, dups = O.automatic ?max_depth ~invariant:S.invariant () in
      expect name "AUTO" created dups auto_n)
    once_registry;
  List.iter
    (fun (nodes, rows) ->
      List.iteri
        (fun seed (opt_n, auto_n) ->
          let module P = Protocols.Synthetic.Make (struct
            let seed = seed
            let num_nodes = nodes
            let max_state = 4
            let kinds = 2
          end) in
          let module O = Once (P) in
          let invariant =
            Dsm.Invariant.for_all_pairs ~name:"both-moved" (fun _ a _ b ->
                if a > 0 && b > 0 then Some "moved" else None)
          in
          let name = Printf.sprintf "synthetic-%d-%d" nodes seed in
          let created, dups =
            O.judged ~invariant
              (O.L.Invariant_specific
                 {
                   abstract = (fun s -> if s > 0 then Some s else None);
                   conflict = (fun _ _ -> true);
                 })
          in
          expect name "OPT" created dups opt_n;
          let created, dups = O.automatic ~invariant () in
          expect name "AUTO" created dups auto_n)
        rows)
    once_synthetic

(* ---------- the pinned-pair verdict: hoisted vs full check ---------- *)

(* LMC-OPT and LMC-AUTO judge a pinned pair once.  When it violates a
   pairwise invariant, every completion is a preliminary violation
   without a [check] call, and the violation's detail is rendered only
   when a record, a confirmation or the final pass reads it.  Each run
   is compared with a reference in which every completion runs the
   full check: the invariant is hidden behind [Dsm.Invariant.make],
   which has no pair shape.  Both must agree on
   every counter, on the [detail] of every [prelim] record and on the
   witness, untraced and traced, stopping at the first confirmation
   and judging everything in the deferred final pass.

   Hiding the shape would send AUTO itself down the general product,
   so AUTO's reference is OPT over [Tagged (P)]: each node state
   carries its node id, every state is its own key, and [conflict] is
   the pair predicate in [check]'s orientation — AUTO's partner choice,
   in AUTO's store order. *)
module Tagged (P : Dsm.Protocol.S) = struct
  let name = P.name
  let num_nodes = P.num_nodes

  type state = Dsm.Node_id.t * P.state
  type message = P.message
  type action = P.action

  let initial n = (n, P.initial n)

  let handle_message ~self (n, s) env =
    let s', out = P.handle_message ~self s env in
    ((n, s'), out)

  let enabled_actions ~self (_, s) = P.enabled_actions ~self s

  let handle_action ~self (n, s) a =
    let s', out = P.handle_action ~self s a in
    ((n, s'), out)

  let on_recover ~self (n, s) = (n, P.on_recover ~self s)
  let pp_state ppf (_, s) = P.pp_state ppf s
  let pp_message = P.pp_message
  let pp_action = P.pp_action
end

module Hoist (P : Dsm.Protocol.S) = struct
  module L = Lmc.Checker.Make (P)
  module T = Tagged (P)
  module LT = Lmc.Checker.Make (T)

  (* [inv] over the states [view] reads, with no pair shape *)
  let hidden inv view =
    Dsm.Invariant.make ~name:(Dsm.Invariant.name inv) (fun sys ->
        Option.map
          (fun (v : Dsm.Invariant.violation) -> v.detail)
          (Dsm.Invariant.check inv (Array.map view sys)))

  let details events =
    List.filter_map
      (fun (e : Obs.Sink.event) ->
        match (List.assoc_opt "ev" e.fields, List.assoc_opt "detail" e.fields) with
        | Some (Dsm.Json.String "prelim"), Some (Dsm.Json.String d) -> Some d
        | _ -> None)
      events

  (* [go] untraced, then traced: each run's outcome with the details
     of its [prelim] records (none untraced). *)
  let both go =
    let untraced = go Obs.null in
    let sink, events = Obs.Sink.memory () in
    let obs = Obs.create ~recorder:(Obs.Trace.of_sink sink) () in
    let traced = go obs in
    Obs.close obs;
    [ ("untraced", untraced, []); ("traced", traced, details (events ())) ]

  (* Outcomes are (system states, prelims, soundness calls,
     rejections) and the witness: violation, system state, schedule. *)
  let agree name ours reference =
    List.iter2
      (fun (mode, (counters, witness), ds) (_, (counters', witness'), ds') ->
        let what s = Printf.sprintf "%s %s: %s" name mode s in
        check
          Alcotest.(list int)
          (what "system states, prelims, soundness calls, rejections")
          counters' counters;
        check Alcotest.(list string) (what "prelim details") ds' ds;
        check Alcotest.bool (what "same witness") true (witness = witness'))
      ours reference

  (* [opt]: the subject's abstraction, if any; [pair]: the invariant's
     pair predicate in [check]'s orientation. *)
  let equivalent name ?max_depth ?max_transitions ?opt ~invariant ~pair () =
    let init = Dsm.Protocol.initial_system (module P) in
    List.iter
      (fun all ->
        let name = name ^ if all then " (all, deferred)" else " (first)" in
        let run strategy inv =
          both (fun obs ->
              let (r : L.result) =
                L.run
                  {
                    L.default_config with
                    max_depth;
                    max_transitions;
                    stop_on_violation = not all;
                    defer_soundness = all;
                    obs;
                  }
                  ~strategy ~invariant:inv init
              in
              ( [
                  r.system_states_created;
                  r.preliminary_violations;
                  r.soundness_calls;
                  r.soundness_rejections;
                ],
                Option.map
                  (fun (v : L.violation) -> (v.violation, v.system, v.schedule))
                  r.sound_violation ))
        in
        (match opt with
        | Some (Protocols.Registry.Opt { abstract; conflict }) ->
            let strategy = L.Invariant_specific { abstract; conflict } in
            agree (name ^ " OPT") (run strategy invariant)
              (run strategy (hidden invariant Fun.id))
        | None -> ());
        let reference =
          both (fun obs ->
              let (r : LT.result) =
                LT.run
                  {
                    LT.default_config with
                    max_depth;
                    max_transitions;
                    stop_on_violation = not all;
                    defer_soundness = all;
                    obs;
                  }
                  ~strategy:
                    (LT.Invariant_specific
                       {
                         abstract = Option.some;
                         conflict = (fun (i, a) (j, b) -> pair i a j b);
                       })
                  ~invariant:(hidden invariant snd)
                  (Dsm.Protocol.initial_system (module T))
              in
              ( [
                  r.system_states_created;
                  r.preliminary_violations;
                  r.soundness_calls;
                  r.soundness_rejections;
                ],
                Option.map
                  (fun (v : LT.violation) ->
                    (v.violation, Array.map snd v.system, v.schedule))
                  r.sound_violation ))
        in
        agree (name ^ " AUTO") (run L.Automatic invariant) reference)
      [ false; true ]
end

(* Per subject: a system-depth bound and a transition budget, keeping
   each run small.  Paxos, 1Paxos and the flood reach no preliminary
   violation from their initial states (the Paxos hoist is pinned by
   the golden hunt counters below); the others and the synthetic
   seeds do, under both orders of judgement. *)
let hoist_registry =
  [
    ("paxos-buggy", None, None);
    ("onepaxos-buggy", Some 8, Some 3_000);
    ("2pc-buggy", None, None);
    ("ring-buggy", None, None);
    ("mutex-buggy", None, None);
    ("sym-flood", Some 8, None);
  ]

let test_pinned_verdict_equivalence () =
  List.iter
    (fun (name, max_depth, max_transitions) ->
      let (module S : Protocols.Registry.SUBJECT) =
        Option.get (Protocols.Registry.find name)
      in
      let module H = Hoist (S.P) in
      (* every registry pair predicate is symmetric, so its witness is
         the pair predicate in either orientation *)
      let pair = Option.get (Dsm.Invariant.pairwise_witness S.invariant) in
      H.equivalent name ?max_depth ?max_transitions ?opt:S.opt
        ~invariant:S.invariant ~pair ())
    hoist_registry;
  (* Synthetic seeds under a symmetric predicate and an asymmetric one;
     OPT keys every moved state by its value and lets every key
     conflict. *)
  let preds =
    [
      ("both-moved", fun _ a _ b -> if a > 0 && b > 0 then Some "moved" else None);
      ( "decreasing",
        fun i a j b ->
          if a > b then Some (Printf.sprintf "N%d at %d > N%d at %d" i a j b)
          else None );
    ]
  in
  List.iter
    (fun seed ->
      let module P = Protocols.Synthetic.Make (struct
        let seed = seed
        let num_nodes = 3
        let max_state = 4
        let kinds = 2
      end) in
      let module H = Hoist (P) in
      List.iter
        (fun (pname, f) ->
          H.equivalent
            (Printf.sprintf "synthetic-%d %s" seed pname)
            ~opt:
              (Protocols.Registry.Opt
                 {
                   abstract = (fun s -> if s > 0 then Some s else None);
                   conflict = (fun _ _ -> true);
                 })
            ~invariant:(Dsm.Invariant.for_all_pairs ~name:pname f)
            ~pair:(fun i a j b ->
              (if i < j then f i a j b else f j b i a) <> None)
            ())
        preds)
    (List.init 24 Fun.id)

(* Counters captured before the feasibility summaries were cached:
   (confirmed, system states, preliminary violations, soundness calls,
   rejections, witness length or -1).  Rows: the 5.1 Paxos instance
   with the last-response bug under LMC-OPT, the six deployments of the
   5.5 hunt (the revealing restart), and synthetic protocols under an
   invariant with many unsound combinations, stopping at the first
   confirmation, judging everything, and deferred. *)
let golden =
  [
    ("paxos-buggy-lmc-opt", (false, 0, 0, 0, 0, -1));
    ("hunt-7", (true, 43973, 43973, 43973, 43972, 9));
    ("hunt-22", (true, 50654, 50654, 50654, 50653, 10));
    ("hunt-37", (true, 61886, 61886, 61886, 61885, 10));
    ("hunt-44", (true, 50654, 50654, 50654, 50653, 10));
    ("hunt-48", (true, 61886, 61886, 61886, 61885, 10));
    ("hunt-57", (true, 50654, 50654, 50654, 50653, 10));
    ("synthetic-0-stop", (false, 4, 0, 0, 0, -1));
    ("synthetic-0-all", (false, 4, 0, 0, 0, -1));
    ("synthetic-0-deferred", (false, 4, 0, 0, 0, -1));
    ("synthetic-1-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-1-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-1-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-2-stop", (true, 58, 31, 31, 30, 5));
    ("synthetic-2-all", (true, 125, 80, 158, 78, 4));
    ("synthetic-2-deferred", (true, 125, 80, 80, 78, 4));
    ("synthetic-3-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-3-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-3-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-4-stop", (false, 4, 0, 0, 0, -1));
    ("synthetic-4-all", (false, 4, 0, 0, 0, -1));
    ("synthetic-4-deferred", (false, 4, 0, 0, 0, -1));
    ("synthetic-5-stop", (false, 6, 0, 0, 0, -1));
    ("synthetic-5-all", (false, 6, 0, 0, 0, -1));
    ("synthetic-5-deferred", (false, 6, 0, 0, 0, -1));
    ("synthetic-6-stop", (true, 8, 2, 2, 1, 3));
    ("synthetic-6-all", (true, 125, 80, 153, 73, 7));
    ("synthetic-6-deferred", (true, 125, 80, 80, 65, 7));
    ("synthetic-7-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-7-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-7-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-8-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-8-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-8-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-9-stop", (true, 10, 2, 2, 1, 3));
    ("synthetic-9-all", (true, 18, 6, 11, 5, 3));
    ("synthetic-9-deferred", (true, 18, 6, 6, 5, 3));
    ("synthetic-10-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-10-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-10-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-11-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-11-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-11-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-12-stop", (false, 125, 80, 160, 80, -1));
    ("synthetic-12-all", (false, 125, 80, 160, 80, -1));
    ("synthetic-12-deferred", (false, 125, 80, 80, 80, -1));
    ("synthetic-13-stop", (false, 125, 80, 160, 80, -1));
    ("synthetic-13-all", (false, 125, 80, 160, 80, -1));
    ("synthetic-13-deferred", (false, 125, 80, 80, 80, -1));
    ("synthetic-14-stop", (false, 6, 0, 0, 0, -1));
    ("synthetic-14-all", (false, 6, 0, 0, 0, -1));
    ("synthetic-14-deferred", (false, 6, 0, 0, 0, -1));
    ("synthetic-15-stop", (false, 3, 0, 0, 0, -1));
    ("synthetic-15-all", (false, 3, 0, 0, 0, -1));
    ("synthetic-15-deferred", (false, 3, 0, 0, 0, -1));
    ("synthetic-16-stop", (false, 125, 80, 160, 80, -1));
    ("synthetic-16-all", (false, 125, 80, 160, 80, -1));
    ("synthetic-16-deferred", (false, 125, 80, 80, 80, -1));
    ("synthetic-17-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-17-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-17-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-18-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-18-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-18-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-19-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-19-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-19-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-20-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-20-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-20-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-21-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-21-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-21-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-22-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-22-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-22-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-23-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-23-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-23-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-24-stop", (false, 125, 80, 160, 80, -1));
    ("synthetic-24-all", (false, 125, 80, 160, 80, -1));
    ("synthetic-24-deferred", (false, 125, 80, 80, 80, -1));
    ("synthetic-25-stop", (true, 8, 2, 2, 1, 3));
    ("synthetic-25-all", (true, 125, 80, 153, 73, 7));
    ("synthetic-25-deferred", (true, 125, 80, 80, 69, 7));
    ("synthetic-26-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-26-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-26-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-27-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-27-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-27-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-28-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-28-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-28-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-29-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-29-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-29-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-30-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-30-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-30-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-31-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-31-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-31-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-32-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-32-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-32-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-33-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-33-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-33-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-34-stop", (false, 4, 0, 0, 0, -1));
    ("synthetic-34-all", (false, 4, 0, 0, 0, -1));
    ("synthetic-34-deferred", (false, 4, 0, 0, 0, -1));
    ("synthetic-35-stop", (false, 125, 80, 160, 80, -1));
    ("synthetic-35-all", (false, 125, 80, 160, 80, -1));
    ("synthetic-35-deferred", (false, 125, 80, 80, 80, -1));
    ("synthetic-36-stop", (false, 125, 80, 160, 80, -1));
    ("synthetic-36-all", (false, 125, 80, 160, 80, -1));
    ("synthetic-36-deferred", (false, 125, 80, 80, 80, -1));
    ("synthetic-37-stop", (true, 32, 12, 12, 11, 6));
    ("synthetic-37-all", (true, 125, 80, 157, 77, 8));
    ("synthetic-37-deferred", (true, 125, 80, 80, 77, 8));
    ("synthetic-38-stop", (false, 125, 80, 160, 80, -1));
    ("synthetic-38-all", (false, 125, 80, 160, 80, -1));
    ("synthetic-38-deferred", (false, 125, 80, 80, 80, -1));
    ("synthetic-39-stop", (false, 4, 0, 0, 0, -1));
    ("synthetic-39-all", (false, 4, 0, 0, 0, -1));
    ("synthetic-39-deferred", (false, 4, 0, 0, 0, -1));
    ("synthetic-40-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-40-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-40-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-41-stop", (true, 8, 2, 2, 1, 3));
    ("synthetic-41-all", (true, 125, 80, 156, 76, 4));
    ("synthetic-41-deferred", (true, 125, 80, 80, 76, 4));
    ("synthetic-42-stop", (true, 16, 6, 6, 5, 4));
    ("synthetic-42-all", (true, 125, 80, 152, 72, 7));
    ("synthetic-42-deferred", (true, 125, 80, 80, 60, 6));
    ("synthetic-43-stop", (true, 14, 3, 3, 2, 4));
    ("synthetic-43-all", (true, 24, 8, 15, 7, 4));
    ("synthetic-43-deferred", (true, 24, 8, 8, 7, 4));
    ("synthetic-44-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-44-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-44-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-45-stop", (false, 3, 0, 0, 0, -1));
    ("synthetic-45-all", (false, 3, 0, 0, 0, -1));
    ("synthetic-45-deferred", (false, 3, 0, 0, 0, -1));
    ("synthetic-46-stop", (false, 125, 80, 160, 80, -1));
    ("synthetic-46-all", (false, 125, 80, 160, 80, -1));
    ("synthetic-46-deferred", (false, 125, 80, 80, 80, -1));
    ("synthetic-47-stop", (false, 125, 80, 160, 80, -1));
    ("synthetic-47-all", (false, 125, 80, 160, 80, -1));
    ("synthetic-47-deferred", (false, 125, 80, 80, 80, -1));
    ("synthetic-48-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-48-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-48-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-49-stop", (false, 4, 0, 0, 0, -1));
    ("synthetic-49-all", (false, 4, 0, 0, 0, -1));
    ("synthetic-49-deferred", (false, 4, 0, 0, 0, -1));
    ("synthetic-50-stop", (true, 8, 2, 2, 1, 3));
    ("synthetic-50-all", (true, 8, 2, 3, 1, 3));
    ("synthetic-50-deferred", (true, 8, 2, 2, 1, 3));
    ("synthetic-51-stop", (true, 125, 80, 83, 80, 4));
    ("synthetic-51-all", (true, 125, 80, 160, 80, 5));
    ("synthetic-51-deferred", (true, 125, 80, 80, 78, 5));
    ("synthetic-52-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-52-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-52-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-53-stop", (false, 125, 80, 160, 80, -1));
    ("synthetic-53-all", (false, 125, 80, 160, 80, -1));
    ("synthetic-53-deferred", (false, 125, 80, 80, 80, -1));
    ("synthetic-54-stop", (false, 4, 0, 0, 0, -1));
    ("synthetic-54-all", (false, 4, 0, 0, 0, -1));
    ("synthetic-54-deferred", (false, 4, 0, 0, 0, -1));
    ("synthetic-55-stop", (true, 27, 8, 8, 7, 6));
    ("synthetic-55-all", (true, 125, 80, 158, 78, 7));
    ("synthetic-55-deferred", (true, 125, 80, 80, 78, 7));
    ("synthetic-56-stop", (false, 4, 0, 0, 0, -1));
    ("synthetic-56-all", (false, 4, 0, 0, 0, -1));
    ("synthetic-56-deferred", (false, 4, 0, 0, 0, -1));
    ("synthetic-57-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-57-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-57-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-58-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-58-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-58-deferred", (false, 2, 0, 0, 0, -1));
    ("synthetic-59-stop", (false, 2, 0, 0, 0, -1));
    ("synthetic-59-all", (false, 2, 0, 0, 0, -1));
    ("synthetic-59-deferred", (false, 2, 0, 0, 0, -1));
  ]

let golden_rows () =
  let wlen = function Some l -> List.length l | None -> -1 in
  let paxos_buggy_opt =
    let module B = Protocols.Paxos.Make (struct
      include Protocols.Paxos.Bench_config

      let bug = Protocols.Paxos_core.Last_response_wins
    end) in
    let module L = Lmc.Checker.Make (B) in
    let r =
      L.run L.default_config
        ~strategy:
          (L.Invariant_specific
             { abstract = B.abstraction; conflict = B.conflicts })
        ~invariant:B.safety
        (Dsm.Protocol.initial_system (module B))
    in
    ( "paxos-buggy-lmc-opt",
      ( r.sound_violation <> None,
        r.system_states_created,
        r.preliminary_violations,
        r.soundness_calls,
        r.soundness_rejections,
        wlen (Option.map (fun (v : L.violation) -> v.schedule) r.sound_violation)
      ) )
  in
  let hunt dseed =
    let module H (F : sig
      val fresh : bool
    end) =
    Protocols.Paxos.Make (struct
      let num_nodes = 3
      let proposers = [ 0; 1; 2 ]
      let max_attempts = 2
      let max_index = 16
      let fresh_proposals = F.fresh
      let bug = Protocols.Paxos_core.Last_response_wins
    end) in
    let module Live = H (struct
      let fresh = true
    end) in
    let module Check = H (struct
      let fresh = false
    end) in
    let module O = Online.Online_mc.Make (Live) (Check) in
    let module S = Sim.Live_sim.Make (Live) in
    let config =
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
          { O.Checker.default_config with max_transitions = Some 100_000 };
        action_bounds = [ 1; 2 ];
        steer = false;
        steer_scope = `Exact_action;
        supervisor = O.default_supervisor;
        store = None;
      }
    in
    let o =
      O.run config
        ~strategy:
          (O.Checker.Invariant_specific
             { abstract = Check.abstraction; conflict = Check.conflicts })
        ~invariant:Check.safety
    in
    let name = Printf.sprintf "hunt-%d" dseed in
    match o.report with
    | None -> (name, (false, 0, 0, 0, 0, -1))
    | Some r ->
        ( name,
          ( true,
            r.result.system_states_created,
            r.result.preliminary_violations,
            r.result.soundness_calls,
            r.result.soundness_rejections,
            List.length r.violation.schedule ) )
  in
  let synthetic seed =
    let module P = Protocols.Synthetic.Make (struct
      let seed = seed
      let num_nodes = 3
      let max_state = 4
      let kinds = 2
    end) in
    let module L = Lmc.Checker.Make (P) in
    let inv =
      Dsm.Invariant.make ~name:"both-moved" (fun sys ->
          if sys.(1) > 0 && sys.(2) > 0 then Some "moved" else None)
    in
    let go mode cfg =
      let r =
        L.run cfg ~strategy:L.General ~invariant:inv
          (Dsm.Protocol.initial_system (module P))
      in
      ( Printf.sprintf "synthetic-%d-%s" seed mode,
        ( r.sound_violation <> None,
          r.system_states_created,
          r.preliminary_violations,
          r.soundness_calls,
          r.soundness_rejections,
          wlen
            (Option.map (fun (v : L.violation) -> v.schedule) r.sound_violation)
        ) )
    in
    [
      go "stop" L.default_config;
      go "all" { L.default_config with stop_on_violation = false };
      go "deferred"
        {
          L.default_config with
          stop_on_violation = false;
          defer_soundness = true;
        };
    ]
  in
  (paxos_buggy_opt :: List.map hunt [ 7; 22; 37; 44; 48; 57 ])
  @ List.concat_map synthetic (List.init 60 Fun.id)

let test_golden_counters () =
  let show (name, (found, sss, prelim, calls, rej, wlen)) =
    Printf.sprintf
      "%s: confirmed=%b system=%d prelim=%d calls=%d rejected=%d witness=%d"
      name found sss prelim calls rej wlen
  in
  check
    Alcotest.(list string)
    "counters as before the summaries" (List.map show golden)
    (List.map show (golden_rows ()))

(* ---------- interning: same stores, same I+, same witnesses ---------- *)

(* Node states, I+ messages and events are interned per run.  However
   the tables behind them are built, every store must fill with the
   same states in the same order, I+ must list the same messages in
   the same order, and the run must count, retain and witness the
   same.  A run is read back from its step records: a node's store is
   its snapshot state, then each [fp_after] of that node on first
   sight; I+ is each produced message on first sight.  Each row folds
   the store sequences and the I+ sequence into one short fingerprint
   each, next to the counters and the witness's fingerprint. *)
module Intern (P : Dsm.Protocol.S) = struct
  module L = Lmc.Checker.Make (P)

  let short parts =
    String.sub
      (Dsm.Fingerprint.to_hex (Dsm.Fingerprint.combine parts))
      0 12

  let row ?max_transitions ?(stop_on_violation = true) ~invariant strategy =
    let sink, events = Obs.Sink.memory () in
    let obs = Obs.create ~recorder:(Obs.Trace.of_sink sink) () in
    let init = Dsm.Protocol.initial_system (module P) in
    let r =
      L.run
        { L.default_config with max_transitions; stop_on_violation; obs }
        ~strategy ~invariant init
    in
    Obs.close obs;
    let hex v = Dsm.Fingerprint.to_hex (Dsm.Fingerprint.of_value v) in
    let stores = Array.map (fun s -> [ hex s ]) init in
    let seen = Hashtbl.create 1024 and iplus = ref [] in
    let first key =
      (not (Hashtbl.mem seen key))
      && (Hashtbl.add seen key ();
          true)
    in
    Array.iteri (fun n s -> ignore (first (`State (n, hex s)))) init;
    List.iter
      (fun (e : Obs.Sink.event) ->
        let field k = List.assoc_opt k e.fields in
        match
          (field "ev", field "node", field "fp_after", field "produced")
        with
        | ( Some (Dsm.Json.String "step"),
            Some (Dsm.Json.Int n),
            Some (Dsm.Json.String h),
            Some (Dsm.Json.List produced) ) ->
            if first (`State (n, h)) then stores.(n) <- h :: stores.(n);
            List.iter
              (function
                | Dsm.Json.String m ->
                    if first (`Msg m) then iplus := m :: !iplus
                | _ -> fail "produced")
              produced
        | _ -> ())
      (events ());
    check Alcotest.(list int) "step records name every stored state"
      (Array.to_list r.node_states)
      (Array.to_list (Array.map List.length stores));
    check Alcotest.int "step records name every I+ message" r.net_messages
      (List.length !iplus);
    Printf.sprintf
      "transitions=%d net=%d retained=%d stores=%s iplus=%s witness=%s"
      r.transitions r.net_messages r.retained_bytes
      (short (Array.to_list (Array.map (fun s -> short (List.rev s)) stores)))
      (short (List.rev !iplus))
      (match r.sound_violation with
      | None -> "none"
      | Some v ->
          short
            [
              Dsm.Fingerprint.of_value
                (v.violation.Dsm.Invariant.detail, v.schedule);
            ])
end

(* Registry subjects under the transition budgets [test_oracle] gives
   them: [bounded] for the five it does not compare. *)
let intern_bounded =
  [ "onepaxos"; "onepaxos-buggy"; "swim"; "swim-nosuspect"; "swim-ackrace" ]

(* One row per run, or one ["gen=opt"] row when both runs read the
   same. *)
let intern_pair name gen opt =
  match opt with
  | Some o when o = gen -> [ name ^ " gen=opt: " ^ gen ]
  | Some o -> [ name ^ " gen: " ^ gen; name ^ " opt: " ^ o ]
  | None -> [ name ^ " gen: " ^ gen ]

let intern_rows () =
  let registry =
    List.concat_map
      (fun (module S : Protocols.Registry.SUBJECT) ->
        let module I = Intern (S.P) in
        let max_transitions =
          Some (if List.mem S.name intern_bounded then 300 else 50_000)
        in
        let row strategy =
          I.row ?max_transitions ~invariant:S.invariant strategy
        in
        intern_pair S.name (row I.L.General)
          (match S.opt with
          | Some (Protocols.Registry.Opt o) ->
              Some
                (row
                   (I.L.Invariant_specific
                      { abstract = o.abstract; conflict = o.conflict }))
          | None -> None))
      Protocols.Registry.subjects
  in
  (* Seeds run to the fixpoint: most violate within a step or two, and
     over a third have a one-step space. *)
  let synthetic seed =
    let module P = Protocols.Synthetic.Make (struct
      let seed = seed
      let num_nodes = 3
      let max_state = 4
      let kinds = 2
    end) in
    let module I = Intern (P) in
    let row =
      I.row ~stop_on_violation:false
        ~invariant:
          (Dsm.Invariant.for_all_pairs ~name:"both-moved" (fun _ a _ b ->
               if a > 0 && b > 0 then Some "moved" else None))
    in
    intern_pair
      (Printf.sprintf "synthetic-%d" seed)
      (row I.L.General)
      (Some
         (row
            (I.L.Invariant_specific
               {
                 abstract = (fun s -> if s > 0 then Some s else None);
                 conflict = (fun _ _ -> true);
               })))
  in
  registry @ List.concat_map synthetic (List.init 48 Fun.id)

(* Taken before node states, I+ messages and events moved onto
   [Dsm.Id_table]. *)
let intern_golden =
  [
    "tree gen: transitions=5 net=4 retained=1875 stores=4b0d1d73806f iplus=935cb5ab41b2 witness=none";
    "chain gen: transitions=8 net=7 retained=4360 stores=e20ef160d80c iplus=3c321a0a387b witness=none";
    "ping gen: transitions=14 net=4 retained=3136 stores=e54fa9f5e2e2 iplus=09ec231eef14 witness=none";
    "randtree gen: transitions=618 net=24 retained=31936 stores=c741a79e8769 iplus=4c4121e3e7a4 witness=none";
    "randtree-buggy gen: transitions=63 net=22 retained=15100 stores=5fee10a57831 iplus=dfa96f687537 witness=fafeb5c1716c";
    "paxos gen=opt: transitions=1062 net=18 retained=63373 stores=c407e9a3d35c iplus=d5e37b34111c witness=none";
    "paxos-buggy gen=opt: transitions=1062 net=18 retained=63373 stores=c407e9a3d35c iplus=d5e37b34111c witness=none";
    "onepaxos gen=opt: transitions=300 net=26 retained=37378 stores=c1a35d2f0ace iplus=6d8380bf3c7b witness=none";
    "onepaxos-buggy gen=opt: transitions=300 net=29 retained=36046 stores=4555b7a4e93f iplus=511960cf1ad8 witness=none";
    "2pc gen=opt: transitions=27 net=9 retained=5371 stores=5d705ec6c3e7 iplus=cddf31d84918 witness=none";
    "2pc-buggy gen=opt: transitions=12 net=12 retained=4799 stores=956d3b2c5a11 iplus=3e6480659fe4 witness=dc59ef5ab752";
    "ring gen=opt: transitions=31 net=8 retained=5690 stores=019f6773b274 iplus=dd5e3144d0af witness=none";
    "ring-buggy gen=opt: transitions=22 net=10 retained=5897 stores=652ef83ab54e iplus=bf9b11e02efa witness=db438f89c41c";
    "mutex gen=opt: transitions=17 net=3 retained=4580 stores=323251e47e96 iplus=70d26b57c9eb witness=none";
    "mutex-buggy gen: transitions=17 net=2 retained=4360 stores=b2cf9a5688ae iplus=83d12a1ee240 witness=d345478e3ed8";
    "mutex-buggy opt: transitions=17 net=2 retained=4360 stores=b2cf9a5688ae iplus=83d12a1ee240 witness=770d55e6959c";
    "abp gen: transitions=167 net=10 retained=13209 stores=4cdec4d63c34 iplus=8ecb246ab821 witness=none";
    "abp-buggy gen: transitions=8 net=4 retained=2755 stores=7a095b502054 iplus=1fdcf38b2b75 witness=757fcdf80efa";
    "pb-store gen: transitions=148 net=10 retained=11548 stores=4f3d27260db2 iplus=28841b8ed937 witness=none";
    "pb-store-buggy gen: transitions=147 net=10 retained=11192 stores=ec8df39ccfcc iplus=537eb7b36f32 witness=9daa2770d3ef";
    "pb-store-crash gen: transitions=148 net=10 retained=11540 stores=13ddd707b15a iplus=28841b8ed937 witness=none";
    "swim gen: transitions=300 net=36 retained=28244 stores=fd53bfdfeba6 iplus=e2369e8bfad1 witness=none";
    "swim-nosuspect gen: transitions=257 net=28 retained=22852 stores=597fb08618eb iplus=762c00c505f9 witness=8fc37ed39f69";
    "swim-ackrace gen: transitions=300 net=36 retained=28244 stores=fd53bfdfeba6 iplus=e2369e8bfad1 witness=none";
    "sym-flood gen: transitions=84 net=12 retained=10212 stores=9c0f618eaa2b iplus=2f0510ccf999 witness=none";
    "synthetic-0 gen=opt: transitions=2 net=1 retained=1057 stores=ab07dde39433 iplus=2ce97b613b30 witness=deebf69cc975";
    "synthetic-1 gen=opt: transitions=1 net=0 retained=596 stores=b672af2159d6 iplus=0772d39035d2 witness=none";
    "synthetic-2 gen=opt: transitions=670 net=136 retained=111083 stores=880294e3f7ec iplus=afa07d7a974b witness=bfe957b41a39";
    "synthetic-3 gen=opt: transitions=1 net=0 retained=596 stores=b672af2159d6 iplus=0772d39035d2 witness=none";
    "synthetic-4 gen=opt: transitions=4 net=2 retained=1195 stores=905ebfb90d57 iplus=24ce089b41ec witness=aeb21aa2ec96";
    "synthetic-5 gen=opt: transitions=4 net=2 retained=1520 stores=71ca02c9239a iplus=5a53945dcd5a witness=517bb9791320";
    "synthetic-6 gen=opt: transitions=654 net=134 retained=105505 stores=910e4ce425a9 iplus=6f3f595531bd witness=55dd85dca7b6";
    "synthetic-7 gen=opt: transitions=1 net=0 retained=596 stores=b672af2159d6 iplus=0772d39035d2 witness=none";
    "synthetic-8 gen=opt: transitions=1 net=0 retained=596 stores=b672af2159d6 iplus=0772d39035d2 witness=none";
    "synthetic-9 gen=opt: transitions=11 net=5 retained=2762 stores=f93165a01ccd iplus=0e0738932b44 witness=4e646a9eeeec";
    "synthetic-10 gen=opt: transitions=1 net=0 retained=596 stores=b672af2159d6 iplus=0772d39035d2 witness=none";
    "synthetic-11 gen=opt: transitions=1 net=0 retained=596 stores=b672af2159d6 iplus=0772d39035d2 witness=none";
    "synthetic-12 gen=opt: transitions=668 net=136 retained=109435 stores=72857004ab24 iplus=63abe86de6a5 witness=none";
    "synthetic-13 gen=opt: transitions=657 net=134 retained=108967 stores=47ce38e218c2 iplus=8f86835285af witness=none";
    "synthetic-14 gen=opt: transitions=10 net=4 retained=2208 stores=c5cbeb437eaa iplus=9e318f48a579 witness=3e73baa21c4d";
    "synthetic-15 gen=opt: transitions=3 net=1 retained=1057 stores=31fcf90830cf iplus=48d1ca8ffc3e witness=none";
    "synthetic-16 gen=opt: transitions=638 net=131 retained=100753 stores=d136d5b24c2e iplus=9f05f7e0e206 witness=224929151d91";
    "synthetic-17 gen=opt: transitions=1 net=0 retained=596 stores=b672af2159d6 iplus=0772d39035d2 witness=none";
    "synthetic-18 gen=opt: transitions=1 net=0 retained=596 stores=b672af2159d6 iplus=0772d39035d2 witness=none";
    "synthetic-19 gen=opt: transitions=1 net=0 retained=596 stores=b672af2159d6 iplus=0772d39035d2 witness=none";
    "synthetic-20 gen=opt: transitions=1 net=0 retained=596 stores=b672af2159d6 iplus=0772d39035d2 witness=none";
    "synthetic-21 gen=opt: transitions=1 net=0 retained=596 stores=b672af2159d6 iplus=0772d39035d2 witness=none";
    "synthetic-22 gen=opt: transitions=1 net=0 retained=596 stores=b672af2159d6 iplus=0772d39035d2 witness=none";
    "synthetic-23 gen=opt: transitions=1 net=0 retained=596 stores=b672af2159d6 iplus=0772d39035d2 witness=none";
    "synthetic-24 gen=opt: transitions=672 net=137 retained=110437 stores=a23e2e1d0bef iplus=1e6008964fb7 witness=none";
    "synthetic-25 gen=opt: transitions=685 net=140 retained=116955 stores=5f016b033ddd iplus=a21237c9aaca witness=c24e4a231d8e";
    "synthetic-26 gen=opt: transitions=1 net=0 retained=596 stores=b672af2159d6 iplus=0772d39035d2 witness=none";
    "synthetic-27 gen=opt: transitions=4 net=2 retained=886 stores=b672af2159d6 iplus=5a53945dcd5a witness=none";
    "synthetic-28 gen=opt: transitions=1 net=0 retained=596 stores=b672af2159d6 iplus=0772d39035d2 witness=none";
    "synthetic-29 gen=opt: transitions=2 net=1 retained=748 stores=b672af2159d6 iplus=36774a16c99e witness=none";
    "synthetic-30 gen=opt: transitions=1 net=0 retained=596 stores=b672af2159d6 iplus=0772d39035d2 witness=none";
    "synthetic-31 gen=opt: transitions=2 net=1 retained=748 stores=b672af2159d6 iplus=36774a16c99e witness=none";
    "synthetic-32 gen=opt: transitions=1 net=0 retained=596 stores=b672af2159d6 iplus=0772d39035d2 witness=none";
    "synthetic-33 gen=opt: transitions=3 net=1 retained=748 stores=b672af2159d6 iplus=773777a2e031 witness=none";
    "synthetic-34 gen=opt: transitions=2 net=1 retained=1057 stores=deaeb8f41b4b iplus=2ce97b613b30 witness=deebf69cc975";
    "synthetic-35 gen=opt: transitions=621 net=127 retained=101095 stores=80ddf47669e5 iplus=68a5ae6a422b witness=3e73baa21c4d";
    "synthetic-36 gen=opt: transitions=590 net=121 retained=96199 stores=5d182e02baf6 iplus=d8a7c293ff6b witness=6a4a8e4f8bb3";
    "synthetic-37 gen=opt: transitions=655 net=134 retained=109611 stores=8c427c92adde iplus=36ca2dca9daf witness=06fa2fbb55d2";
    "synthetic-38 gen=opt: transitions=619 net=127 retained=103023 stores=2e45e576c41c iplus=040071beef23 witness=accb3aae113b";
    "synthetic-39 gen=opt: transitions=2 net=1 retained=1057 stores=ab07dde39433 iplus=2ce97b613b30 witness=deebf69cc975";
    "synthetic-40 gen=opt: transitions=3 net=2 retained=886 stores=b672af2159d6 iplus=6017a0861e4a witness=none";
    "synthetic-41 gen=opt: transitions=657 net=134 retained=107579 stores=5ea35804ee9c iplus=406de00bdc38 witness=5ac0b6d74fb3";
    "synthetic-42 gen=opt: transitions=673 net=137 retained=113577 stores=0c9d583085a5 iplus=33f83164f788 witness=1299e54acf19";
    "synthetic-43 gen=opt: transitions=12 net=5 retained=3137 stores=482142981304 iplus=b42631dfad1f witness=2c8bfd96c6c7";
    "synthetic-44 gen=opt: transitions=1 net=0 retained=596 stores=b672af2159d6 iplus=0772d39035d2 witness=none";
    "synthetic-45 gen=opt: transitions=3 net=1 retained=1073 stores=1f56c4f30f5e iplus=48d1ca8ffc3e witness=none";
    "synthetic-46 gen=opt: transitions=620 net=127 retained=102767 stores=12404384c522 iplus=9c3bf790180a witness=104287db05cb";
    "synthetic-47 gen=opt: transitions=661 net=135 retained=105947 stores=07301d734649 iplus=6d8c15caa152 witness=none";
  ]

let test_intern_equivalence () =
  check
    Alcotest.(list string)
    "stores, I+, counters and witnesses as before" intern_golden
    (intern_rows ())

let () =
  Alcotest.run "lmc"
    [
      ( "primer",
        [
          Alcotest.test_case "Fig. 4 numbers" `Quick test_primer_numbers;
          Alcotest.test_case "sound confirmation" `Quick
            test_primer_sound_violation_confirmed;
        ] );
      ( "toggles",
        [
          Alcotest.test_case "no system states" `Quick test_no_system_states;
          Alcotest.test_case "no soundness" `Quick test_no_soundness;
          Alcotest.test_case "observer" `Quick test_observer_hook;
          Alcotest.test_case "transition budget" `Quick test_transition_budget;
          Alcotest.test_case "depth bound" `Quick test_depth_bound;
          Alcotest.test_case "local action bound" `Quick
            test_local_action_bound;
          Alcotest.test_case "live violation" `Quick
            test_initial_snapshot_violation_is_sound;
          Alcotest.test_case "deferred soundness" `Quick
            test_deferred_soundness;
          Alcotest.test_case "OPT snapshot created once" `Quick
            test_opt_snapshot_created_once;
          Alcotest.test_case "deferred overflow" `Quick
            test_deferred_cache_overflow_falls_back;
          Alcotest.test_case "deferred drained on budget" `Quick
            test_deferred_drained_on_budget;
        ] );
      ( "opt index",
        [
          Alcotest.test_case "buckets = whole-store scan" `Quick
            test_opt_index_equals_scan;
          Alcotest.test_case "merged buckets in store order" `Quick
            test_opt_merges_buckets_in_store_order;
          Alcotest.test_case "conflict calls bounded" `Quick
            test_opt_conflict_calls_bounded;
          Alcotest.test_case "pinned-pair tuples judged once" `Slow
            test_tuples_judged_once;
          Alcotest.test_case "pinned verdict = full check" `Quick
            test_pinned_verdict_equivalence;
        ] );
      ( "automatic",
        [
          Alcotest.test_case "matches handcrafted OPT" `Quick
            test_automatic_equals_handcrafted_on_paxos;
          Alcotest.test_case "prunes nodewise" `Quick
            test_automatic_prunes_nodewise;
          Alcotest.test_case "opaque fallback" `Quick
            test_automatic_falls_back_for_opaque_invariants;
          Alcotest.test_case "initial violation" `Quick
            test_automatic_initial_violation;
        ] );
      ( "network",
        [ Alcotest.test_case "monotone I+" `Quick test_network_monotone ] );
      ( "cross-checker",
        [
          Alcotest.test_case "reachability agreement" `Quick
            test_cross_reachable_states;
          Alcotest.test_case "unsound combos rejected" `Quick
            test_unsound_combination_rejected;
          QCheck_alcotest.to_alcotest prop_tree_invariant_never_sound;
          QCheck_alcotest.to_alcotest prop_chain_agreement;
        ] );
      ( "memory",
        [
          Alcotest.test_case "smaller than global" `Quick
            test_lmc_memory_smaller_than_global;
        ] );
      ( "summaries",
        [
          Alcotest.test_case "stale summary recomputed" `Quick
            test_stale_summary_recomputed;
          Alcotest.test_case "golden counters" `Slow test_golden_counters;
        ] );
      ( "interning",
        [
          Alcotest.test_case "stores, I+ and witnesses as before" `Slow
            test_intern_equivalence;
        ] );
    ]
