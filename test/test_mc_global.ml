(* Tests for the global model checker (B-DFS). *)

let check = Alcotest.check
let fail = Alcotest.fail

module Tree = Protocols.Tree.Make (Protocols.Tree.Paper_config)
module G_tree = Mc_global.Bdfs.Make (Tree)

module Chain4 = Protocols.Chain.Make (struct
  let length = 4
end)

module G_chain = Mc_global.Bdfs.Make (Chain4)

module Ping2 = Protocols.Ping.Make (struct
  let num_servers = 2
end)

module G_ping = Mc_global.Bdfs.Make (Ping2)

let tree_init () = Dsm.Protocol.initial_system (module Tree)

(* ---------- the primer space (Figs. 2-3) ---------- *)

let test_tree_explores_fully () =
  let o =
    G_tree.run G_tree.default_config ~invariant:Tree.received_implies_sent
      (tree_init ())
  in
  check Alcotest.bool "completed" true o.completed;
  check Alcotest.bool "no violation" true (o.violation = None);
  (* the paper's Fig. 3 space: 11 distinct global states (the figure
     draws 12 boxes, two of which are marked duplicates) *)
  check Alcotest.int "global states" 11 o.stats.global_states;
  check Alcotest.int "transitions" 16 o.stats.transitions;
  (* only three valid system states: -----, s----, s---r *)
  check Alcotest.int "system states" 3 o.stats.system_states;
  (* the longest run: start + 4 deliveries *)
  check Alcotest.int "max depth (5 events)" 5 o.stats.max_depth_reached

let test_tree_depth_bound () =
  let cfg = { G_tree.default_config with max_depth = Some 1 } in
  let o = G_tree.run cfg ~invariant:Tree.received_implies_sent (tree_init ()) in
  check Alcotest.bool "completed within bound" true o.completed;
  (* depth 1: initial state + the send *)
  check Alcotest.int "two states" 2 o.stats.global_states;
  check Alcotest.int "depth reached" 1 o.stats.max_depth_reached

let test_tree_depth_zero () =
  let cfg = { G_tree.default_config with max_depth = Some 0 } in
  let o = G_tree.run cfg ~invariant:Tree.received_implies_sent (tree_init ()) in
  check Alcotest.int "only the root" 1 o.stats.global_states;
  check Alcotest.int "no transitions" 0 o.stats.transitions

let test_transition_budget_truncates () =
  let cfg = { G_tree.default_config with max_transitions = Some 3 } in
  let o = G_tree.run cfg ~invariant:Tree.received_implies_sent (tree_init ()) in
  check Alcotest.bool "not completed" false o.completed

let test_violation_reported_with_trace () =
  (* Trigger invariant: "node 4 never receives" — violated on a real
     reachable state, so B-DFS reports it with a replayable trace. *)
  let trigger =
    Dsm.Invariant.make ~name:"never-received" (fun sys ->
        if sys.(4) = Protocols.Tree.Received then Some "received" else None)
  in
  let o = G_tree.run G_tree.default_config ~invariant:trigger (tree_init ()) in
  match o.violation with
  | None -> fail "expected violation"
  | Some v ->
      check Alcotest.bool "trace non-empty" true (v.trace <> []);
      check Alcotest.int "violating state depth" v.depth (List.length v.trace);
      (* replay the trace through the raw semantics *)
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
              | None -> fail "trace delivers a message not in flight");
              let node = env.Dsm.Envelope.dst in
              let s', out = Tree.handle_message ~self:node states.(node) env in
              states.(node) <- s';
              net := Net.Multiset.add_list out !net
          | Dsm.Trace.Crash n ->
              states.(n) <- Tree.on_recover ~self:n states.(n))
        v.trace;
      check Alcotest.bool "replayed state matches report" true
        (states = v.system);
      check Alcotest.bool "replayed state violates" true
        (Dsm.Invariant.check trigger states <> None)

let test_stop_on_violation_off () =
  let trigger =
    Dsm.Invariant.make ~name:"sent" (fun sys ->
        if sys.(0) = Protocols.Tree.Sent then Some "sent" else None)
  in
  let cfg = { G_tree.default_config with stop_on_violation = false } in
  let o = G_tree.run cfg ~invariant:trigger (tree_init ()) in
  check Alcotest.bool "violation still recorded" true (o.violation <> None);
  check Alcotest.bool "exploration continued to completion" true o.completed;
  check Alcotest.int "full space still explored" 11 o.stats.global_states

let test_initial_state_checked () =
  let trigger =
    Dsm.Invariant.make ~name:"never" (fun _ -> Some "always fails")
  in
  let o = G_tree.run G_tree.default_config ~invariant:trigger (tree_init ()) in
  match o.violation with
  | Some v -> check Alcotest.int "violation at depth 0" 0 v.depth
  | None -> fail "initial state not checked"

(* ---------- chain ---------- *)

let test_chain_space () =
  let o =
    G_chain.run G_chain.default_config ~invariant:Chain4.prefix_closed
      (Dsm.Protocol.initial_system (module Chain4))
  in
  check Alcotest.bool "completed" true o.completed;
  check Alcotest.bool "invariant holds" true (o.violation = None);
  (* strictly sequential: start + 3 hops = 4 events, 5 states *)
  check Alcotest.int "five states" 5 o.stats.global_states;
  check Alcotest.int "four transitions" 4 o.stats.transitions;
  check Alcotest.int "depth 4" 4 o.stats.max_depth_reached

(* ---------- ping ---------- *)

let test_ping_space () =
  let o =
    G_ping.run G_ping.default_config ~invariant:Ping2.no_excess_pongs
      (Dsm.Protocol.initial_system (module Ping2))
  in
  check Alcotest.bool "completed" true o.completed;
  check Alcotest.bool "invariant holds" true (o.violation = None);
  check Alcotest.bool "interleavings explored" true (o.stats.global_states > 5)

let test_ping_reachable_trigger_found () =
  let trigger =
    Dsm.Invariant.make ~name:"both-pongs" (fun sys ->
        if List.length sys.(0).Protocols.Ping.pongs >= 2 then Some "done"
        else None)
  in
  let o =
    G_ping.run G_ping.default_config ~invariant:trigger
      (Dsm.Protocol.initial_system (module Ping2))
  in
  check Alcotest.bool "reachable state found" true (o.violation <> None)

(* ---------- initial in-flight messages ---------- *)

let test_initial_net () =
  (* Seed the network with the token already addressed to the target:
     its delivery is then the only needed event. *)
  let trigger =
    Dsm.Invariant.make ~name:"received" (fun sys ->
        if sys.(4) = Protocols.Tree.Received then Some "received" else None)
  in
  let env = Dsm.Envelope.make ~src:1 ~dst:4 () in
  let o =
    G_tree.run G_tree.default_config ~invariant:trigger ~initial_net:[ env ]
      (tree_init ())
  in
  match o.violation with
  | Some v -> check Alcotest.int "one event suffices" 1 v.depth
  | None -> fail "seeded message not delivered"

(* ---------- memory accounting ---------- *)

let test_retained_bytes_grow () =
  let shallow =
    G_tree.run
      { G_tree.default_config with max_depth = Some 1 }
      ~invariant:Tree.received_implies_sent (tree_init ())
  in
  let deep =
    G_tree.run G_tree.default_config ~invariant:Tree.received_implies_sent
      (tree_init ())
  in
  check Alcotest.bool "more states, more bytes" true
    (deep.stats.retained_bytes > shallow.stats.retained_bytes)

(* ---------- qcheck: chain length scaling ---------- *)

let prop_chain_linear =
  QCheck.Test.make ~count:20 ~name:"chain space is linear in length"
    QCheck.(int_range 2 10)
    (fun n ->
      let module C = Protocols.Chain.Make (struct
        let length = n
      end) in
      let module G = Mc_global.Bdfs.Make (C) in
      let o =
        G.run G.default_config ~invariant:C.prefix_closed
          (Dsm.Protocol.initial_system (module C))
      in
      o.completed
      && o.stats.global_states = n + 1
      && o.stats.transitions = n
      && o.violation = None)

(* ---------- the store-backed layered frontier ----------

   With a [visited_store], B-DFS switches from the recursive DFS to
   layered frontier expansion.  On an exhausted space both searches
   visit the same set: same global and system states, same verdict. *)

let with_store f =
  let path = Filename.temp_file "lmc-bdfs" ".fps" in
  Sys.remove path;
  let set = Store.Fp_set.create path in
  Fun.protect
    ~finally:(fun () ->
      Store.Fp_set.close set;
      Sys.remove path)
    (fun () -> f set)

let prop_store_frontier_matches_dfs =
  QCheck.Test.make ~count:60 ~name:"store frontier agrees with DFS"
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 9999))
    (fun seed ->
      let module P = Protocols.Synthetic.Make (struct
        let seed = seed
        let num_nodes = 3
        let max_state = 4
        let kinds = 2
      end) in
      let module G = Mc_global.Bdfs.Make (P) in
      let cap = 3 + (seed mod 2) in
      let invariant =
        Dsm.Invariant.for_all_pairs ~name:"no-two-saturated"
          (fun _ s1 _ s2 ->
            if s1 >= cap && s2 >= cap then Some "both nodes saturated"
            else None)
      in
      let init = Dsm.Protocol.initial_system (module P) in
      let config = { G.default_config with stop_on_violation = false } in
      let facts (o : G.outcome) =
        ( o.violation <> None,
          o.stats.global_states,
          o.stats.system_states,
          o.completed )
      in
      let dfs = G.run config ~invariant init in
      let frontier =
        with_store (fun set ->
            G.run { config with visited_store = Some set } ~invariant init)
      in
      facts dfs = facts frontier)

(* ---------- symmetry reduction ----------

   On the genuinely S3-symmetric flood fixture, canonical-fingerprint
   dedup must cut the explored global states (toward the |S_3| = 6
   bound) without changing the verdict, and the store-backed layered
   frontier must agree exactly with the DFS on the reduced space.  The
   audit is run first — the checker only ever sees a licensed group. *)

let test_bdfs_symmetry_reduction () =
  let module F = Protocols.Lint_fixtures.Sym_flood in
  let module G = Mc_global.Bdfs.Make (F) in
  let module Y = Lint.Symmetry.Make (F) in
  let gap =
    Dsm.Invariant.for_all_pairs ~name:"bounded-progress-gap" (fun _ a _ b ->
        if abs (a - b) > 100 then Some "progress gap" else None)
  in
  let y = Y.run ~config:{ Y.default_config with invariant = Some gap } () in
  check Alcotest.string "audit licenses the full group" "full"
    (Dsm.Symmetry.name y.Y.verdict.Y.commutation.Dsm.Symmetry.group);
  let go ?visited_store symmetry =
    G.run
      { G.default_config with max_depth = Some 6; visited_store; symmetry }
      ~invariant:gap
      (Dsm.Protocol.initial_system (module F))
  in
  let off = go (Dsm.Symmetry.id_spec ~degree:3) in
  let on = go y.Y.verdict.Y.commutation in
  check Alcotest.bool "off completed" true off.completed;
  check Alcotest.bool "on completed" true on.completed;
  check Alcotest.bool "off clean" true (off.violation = None);
  check Alcotest.bool "on clean" true (on.violation = None);
  check Alcotest.int "no orbit hits when off" 0 off.stats.orbit_hits;
  check Alcotest.bool "orbit hits counted" true (on.stats.orbit_hits > 0);
  check Alcotest.bool "global states cut >= 2x" true
    (off.stats.global_states >= 2 * on.stats.global_states);
  check Alcotest.bool "transitions cut" true
    (off.stats.transitions > on.stats.transitions);
  (* layered frontier expansion agrees with the DFS on the reduced
     space *)
  let on2 =
    with_store (fun set ->
        go ~visited_store:set y.Y.verdict.Y.commutation)
  in
  check Alcotest.int "frontier: same states" on.stats.global_states
    on2.stats.global_states;
  check Alcotest.int "frontier: same transitions" on.stats.transitions
    on2.stats.transitions;
  check Alcotest.bool "frontier: clean" true (on2.violation = None)

(* ---------- the transition budget is exact ----------

   Both searches check [max_transitions] before each transition, so a
   truncated run executes exactly the budget. *)

let test_transition_budget_exact () =
  let (module S) = Option.get (Protocols.Registry.find "paxos") in
  let module G = Mc_global.Bdfs.Make (S.P) in
  let go ?visited_store limit =
    G.run
      { G.default_config with max_transitions = Some limit; visited_store }
      ~invariant:S.invariant
      (Dsm.Protocol.initial_system (module S.P))
  in
  List.iter
    (fun limit ->
      let dfs = go limit in
      let layered = with_store (fun set -> go ~visited_store:set limit) in
      List.iter
        (fun (mode, (o : G.outcome)) ->
          check Alcotest.int
            (Printf.sprintf "%s: %d transitions" mode limit)
            limit o.stats.transitions;
          check Alcotest.bool (mode ^ ": truncated") false o.completed)
        [ ("dfs", dfs); ("layered", layered) ])
    [ 1000; 5000; 20000 ]

(* ---------- the memoised checker against re-execution ----------

   [Ref] is B-DFS with the memo and the key taken out: the same
   recursive DFS (depth-keyed table, re-expansion on a shallower
   revisit, parent links at first visits) over plain global states
   whose successors re-run every handler over a [Net.Multiset] network,
   deduplicating on the structural value [(nodes, bindings, crashes)].
   Alongside each reference state it carries the checker's interned
   state for the same path, and at every expansion it requires the
   memoised successors ([G.successors]) to take the same steps in the
   same order, send the same envelopes, reach the same states and
   carry the key recomputed from scratch.  At every first visit it also
   checks the key of every image under [spec] against the key of that
   image built as a fresh state. *)

module Ref (P : Dsm.Protocol.S) = struct
  module G = Mc_global.Bdfs.Make (P)

  type global = {
    nodes : P.state array;
    net : P.message Dsm.Envelope.t Net.Multiset.t;
    crashes : int array;
  }

  module H = Hashtbl.Make (struct
    type t = P.state array * (P.message Dsm.Envelope.t * int) list * int array

    let equal = ( = )
    let hash = Hashtbl.hash_param 256 1024
  end)

  let fp = Alcotest.testable Dsm.Fingerprint.pp Dsm.Fingerprint.equal
  let structural g = (g.nodes, Net.Multiset.bindings g.net, g.crashes)

  let key g =
    G.key_of ~nodes:g.nodes ~bindings:(Net.Multiset.bindings g.net)
      ~crashes:g.crashes

  let with_node g n state' =
    let nodes = Array.copy g.nodes in
    nodes.(n) <- state';
    { g with nodes }

  (* Every handler re-executed on every global state: one delivery per
     distinct in-flight message, one execution per enabled internal
     action, then one crash-recovery per node under budget whose
     recovered state differs from its current one.  A handler raising
     [Local_assert] disables its transition. *)
  let successors ~crash_budget g =
    let deliveries =
      List.filter_map
        (fun (env, _) ->
          let node = env.Dsm.Envelope.dst in
          match P.handle_message ~self:node g.nodes.(node) env with
          | exception Dsm.Protocol.Local_assert _ -> None
          | state', out ->
              let net =
                match Net.Multiset.remove env g.net with
                | Some net -> Net.Multiset.add_list out net
                | None -> assert false
              in
              Some
                ( Dsm.Trace.Deliver env,
                  { (with_node g node state') with net },
                  out ))
        (Net.Multiset.bindings g.net)
    in
    let actions =
      List.concat_map
        (fun n ->
          List.filter_map
            (fun action ->
              match P.handle_action ~self:n g.nodes.(n) action with
              | exception Dsm.Protocol.Local_assert _ -> None
              | state', out ->
                  Some
                    ( Dsm.Trace.Execute (n, action),
                      {
                        (with_node g n state') with
                        net = Net.Multiset.add_list out g.net;
                      },
                      out ))
            (P.enabled_actions ~self:n g.nodes.(n)))
        (Dsm.Node_id.all P.num_nodes)
    in
    let crashes =
      if crash_budget <= 0 then []
      else
        List.filter_map
          (fun n ->
            if g.crashes.(n) >= crash_budget then None
            else
              let state' = P.on_recover ~self:n g.nodes.(n) in
              if
                Dsm.Fingerprint.equal
                  (Dsm.Fingerprint.of_value state')
                  (Dsm.Fingerprint.of_value g.nodes.(n))
              then None
              else begin
                let crashes = Array.copy g.crashes in
                crashes.(n) <- crashes.(n) + 1;
                Some
                  ( Dsm.Trace.Crash n,
                    { (with_node g n state') with crashes },
                    [] )
              end)
          (Dsm.Node_id.all P.num_nodes)
    in
    deliveries @ actions @ crashes

  let check_same sp r (m : G.global) =
    check fp "memoised key = key from scratch" (key r) (G.key m);
    check Alcotest.bool "memoised state = re-executed state" true
      (structural r = (G.nodes sp m, G.bindings sp m, G.crashes m))

  let check_successors sp ~crash_budget r m =
    let rs = successors ~crash_budget r
    and ms = G.successors sp ~crash_budget m in
    check Alcotest.int "as many successors" (List.length rs) (List.length ms);
    List.iter2
      (fun (step, r', out) (step', m', out') ->
        check Alcotest.bool "same step, same order" true (step = step');
        check Alcotest.bool "same sent envelopes" true (out = out');
        check_same sp r' m')
      rs ms;
    List.map2 (fun (step, r', _) (_, m', _) -> (step, r', m')) rs ms

  let check_images sp spec r (m : G.global) =
    if Array.for_all (( = ) 0) r.crashes then
      check fp "B-DFS key = Fingerprint.product"
        (Dsm.Fingerprint.product r.nodes (Net.Multiset.bindings r.net))
        (G.key m);
    List.iter
      (fun p ->
        let nodes, envs =
          Dsm.Symmetry.permute_global spec p r.nodes
            (Net.Multiset.to_list r.net)
        in
        let image =
          G.make_global sp nodes envs (Dsm.Symmetry.permute_slots p r.crashes)
        in
        check fp "image key" (G.key image) (G.permuted_key sp p m))
      spec.Dsm.Symmetry.group.Dsm.Symmetry.elements

  (* ((transitions, global states, system states), first witness) *)
  let run ?(max_depth = max_int) ?(crash_budget = 0) ?(initial_net = [])
      ?(spec = Dsm.Symmetry.id_spec ~degree:P.num_nodes) ~invariant init =
    let sp = G.create_space spec in
    let visited = H.create 4096 and systems = Hashtbl.create 1024 in
    let parents = H.create 4096 in
    let transitions = ref 0 and witness = ref None in
    let rec trace k acc =
      match H.find_opt parents k with
      | None -> acc
      | Some (parent, step) -> trace parent (step :: acc)
    in
    let visit r m depth =
      let k = structural r in
      H.replace visited k depth;
      Hashtbl.replace systems r.nodes ();
      if !witness = None && Dsm.Invariant.check invariant r.nodes <> None then
        witness := Some (trace k []);
      check_images sp spec r m
    in
    let rec explore r m depth =
      if depth < max_depth then
        List.iter
          (fun (step, r', m') ->
            incr transitions;
            let k = structural r' in
            match H.find_opt visited k with
            | Some d when depth + 1 >= d -> ()
            | Some _ ->
                H.replace visited k (depth + 1);
                explore r' m' (depth + 1)
            | None ->
                H.replace parents k (structural r, step);
                visit r' m' (depth + 1);
                explore r' m' (depth + 1))
          (check_successors sp ~crash_budget r m)
    in
    let r =
      {
        nodes = Array.copy init;
        net = Net.Multiset.of_list initial_net;
        crashes = Array.make P.num_nodes 0;
      }
    in
    let m = G.make_global sp init initial_net r.crashes in
    check_same sp r m;
    visit r m 0;
    explore r m 0;
    ((!transitions, H.length visited, Hashtbl.length systems), !witness)

  (* (checker facts, reference facts) over the same space.  The
     reference runs first: a memo that goes wrong fails its per-state
     checks before the checker can chase a wrong space unboundedly. *)
  let both ?max_depth ?(crash_budget = 0) ?(initial_net = []) ?spec
      ~invariant init =
    let reference =
      run ?max_depth ~crash_budget ~initial_net ?spec ~invariant init
    in
    let o =
      G.run
        {
          G.default_config with
          max_depth;
          crash_budget;
          stop_on_violation = false;
        }
        ~invariant ~initial_net init
    in
    check Alcotest.bool "checker completed" true o.completed;
    ( ( (o.stats.transitions, o.stats.global_states, o.stats.system_states),
        Option.map (fun (v : G.violation) -> v.trace) o.violation ),
      reference )
end

let check_agrees name ((counts, witness), (counts', witness')) =
  check
    Alcotest.(triple int int int)
    (name ^ ": checker = re-executing reference")
    counts' counts;
  check Alcotest.bool (name ^ ": same verdict") (witness' <> None)
    (witness <> None);
  check Alcotest.bool (name ^ ": same witness") true (witness = witness')

let prop_key_matches_reference_synthetic =
  QCheck.Test.make ~count:40 ~name:"key dedup = structural dedup (synthetic)"
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 9999))
    (fun seed ->
      let module P = Protocols.Synthetic.Make (struct
        let seed = seed
        let num_nodes = 3
        let max_state = 4
        let kinds = 2
      end) in
      let module R = Ref (P) in
      let invariant =
        Dsm.Invariant.for_all_pairs ~name:"no-two-saturated" (fun _ s1 _ s2 ->
            if s1 >= 3 && s2 >= 3 then Some "both nodes saturated" else None)
      in
      let checker, reference =
        R.both
          ~spec:(Dsm.Symmetry.with_id_maps (Dsm.Symmetry.full 3))
          ~invariant
          (Dsm.Protocol.initial_system (module P))
      in
      checker = reference)

(* Every registry subject to a small depth (crash-recovery subjects
   with one crash per node), the tree primer from a seeded network,
   and the audited S3 flood's images. *)
let test_key_matches_reference_registry () =
  List.iter
    (fun (module S : Protocols.Registry.SUBJECT) ->
      let module R = Ref (S.P) in
      let init = Dsm.Protocol.initial_system (module S.P) in
      let crash_budget =
        if S.name = "pb-store-crash" || S.name = "swim-ackrace" then 1 else 0
      in
      let spec =
        Dsm.Symmetry.with_id_maps (Dsm.Symmetry.rotations S.P.num_nodes)
      in
      check_agrees S.name
        (R.both ~max_depth:6 ~crash_budget ~spec ~invariant:S.invariant init))
    Protocols.Registry.subjects;
  let module R = Ref (Tree) in
  check_agrees "tree, initial net"
    (R.both ~invariant:Tree.received_implies_sent
       ~initial_net:
         [
           Dsm.Envelope.make ~src:0 ~dst:1 ();
           Dsm.Envelope.make ~src:1 ~dst:4 ();
         ]
       (tree_init ()));
  let module F = Protocols.Lint_fixtures.Sym_flood in
  let module Y = Lint.Symmetry.Make (F) in
  let module RF = Ref (F) in
  let gap =
    Dsm.Invariant.for_all_pairs ~name:"bounded-progress-gap" (fun _ a _ b ->
        if abs (a - b) > 100 then Some "progress gap" else None)
  in
  let y = Y.run ~config:{ Y.default_config with invariant = Some gap } () in
  check_agrees "sym-flood, audited images"
    (RF.both ~max_depth:8 ~spec:y.Y.verdict.Y.commutation ~invariant:gap
       (Dsm.Protocol.initial_system (module F)))

let () =
  Alcotest.run "mc_global"
    [
      ( "tree",
        [
          Alcotest.test_case "full exploration" `Quick test_tree_explores_fully;
          Alcotest.test_case "depth bound" `Quick test_tree_depth_bound;
          Alcotest.test_case "depth zero" `Quick test_tree_depth_zero;
          Alcotest.test_case "transition budget" `Quick
            test_transition_budget_truncates;
          Alcotest.test_case "violation trace replays" `Quick
            test_violation_reported_with_trace;
          Alcotest.test_case "stop_on_violation off" `Quick
            test_stop_on_violation_off;
          Alcotest.test_case "initial state checked" `Quick
            test_initial_state_checked;
        ] );
      ( "chain",
        [
          Alcotest.test_case "sequential space" `Quick test_chain_space;
          QCheck_alcotest.to_alcotest prop_chain_linear;
        ] );
      ( "ping",
        [
          Alcotest.test_case "space" `Quick test_ping_space;
          Alcotest.test_case "reachable trigger" `Quick
            test_ping_reachable_trigger_found;
        ] );
      ( "features",
        [
          Alcotest.test_case "initial net" `Quick test_initial_net;
          Alcotest.test_case "memory accounting" `Quick
            test_retained_bytes_grow;
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "sym-flood reduction" `Quick
            test_bdfs_symmetry_reduction;
        ] );
      ( "frontier",
        [ QCheck_alcotest.to_alcotest prop_store_frontier_matches_dfs ] );
      ( "budget",
        [
          Alcotest.test_case "max_transitions is exact" `Quick
            test_transition_budget_exact;
        ] );
      ( "key",
        [
          QCheck_alcotest.to_alcotest prop_key_matches_reference_synthetic;
          Alcotest.test_case "registry, initial net, images" `Quick
            test_key_matches_reference_registry;
        ] );
    ]
