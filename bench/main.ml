(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (§5), plus the ablations DESIGN.md calls out and
   the overhead bars of the observability and fault layers.

   Usage: dune exec bench/main.exe -- [--quick] [--only SECTION]
     --quick  trims time budgets and depth caps (CI-sized run)
     --only   run a single section (see `--help' for the list)

   The bench prints tables and writes no file; perfbench/ is the
   benchmark of record.  It exits 1 when a gated timing bar fails
   (full-telemetry overhead, inert-churn throughput).  The facts the
   tables illustrate — B-DFS/LMC verdict agreement, B-DFS symmetry
   parity, inert-plan trajectories — are checked by the unit tests.

   Absolute numbers differ from the paper's 2006-era Pentium 4; the
   shapes — who wins, by what factor, where the explosion bites — are
   the reproduction target (see EXPERIMENTS.md). *)

(* Set once by the cmdliner driver at the bottom before any section
   runs; refs rather than parameters so the sections read as straight
   benchmark code. *)
let quick = ref false
let only : string list ref = ref []

let section name = match !only with [] -> true | l -> List.mem name l

let header title = Printf.printf "\n=== %s ===\n%!" title

let row fmt = Printf.printf fmt

(* Gated bars that failed; [main] exits 1 when there is any. *)
let failed_bars : string list ref = ref []

(* [gate name ok] records bar [name] as failed unless [ok], and returns
   the word the section prints in the bar's column. *)
let gate name ok =
  if not ok then failed_bars := name :: !failed_bars;
  if ok then "ok" else "FAILED"

(* ------------------------------------------------------------------ *)
(* Shared modules                                                      *)
(* ------------------------------------------------------------------ *)

module Paxos1 = Protocols.Paxos.Make (Protocols.Paxos.Bench_config)
module G1 = Mc_global.Bdfs.Make (Paxos1)
module L1 = Lmc.Checker.Make (Paxos1)

let paxos1_init () = Dsm.Protocol.initial_system (module Paxos1)

let opt1 =
  L1.Invariant_specific
    { abstract = Paxos1.abstraction; conflict = Paxos1.conflicts }

module Paxos2 = Protocols.Paxos.Make (struct
  let num_nodes = 3
  let proposers = [ 0; 1 ]
  let max_attempts = 1
  let max_index = 1
  let fresh_proposals = true
  let bug = Protocols.Paxos_core.No_bug
end)

module G2 = Mc_global.Bdfs.Make (Paxos2)
module L2 = Lmc.Checker.Make (Paxos2)

(* The §5.5 buggy build, with the checker-side (hot-index) driver. *)
module Buggy = Protocols.Paxos.Make (struct
  let num_nodes = 3
  let proposers = [ 0; 1; 2 ]
  let max_attempts = 2
  let max_index = 4
  let fresh_proposals = false
  let bug = Protocols.Paxos_core.Last_response_wins
end)

module L_buggy = Lmc.Checker.Make (Buggy)

let opt_buggy =
  L_buggy.Invariant_specific
    { abstract = Buggy.abstraction; conflict = Buggy.conflicts }

(* ------------------------------------------------------------------ *)
(* Figures 3-4: the primer                                             *)
(* ------------------------------------------------------------------ *)

let fig3_4 () =
  header "Figures 3-4 (primer): tree of Fig. 2, global vs local";
  let module Tree = Protocols.Tree.Make (Protocols.Tree.Paper_config) in
  let module G = Mc_global.Bdfs.Make (Tree) in
  let module L = Lmc.Checker.Make (Tree) in
  let init = Dsm.Protocol.initial_system (module Tree) in
  let g = G.run G.default_config ~invariant:Tree.received_implies_sent init in
  let l =
    L.run L.default_config ~strategy:L.General
      ~invariant:Tree.received_implies_sent init
  in
  row "global : %d global states, %d transitions (Fig. 3 draws 12 boxes)\n"
    g.stats.global_states g.stats.transitions;
  row "local  : %d node states, %d transitions, %d system states created\n"
    l.total_node_states l.transitions l.system_states_created;
  row
    "local  : %d preliminary violation (the invalid \"----r\"), %d rejected \
     by soundness verification, %d reported\n"
    l.preliminary_violations l.soundness_rejections
    (match l.sound_violation with Some _ -> 1 | None -> 0);
  row "paper  : 4 system states created; \"----r\" rejected a posteriori\n"

(* ------------------------------------------------------------------ *)
(* Figures 10-12: one-proposal Paxos sweep                             *)
(* ------------------------------------------------------------------ *)

type sweep_point = {
  depth : int;
  bdfs_time : float option;  (* None: exceeded the per-depth cap *)
  bdfs_states : int;
  bdfs_bytes : int;
  gen_time : float;
  gen_system : int;
  gen_bytes : int;
  opt_time : float;
  opt_system : int;
  opt_bytes : int;
  local_states : int;
  local_bytes : int;
}

let fig10_12 () =
  header "Figures 10-12: Paxos, 3 nodes, one proposal - sweep over depth";
  let max_depth = if !quick then 12 else 25 in
  let bdfs_cap = if !quick then 5.0 else 60.0 in
  let points = ref [] in
  let bdfs_dead = ref false in
  for depth = 0 to max_depth do
    let bdfs_time, bdfs_states, bdfs_bytes =
      if !bdfs_dead then (None, 0, 0)
      else begin
        let cfg =
          {
            G1.default_config with
            max_depth = Some depth;
            time_limit = Some bdfs_cap;
          }
        in
        let o = G1.run cfg ~invariant:Paxos1.safety (paxos1_init ()) in
        if not o.completed then begin
          bdfs_dead := true;
          (None, o.stats.global_states, o.stats.retained_bytes)
        end
        else
          (Some o.stats.elapsed, o.stats.global_states, o.stats.retained_bytes)
      end
    in
    let lmc strategy extra =
      let cfg = { L1.default_config with max_depth = Some depth } in
      let cfg = extra cfg in
      L1.run cfg ~strategy ~invariant:Paxos1.safety (paxos1_init ())
    in
    let gen = lmc L1.General (fun c -> c) in
    let opt = lmc opt1 (fun c -> c) in
    let local =
      lmc opt1 (fun c -> { c with L1.create_system_states = false })
    in
    points :=
      {
        depth;
        bdfs_time;
        bdfs_states;
        bdfs_bytes;
        gen_time = gen.elapsed;
        gen_system = gen.system_states_created;
        gen_bytes = gen.retained_bytes;
        opt_time = opt.elapsed;
        opt_system = opt.system_states_created;
        opt_bytes = opt.retained_bytes;
        local_states = local.total_node_states;
        local_bytes = local.retained_bytes;
      }
      :: !points
  done;
  let points = List.rev !points in
  let pp_time = function
    | Some t -> Printf.sprintf "%10.4f" t
    | None -> Printf.sprintf "%10s" ">cap"
  in
  row "\n-- Figure 10: elapsed seconds vs depth --\n";
  row "%5s %10s %10s %10s\n" "depth" "B-DFS" "LMC-GEN" "LMC-OPT";
  List.iter
    (fun p ->
      row "%5d %s %10.4f %10.4f\n" p.depth (pp_time p.bdfs_time) p.gen_time
        p.opt_time)
    points;
  row "\n-- Figure 11: states vs depth --\n";
  row "%5s %12s %14s %14s %10s\n" "depth" "B-DFS-global" "LMC-GEN-system"
    "LMC-OPT-system" "LMC-local";
  List.iter
    (fun p ->
      row "%5d %12d %14d %14d %10d\n" p.depth p.bdfs_states p.gen_system
        p.opt_system p.local_states)
    points;
  row "\n-- Figure 12: retained memory (bytes) vs depth --\n";
  row "%5s %12s %12s %12s %12s\n" "depth" "B-DFS" "LMC-GEN" "LMC-OPT"
    "LMC-local";
  List.iter
    (fun p ->
      row "%5d %12d %12d %12d %12d\n" p.depth p.bdfs_bytes p.gen_bytes
        p.opt_bytes p.local_bytes)
    points;
  row
    "\npaper shapes: B-DFS time explodes exponentially; LMC-OPT finishes the \
     whole space in ms;\nLMC-OPT creates 0 system states; LMC memory stays \
     flat and linear in depth.\n"

(* The same sweep on the two-proposal space (5.2's wall): here B-DFS
   genuinely hits the per-depth cap the way the paper's did at 1514 s,
   and LMC meets its own wall — soundness verification — while its
   exploration stays cheap. *)
let fig10_12_two_proposals () =
  header "Figures 10-12 (two-proposal space): where both walls appear";
  let max_depth = if !quick then 14 else 22 in
  let bdfs_cap = if !quick then 5.0 else 30.0 in
  let lmc_cap = if !quick then 5.0 else 10.0 in
  let init () = Dsm.Protocol.initial_system (module Paxos2) in
  let opt2 =
    L2.Invariant_specific
      { abstract = Paxos2.abstraction; conflict = Paxos2.conflicts }
  in
  row "%5s %12s %14s | %12s %12s %12s\n" "depth" "B-DFS (s)" "B-DFS states"
    "LMC-OPT (s)" "LMC-expl (s)" "node states";
  let bdfs_dead = ref false in
  for depth = 0 to max_depth do
    let bdfs =
      if !bdfs_dead then None
      else begin
        let cfg =
          {
            G2.default_config with
            max_depth = Some depth;
            time_limit = Some bdfs_cap;
          }
        in
        let o = G2.run cfg ~invariant:Paxos2.safety (init ()) in
        if not o.completed then begin
          bdfs_dead := true;
          None
        end
        else Some o
      end
    in
    let l =
      L2.run
        {
          L2.default_config with
          max_depth = Some depth;
          time_limit = Some lmc_cap;
        }
        ~strategy:opt2 ~invariant:Paxos2.safety (init ())
    in
    let le =
      L2.run
        {
          L2.default_config with
          max_depth = Some depth;
          time_limit = Some lmc_cap;
          create_system_states = false;
        }
        ~strategy:opt2 ~invariant:Paxos2.safety (init ())
    in
    (match bdfs with
    | Some o ->
        row "%5d %12.4f %14d | %12.4f %12.4f %12d\n" depth o.stats.elapsed
          o.stats.global_states l.elapsed le.elapsed le.total_node_states
    | None ->
        row "%5d %12s %14s | %12.4f %12.4f %12d\n" depth ">cap" "-" l.elapsed
          le.elapsed le.total_node_states)
  done;
  row
    "\npaper shape (5.2): the global approach stops fitting any budget; \
     LMC's own wall arrives\ntoo - not in exploration (LMC-expl stays cheap) \
     but in soundness verification of\ncross-branch combinations, the cost \
     the paper names as the major contributor.\n"

(* ------------------------------------------------------------------ *)
(* Figure 13: overhead breakdown on buggy Paxos                        *)
(* ------------------------------------------------------------------ *)

let fig13 () =
  header
    "Figure 13: LMC overheads, Paxos with the 5.5 bug, from the 5.5 snapshot";
  let snapshot = Protocols.Scenarios.wids_snapshot (module Buggy) in
  let max_depth = if !quick then 16 else 30 in
  let cap = if !quick then 10.0 else 60.0 in
  row "%5s %12s %16s %12s %10s %10s\n" "depth" "LMC-OPT" "LMC-system-state"
    "LMC-explore" "prelim" "found";
  let found_at = ref None in
  for depth = 2 to max_depth do
    if !found_at = None || depth <= Option.value ~default:0 !found_at + 2
    then begin
      let base =
        {
          L_buggy.default_config with
          max_depth = Some depth;
          time_limit = Some cap;
          local_action_bound = Some 1;
        }
      in
      let full =
        L_buggy.run base ~strategy:opt_buggy ~invariant:Buggy.safety snapshot
      in
      let no_sound =
        L_buggy.run
          { base with verify_soundness = false }
          ~strategy:opt_buggy ~invariant:Buggy.safety snapshot
      in
      let explore_only =
        L_buggy.run
          { base with create_system_states = false }
          ~strategy:opt_buggy ~invariant:Buggy.safety snapshot
      in
      let hit = full.sound_violation <> None in
      if hit && !found_at = None then begin
        found_at := Some depth;
        ignore no_sound
      end;
      row "%5d %12.4f %16.4f %12.4f %10d %10s\n" depth full.elapsed
        no_sound.elapsed explore_only.elapsed full.preliminary_violations
        (if hit then "BUG" else "-");
      if hit && depth = Option.value ~default:max_int !found_at then begin
        row
          "\nat the revealing depth: %d soundness invocations, %.2f ms \
           average\n"
          full.soundness_calls
          (1000. *. full.soundness_time
          /. float_of_int (max 1 full.soundness_calls));
        row "(paper: 773 invocations, 45 ms average, 427,731 sequences)\n"
      end
    end
  done;
  row
    "\npaper shape: system-state creation cost appears once conflicting \
     values exist;\nsoundness verification dominates as the bug nears; \
     LMC-explore stays cheap.\n"

(* ------------------------------------------------------------------ *)
(* Table 5.1: headline totals                                          *)
(* ------------------------------------------------------------------ *)

let table51 () =
  header "Table 5.1: one-proposal Paxos, full state space";
  let g = G1.run G1.default_config ~invariant:Paxos1.safety (paxos1_init ()) in
  let gen =
    L1.run L1.default_config ~strategy:L1.General ~invariant:Paxos1.safety
      (paxos1_init ())
  in
  let opt =
    L1.run L1.default_config ~strategy:opt1 ~invariant:Paxos1.safety
      (paxos1_init ())
  in
  row "%-28s %12s %12s %12s\n" "" "B-DFS" "LMC-GEN" "LMC-OPT";
  row "%-28s %12.3f %12.3f %12.3f\n" "time (s)" g.stats.elapsed gen.elapsed
    opt.elapsed;
  row "%-28s %12d %12d %12d\n" "transitions" g.stats.transitions
    gen.transitions opt.transitions;
  row "%-28s %12d %12d %12d\n" "states (global/node)" g.stats.global_states
    gen.total_node_states opt.total_node_states;
  row "%-28s %12d %12d %12d\n" "system states" g.stats.system_states
    gen.system_states_created opt.system_states_created;
  row "%-28s %12d %12d %12d\n" "retained bytes" g.stats.retained_bytes
    gen.retained_bytes opt.retained_bytes;
  row "\ntransition reduction: %.0fx (paper: 157,332 / 1,186 = ~132x)\n"
    (float_of_int g.stats.transitions /. float_of_int (max 1 gen.transitions));
  row
    "LMC-GEN speedup: %.1fx (paper ~300x); LMC-OPT speedup: %.1fx (paper \
     ~8000x)\n"
    (g.stats.elapsed /. max 1e-9 gen.elapsed)
    (g.stats.elapsed /. max 1e-9 opt.elapsed)

(* ------------------------------------------------------------------ *)
(* Table 5.2: scalability limits, two proposals                        *)
(* ------------------------------------------------------------------ *)

let table52 () =
  header "Table 5.2: two proposals - where the explosion bites";
  let budget = if !quick then 20.0 else 120.0 in
  row "per-algorithm budget: %.0f s (paper ran for hours)\n\n" budget;
  let init () = Dsm.Protocol.initial_system (module Paxos2) in
  let gcfg = { G2.default_config with time_limit = Some budget } in
  let g = G2.run gcfg ~invariant:Paxos2.safety (init ()) in
  row
    "B-DFS   : depth %2d reached, %d states, %d transitions, completed=%b\n"
    g.stats.max_depth_reached g.stats.global_states g.stats.transitions
    g.completed;
  let lcfg = { L2.default_config with time_limit = Some budget } in
  let opt2 =
    L2.Invariant_specific
      { abstract = Paxos2.abstraction; conflict = Paxos2.conflicts }
  in
  let l = L2.run lcfg ~strategy:opt2 ~invariant:Paxos2.safety (init ()) in
  row
    "LMC-OPT : node depth %2d, system depth %2d, %d node states, %d \
     preliminary violations (cross-branch), all-rejected=%b, completed=%b\n"
    l.max_node_depth l.max_system_depth l.total_node_states
    l.preliminary_violations
    (l.soundness_rejections = l.preliminary_violations
    && l.sound_violation = None)
    l.completed;
  row
    "LMC-OPT : soundness verification consumed %.1f%% of the run (paper: the \
     major contributor)\n"
    (100. *. l.soundness_time /. max 1e-9 l.elapsed);
  row
    "\npaper shape: neither algorithm finishes; B-DFS gets stuck shallow \
     (20/41), LMC reaches\nmuch deeper (39/68) with soundness verification \
     as the dominating cost.\n"

(* ------------------------------------------------------------------ *)
(* Tables 5.5 / 5.6: online bug hunts                                  *)
(* ------------------------------------------------------------------ *)

(* The online hunts, over a registry hunt setup: a lossy live
   deployment snapshotted every [interval] simulated seconds for up to
   an hour, each checker restart capped at 5 s and 100k transitions. *)
module Hunt (H : Protocols.Registry.HUNT) = struct
  module O = Online.Online_mc.Make (H.Live) (H.Check)
  module S = Sim.Live_sim.Make (H.Live)

  let max_live_time = 3600.0

  let run ~seed ~interval =
    let config =
      {
        O.sim =
          {
            S.seed;
            link =
              Net.Lossy_link.create ~drop_prob:0.3 ~latency_min:0.05
                ~latency_max:0.3 ();
            timer_min = 2.0;
            timer_max = 20.0;
            action_prob = H.action_prob;
            faults = Fault.Plan.empty;
          };
        check_interval = interval;
        max_live_time;
        checker =
          {
            O.Checker.default_config with
            time_limit = Some 5.0;
            max_transitions = Some 100_000;
          };
        action_bounds = [ 1; 2 ];
        steer = false;
        steer_scope = `Exact_action;
        supervisor = O.default_supervisor;
        store = None;
      }
    in
    let go strategy = O.run config ~strategy ~invariant:H.invariant in
    match H.opt with
    | Some (Protocols.Registry.Opt o) ->
        go
          (O.Checker.Invariant_specific
             { abstract = o.abstract; conflict = o.conflict })
    | None -> go O.Checker.General
end

let hunt_of name : (module Protocols.Registry.HUNT) =
  let (module S) = Option.get (Protocols.Registry.find name) in
  Option.get S.hunt

let table55 () =
  header "Table 5.5: online checking finds the WiDS Paxos bug";
  let (module H0) = hunt_of "paxos-buggy" in
  let module H = Hunt (H0) in
  let outcome = H.run ~seed:7 ~interval:30.0 in
  (match outcome.report with
  | Some r ->
      row
        "bug found after %.0f simulated seconds (paper: 1150 s), LMC run #%d\n"
        r.live_time r.checks_run;
      row
        "revealing run: %.3f s, witness of %d events (paper: found in 11 s)\n"
        r.result.elapsed
        (List.length r.violation.schedule)
  | None -> row "NOT FOUND within %.0f simulated seconds\n" H.max_live_time);
  row "total checking time across restarts: %.1f s in %d runs\n"
    outcome.total_check_time outcome.total_checks

let table56 () =
  header "Table 5.6: online checking finds the 1Paxos ++ bug";
  let (module H0) = hunt_of "onepaxos-buggy" in
  let module H = Hunt (H0) in
  let outcome = H.run ~seed:9 ~interval:10.0 in
  (match outcome.report with
  | Some r ->
      row
        "bug found after %.0f simulated seconds (paper: 225 s), LMC run #%d\n"
        r.live_time r.checks_run;
      row
        "witness (%d events): the stale leader proposes to its buggy cached \
         acceptor - itself -\naccepts, and chooses from its own loopback \
         Learn (the paper's exact scenario)\n"
        (List.length r.violation.schedule)
  | None -> row "NOT FOUND within %.0f simulated seconds\n" H.max_live_time);
  row "total checking time across restarts: %.1f s in %d runs\n"
    outcome.total_check_time outcome.total_checks

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_chain () =
  header
    "Ablation 4.3: chain vs Paxos - LMC's advantage needs parallel network \
     activity";
  let module Chain = Protocols.Chain.Make (struct
    let length = 8
  end) in
  let module Gc = Mc_global.Bdfs.Make (Chain) in
  let module Lc = Lmc.Checker.Make (Chain) in
  let cinit = Dsm.Protocol.initial_system (module Chain) in
  let gc = Gc.run Gc.default_config ~invariant:Chain.prefix_closed cinit in
  let lc =
    Lc.run Lc.default_config ~strategy:Lc.General
      ~invariant:Chain.prefix_closed cinit
  in
  let gp = G1.run G1.default_config ~invariant:Paxos1.safety (paxos1_init ()) in
  let lp =
    L1.run L1.default_config ~strategy:opt1 ~invariant:Paxos1.safety
      (paxos1_init ())
  in
  row "%-24s %14s %14s %10s\n" "" "B-DFS trans" "LMC trans" "ratio";
  row "%-24s %14d %14d %9.1fx\n" "chain (sequential)" gc.stats.transitions
    lc.transitions
    (float_of_int gc.stats.transitions /. float_of_int (max 1 lc.transitions));
  row "%-24s %14d %14d %9.1fx\n" "Paxos (chatty)" gp.stats.transitions
    lp.transitions
    (float_of_int gp.stats.transitions /. float_of_int (max 1 lp.transitions));
  row
    "\npaper: \"we could not expect much from LMC in a chain system\"; the \
     chatty protocol\nis where eliminating the network pays.\n"

let ablation_history () =
  header "Ablation 4.2: per-state message histories (duplicate suppression)";
  let with_history =
    L1.run L1.default_config ~strategy:opt1 ~invariant:Paxos1.safety
      (paxos1_init ())
  in
  let cfg =
    {
      L1.default_config with
      use_history = false;
      max_transitions = Some 2_000_000;
      time_limit = Some (if !quick then 10.0 else 60.0);
    }
  in
  let without =
    L1.run cfg ~strategy:opt1 ~invariant:Paxos1.safety (paxos1_init ())
  in
  row "with histories    : %8d transitions, %6d node states, completed=%b\n"
    with_history.transitions with_history.total_node_states
    with_history.completed;
  row "without histories : %8d transitions, %6d node states, completed=%b\n"
    without.transitions without.total_node_states without.completed;
  row
    "\nwithout the history, a message can be re-executed on the descendants \
     of the state\nthat already consumed it (the redundancy rules (i)/(ii) \
     of 4.2 suppress this).\n"

let ablation_soundness () =
  header "Ablation: inline vs deferred DAG-product soundness (paper 4.2)";
  let snapshot = Protocols.Scenarios.wids_snapshot (module Buggy) in
  let base =
    {
      L_buggy.default_config with
      time_limit = Some (if !quick then 15.0 else 60.0);
      local_action_bound = Some 1;
    }
  in
  let run name cfg =
    let r =
      L_buggy.run cfg ~strategy:opt_buggy ~invariant:Buggy.safety snapshot
    in
    row "%-22s: bug=%-5b %8.2fs  %8d soundness calls, %8d rejections\n" name
      (r.sound_violation <> None)
      r.elapsed r.soundness_calls r.soundness_rejections
  in
  run "DAG product" base;
  run "DAG deferred" { base with defer_soundness = true };
  row
    "\ndeferral (the paper's decoupling, contribution 3) verifies against \
     the final\npredecessor DAGs - fewer, better-informed checks - but \
     cannot stop at the first bug.\nthe paper's capped sequence \
     enumeration reached the same verdicts two orders of\nmagnitude \
     slower and was removed (EXPERIMENTS.md).\n"

(* ------------------------------------------------------------------ *)
(* Ablation: automatic invariant-derived pruning (paper future work)   *)
(* ------------------------------------------------------------------ *)

let ablation_auto () =
  header
    "Ablation: automatic invariant-derived pruning (the paper's future \
     work, 7)";
  let init () = paxos1_init () in
  let run name strategy =
    let r =
      L1.run L1.default_config ~strategy ~invariant:Paxos1.safety (init ())
    in
    row "%-24s: %8d system states, %8d preliminary, %8.4f s\n" name
      r.system_states_created r.preliminary_violations r.elapsed
  in
  row "-- correct Paxos, one proposal --\n";
  run "LMC-GEN" L1.General;
  run "LMC-OPT (handcrafted)" opt1;
  run "LMC-AUTO (derived)" L1.Automatic;
  let module RTB = Protocols.Randtree.Make (struct
    let num_nodes = 4
    let max_children = 2
    let max_attempts = 1
    let bug = Protocols.Randtree.Double_bookkeeping
  end) in
  let module LR = Lmc.Checker.Make (RTB) in
  let rinit () = Dsm.Protocol.initial_system (module RTB) in
  let run name strategy =
    let r =
      LR.run LR.default_config ~strategy ~invariant:RTB.disjointness
        (rinit ())
    in
    row "%-24s: %8d system states, %8d preliminary, bug=%b, %8.4f s\n" name
      r.system_states_created r.preliminary_violations
      (r.sound_violation <> None) r.elapsed
  in
  row "-- buggy RandTree (node-local invariant) --\n";
  run "LMC-GEN" LR.General;
  run "LMC-AUTO (derived)" LR.Automatic;
  row
    "\nthe derived pruning matches the handcrafted Paxos abstraction (zero \
     combinations on a\nbug-free run) and needs no per-protocol code; \
     node-local invariants combine only when\nthe new state itself \
     violates.\n"

(* ------------------------------------------------------------------ *)
(* Breadth: every bundled protocol under both checkers                 *)
(* ------------------------------------------------------------------ *)

module Breadth_row (S : Protocols.Registry.SUBJECT) = struct
  module G = Mc_global.Bdfs.Make (S.P)
  module L = Lmc.Checker.Make (S.P)

  let run () =
    let invariant = S.invariant in
    let init () = Dsm.Protocol.initial_system (module S.P) in
    let g =
      G.run { G.default_config with time_limit = Some 30.0 } ~invariant
        (init ())
    in
    let lmc strategy =
      L.run { L.default_config with time_limit = Some 30.0 } ~strategy
        ~invariant (init ())
    in
    let l =
      match S.opt with
      | Some (Protocols.Registry.Opt o) ->
          lmc
            (L.Invariant_specific
               { abstract = o.abstract; conflict = o.conflict })
      | None -> lmc L.General
    in
    let lmc_bug = l.sound_violation <> None in
    let global_bug = g.violation <> None in
    row "%-24s %12d %12d %7.1fx %8s\n" S.name g.stats.transitions
      l.transitions
      (float_of_int g.stats.transitions /. float_of_int (max 1 l.transitions))
      (match (global_bug, lmc_bug) with
      | true, true -> "both"
      | false, false -> "none"
      | true, false -> "G only"
      | false, true -> "L only")
end

let breadth () =
  header "Breadth: every bundled protocol, global vs local";
  row "%-24s %12s %12s %8s %8s\n" "protocol" "B-DFS trans" "LMC trans"
    "ratio" "bug?";
  List.iter
    (fun name ->
      let (module S) = Option.get (Protocols.Registry.find name) in
      let module B = Breadth_row (S) in
      B.run ())
    [
      "tree";
      "chain";
      "ping";
      "randtree";
      "randtree-buggy";
      "paxos";
      "2pc";
      "2pc-buggy";
      "ring";
      "pb-store";
      "pb-store-buggy";
      "ring-buggy";
    ];
  row
    "\nthe transition ratio tracks how chatty the protocol is; \
     test/test_oracle.ml checks that the checkers agree on every \
     registry verdict.\n"

(* ------------------------------------------------------------------ *)
(* Observability overhead                                              *)
(* ------------------------------------------------------------------ *)

(* What does observability cost?  The Fig. 10 LMC-GEN series runs
   under five scopes: disabled ([Obs.null]); metrics only; metrics plus
   a recorder streaming every record to a JSONL file (--record);
   metrics plus a ring-buffered recorder (records kept in memory,
   dumped once at close; --record-ring); and full live telemetry — the
   sampling profiler, the timeseries ring and a /metrics exporter on a
   thread sharing the process.  The summed checker-reported times are
   compared.  Bars: metrics 5% (the always-on price), ring 2% (the
   always-on recording candidate), file 10% (serialization and I/O per
   record), all reported; full telemetry 5%, gated.

   The series always runs to depth 18, where combination checking
   dominates: frame push/pop scales with transitions while combination
   work grows much faster with depth, so a shallower sweep would
   inflate the ratios.  Quick mode trims rounds, not depth. *)
let overhead () =
  header "Observability overhead: Fig. 10 LMC-GEN series, five scopes";
  let max_depth = 18 in
  let run_one obs depth =
    let cfg = { L1.default_config with max_depth = Some depth; obs } in
    let r =
      L1.run cfg ~strategy:L1.General ~invariant:Paxos1.safety
        (paxos1_init ())
    in
    r.elapsed
  in
  let path = Filename.temp_file "overhead" ".jsonl" in
  let with_recorder recorder depth =
    let scope = Obs.create ~recorder () in
    let s = run_one scope depth in
    Obs.close scope;
    s
  in
  let ts_path = Filename.temp_file "overhead_ts" ".jsonl" in
  let metrics = Obs.Metrics.create () in
  let profiler = Obs.Prof.create () in
  let timeseries = Obs.Timeseries.create ~interval:0.5 ~metrics ts_path in
  let exporter = Obs.Exporter.start ~metrics ~port:0 () in
  let telemetry = Obs.create ~metrics ~profiler ~timeseries () in
  (* (label, bar %, gated, one depth of the series); the gated mode
     runs right after the baseline, before the recorder modes' I/O *)
  let modes =
    [|
      ("disabled (Obs.null)", 0., false, run_one Obs.null);
      ("profiler + timeseries + /metrics", 5., true, run_one telemetry);
      ("metrics only", 5., false, fun d -> run_one (Obs.create ()) d);
      ( "metrics + recorder, file",
        10.,
        false,
        fun d -> with_recorder (Obs.Trace.to_file path) d );
      ( "metrics + recorder, ring",
        2.,
        false,
        fun d -> with_recorder (Obs.Trace.ring ~capacity:65536 path) d );
    |]
  in
  (* Single-digit percentages are far below the drift of a shared
     host, so the modes are interleaved at *depth* granularity —
     back-to-back runs within milliseconds of each other see the same
     noise regime — and the per-(mode, depth) minimum over all rounds
     is kept before summing the series. *)
  let rounds = if !quick then 3 else 12 in
  let best = Array.map (fun _ -> Array.make (max_depth + 1) infinity) modes in
  for _ = 1 to rounds do
    for depth = 0 to max_depth do
      Array.iteri
        (fun m (_, _, _, run) ->
          best.(m).(depth) <- min best.(m).(depth) (run depth))
        modes
    done
  done;
  Obs.Exporter.stop exporter;
  Obs.close telemetry;
  Sys.remove path;
  Sys.remove ts_path;
  let sum = Array.map (Array.fold_left ( +. ) 0.) best in
  row "%-36s %10.4f s\n" "disabled (Obs.null)" sum.(0);
  Array.iteri
    (fun m (name, bar, gated, _) ->
      if m > 0 then begin
        let pct = 100. *. ((sum.(m) /. max 1e-9 sum.(0)) -. 1.) in
        row "%-36s %10.4f s  (%+.1f%%, bar %.0f%%)%s\n" name sum.(m) pct bar
          (if gated then "  " ^ gate name (pct <= bar) else "")
      end)
    modes

(* ------------------------------------------------------------------ *)
(* Live-sim overhead: fault plans and churn                            *)
(* ------------------------------------------------------------------ *)

(* A token ring whose every timer tick launches a [hops]-hop token.
   The bundled protocols all quiesce (finite spaces, by design), which
   would leave a live run timer-dominated; here sends dominate and
   handlers are trivial, so the cost of the fault injector and the
   membership filter on the send/deliver path is at its worst. *)
module Token_ring (N : sig
  val num_nodes : int
  val hops : int
end) =
struct
  let name = "bench-token-ring"
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

(* Each fleet runs three plans, interleaved per round with the per-plan
   minimum kept: the empty plan (the injector's fast path: one boolean
   test per send, two per delivery); an inert plan, whose clauses are
   all windowed past the horizon (it pays the per-message plan scan,
   rolls nothing, and follows the empty plan's trajectory exactly, as
   test_fault checks); and an active plan, for reference (a different
   trajectory: reported, not compared).
   - 3 nodes, 32-hop tokens: duplication, reordering, corruption and a
     partition.
   - 100 and 500 nodes, 8-hop tokens: a storm of ten leave/rejoin
     pairs.  An active storm legitimately shrinks the workload
     (departed nodes break the forwarding chains), so the bar is held
     against the inert storm: at least 0.9x the empty plan's events/s,
     gated. *)
let sim_overhead () =
  header "Live-sim overhead: fault plans and churn storms on a token ring";
  let plan s =
    match Fault.Plan.of_string s with Ok p -> p | Error e -> failwith e
  in
  let far = "from=9000000,until=9000001" in
  (* ten leave/rejoin pairs; [base] pushes the whole storm past the
     horizon to make the inert variant *)
  let storm ~base nodes =
    plan
      (String.concat ";"
         (List.concat_map
            (fun i ->
              let n = (1 + (i * nodes / 10)) mod nodes in
              [
                Printf.sprintf "leave:node=%d,at=%d" n (base + 5 + (4 * i));
                Printf.sprintf "join:node=%d,at=%d" n (base + 45 + (4 * i));
              ])
            (List.init 10 Fun.id)))
  in
  let faults_horizon = if !quick then 500. else 3_000. in
  let churn_horizon = if !quick then 60. else 300. in
  (* (nodes, hops, horizon, inert, active, gated) *)
  let fleets =
    ( 3,
      32,
      faults_horizon,
      plan
        (Printf.sprintf "corrupt:p=0.5,%s;dup:p=0.5,%s;part:%s,cut=0+1/2" far
           far far),
      plan "dup:p=0.05;reorder:p=0.2,window=0.5;corrupt:p=0.01",
      false )
    :: List.map
         (fun nodes ->
           ( nodes,
             8,
             churn_horizon,
             storm ~base:9_000_000 nodes,
             storm ~base:0 nodes,
             true ))
         [ 100; 500 ]
  in
  (* runs last milliseconds in quick mode, so more rounds than the
     overhead section *)
  let rounds = if !quick then 10 else 20 in
  row "%-6s %5s %8s %9s %12s %12s %8s %12s  %s\n" "nodes" "hops" "horizon"
    "events" "empty ev/s" "inert ev/s" "inert" "active ev/s" "bar 0.9x";
  List.iter
    (fun (nodes, hops, horizon, inert, active, gated) ->
      let module R = Token_ring (struct
        let num_nodes = nodes
        let hops = hops
      end) in
      let module S = Sim.Live_sim.Make (R) in
      let run faults =
        let config =
          {
            S.seed = 11;
            link =
              Net.Lossy_link.create ~drop_prob:0.05 ~latency_min:0.05
                ~latency_max:0.3 ();
            timer_min = 0.5;
            timer_max = 1.5;
            action_prob = None;
            faults;
          }
        in
        (* start every run from a clean heap, so no run pays for the
           garbage of the one before it *)
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        let sim = S.create config in
        S.run_until sim horizon;
        (Unix.gettimeofday () -. t0, S.events_executed sim)
      in
      let plans = [| Fault.Plan.empty; inert; active |] in
      let best = Array.make 3 infinity and events = Array.make 3 0 in
      for _ = 1 to rounds do
        Array.iteri
          (fun i p ->
            let t, ev = run p in
            best.(i) <- min best.(i) t;
            events.(i) <- ev)
          plans
      done;
      let eps i = float_of_int events.(i) /. max 1e-9 best.(i) in
      let ratio = eps 1 /. max 1e-9 (eps 0) in
      row "%-6d %5d %7.0fs %9d %12.0f %12.0f %7.2fx %12.0f  %s\n" nodes hops
        horizon events.(0) (eps 0) (eps 1) ratio (eps 2)
        (if gated then
           gate (Printf.sprintf "inert churn at %d nodes" nodes) (ratio >= 0.9)
         else "-"))
    fleets

(* ------------------------------------------------------------------ *)
(* lib/store: mmap'd visited set vs the heap table, and warm restarts   *)
(* ------------------------------------------------------------------ *)

(* The Fig. 10 axis the paper frames as "state explosion vs RAM": with
   the visited set in an mmap'd store file, fingerprints live in the
   page cache instead of the OCaml heap, so RAM stops bounding the
   explorable space.  The default B-DFS (recursive DFS over a heap
   table) is compared with the store-backed layered frontier; both
   must reach the same states.  A warm rerun against a completed store
   file then revisits nothing (the incremental-restart story). *)
let store_bench () =
  header "lib/store: B-DFS heap-table DFS vs mmap frontier (Fig. 10 axis)";
  let depths = if !quick then [ 6; 8; 10 ] else [ 8; 10; 12; 14 ] in
  let dir = Filename.temp_file "lmc-bench-store" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let points =
    List.map
      (fun depth ->
        let cfg =
          {
            G1.default_config with
            max_depth = Some depth;
            time_limit = Some (if !quick then 5.0 else 60.0);
          }
        in
        let ram = G1.run cfg ~invariant:Paxos1.safety (paxos1_init ()) in
        let path = Filename.concat dir (Printf.sprintf "d%d.fps" depth) in
        let set = Store.Fp_set.create path in
        let mcfg = { cfg with visited_store = Some set } in
        let mmap = G1.run mcfg ~invariant:Paxos1.safety (paxos1_init ()) in
        let warm = G1.run mcfg ~invariant:Paxos1.safety (paxos1_init ()) in
        Store.Fp_set.close set;
        Sys.remove path;
        (depth, ram, mmap, warm))
      depths
  in
  Unix.rmdir dir;
  let rate (o : G1.outcome) =
    if o.stats.elapsed > 0. then
      float_of_int o.stats.global_states /. o.stats.elapsed
    else 0.
  in
  row "\n-- states/sec and retained memory: heap-table DFS vs mmap frontier --\n";
  row "%5s %10s %10s %6s %12s %12s %10s %10s\n" "depth" "RAM-st/s"
    "mmap-st/s" "ratio" "RAM-bytes" "mmap-bytes" "warm-s" "warm-hits";
  List.iter
    (fun (depth, ram, mmap, (warm : G1.outcome)) ->
      let rr = rate ram and mr = rate mmap in
      row "%5d %10.0f %10.0f %6.2f %12d %12d %10.4f %10d\n" depth rr mr
        (if rr > 0. then mr /. rr else 0.)
        ram.stats.retained_bytes mmap.stats.retained_bytes warm.stats.elapsed
        warm.stats.store_hits)
    points;
  row
    "\nbar: both reach the same states, the mmap frontier with the \
     visited fingerprints off the heap; the warm rerun of a completed \
     depth discovers 0 new states (cold-vs-incremental restart).\n"

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("fig3-4", fig3_4);
    ("fig10-12", fig10_12);
    ("fig10-12b", fig10_12_two_proposals);
    ("fig13", fig13);
    ("table5.1", table51);
    ("table5.2", table52);
    ("table5.5", table55);
    ("table5.6", table56);
    ("ablation-chain", ablation_chain);
    ("ablation-history", ablation_history);
    ("ablation-soundness", ablation_soundness);
    ("ablation-auto", ablation_auto);
    ("breadth", breadth);
    ("overhead", overhead);
    ("sim-overhead", sim_overhead);
    ("store", store_bench);
  ]

let main q o =
  quick := q;
  only := o;
  Printf.printf "LMC benchmark harness%s\n%!"
    (if !quick then " (--quick)" else "");
  List.iter (fun (name, f) -> if section name then f ()) sections;
  match List.rev !failed_bars with
  | [] ->
      Printf.printf "\ndone.\n";
      0
  | failed ->
      Printf.printf "\nFAILED bars: %s\n" (String.concat ", " failed);
      1

let () =
  let open Cmdliner in
  let quick_arg =
    let doc = "Trim time budgets and depth caps (CI-sized run)." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let only_arg =
    let doc =
      "Run only the named section(s) instead of all of them; repeatable.  \
       $(docv) must be one of the section names (see the synopsis)."
    in
    let sec = Arg.enum (List.map (fun (n, _) -> (n, n)) sections) in
    Arg.(value & opt_all sec [] & info [ "only" ] ~doc ~docv:"SECTION")
  in
  let doc =
    "regenerate the paper's evaluation (tables, figures, ablations); exit 1 \
     when a gated overhead bar fails"
  in
  let info = Cmd.info "bench" ~doc in
  exit (Cmd.eval' (Cmd.v info Term.(const main $ quick_arg $ only_arg)))
