module Make
    (Live : Dsm.Protocol.S)
    (Check : Dsm.Protocol.S
               with type state = Live.state
                and type message = Live.message
                and type action = Live.action) =
struct
  module Checker = Lmc.Checker.Make (Check)
  module Sim_p = Sim.Live_sim.Make (Live)

  type supervisor = {
    restart_budget_ms : int option;
    memory_budget_bytes : int option;
    max_retries : int;
    backoff_base_ms : int;
    backoff_cap_ms : int;
    checksum_snapshots : bool;
    snapshot_tamper : (string -> string) option;
  }

  let default_supervisor =
    {
      restart_budget_ms = None;
      memory_budget_bytes = None;
      max_retries = 2;
      backoff_base_ms = 10;
      backoff_cap_ms = 1_000;
      checksum_snapshots = false;
      snapshot_tamper = None;
    }

  type store_config = {
    dir : string;  (* checkpoint directory (created if missing) *)
    resume : bool;
        (* warm-start from an existing checkpoint: fast-forward the
           deterministic simulation to the saved live time and skip
           every combination an earlier phase proved clean.  A missing
           or corrupt checkpoint degrades to a cold start. *)
  }

  type config = {
    sim : Sim_p.config;
    check_interval : float;
    max_live_time : float;
    checker : Checker.config;
    action_bounds : int list;
    steer : bool;
    steer_scope : [ `Exact_action | `Node ];
    supervisor : supervisor;
    store : store_config option;
  }

  type report = {
    live_time : float;
    checks_run : int;
    snapshot : Live.state array;
    violation : Checker.violation;
    result : Checker.result;
  }

  type outcome = {
    report : report option;
    total_checks : int;
    total_check_time : float;
    vetoed : (Dsm.Node_id.t * Live.action) list;
    live_violation_time : float option;
    degradations : string list;
    final_tier : int;
    resumed_at : float option;
        (* simulated time the hunt fast-forwarded to, [None] cold *)
    states_explored : int;
        (* system states created, cumulative across resumed phases *)
    store_hits : int;  (* combination-store hits, cumulative *)
    membership : bool array;
        (* the fleet at the end of the hunt (all-present without
           churn clauses) *)
  }

  (* The first live-controllable step of a witness: the earliest
     internal action.  Vetoing it at its node denies the predicted run
     its trigger (execution steering, CrystalBall-style). *)
  let first_action (violation : Checker.violation) =
    List.find_map
      (function
        | Dsm.Trace.Execute (n, a) -> Some (n, a)
        | Dsm.Trace.Deliver _ | Dsm.Trace.Crash _ -> None)
      violation.Checker.schedule

  let run ?(obs = Obs.null) config ~strategy ~invariant =
    if config.check_interval <= 0. then
      invalid_arg "Online_mc.run: check_interval must be positive";
    (* A scope given here reaches everything below the online loop; when the
       caller passes none, the checker config's scope serves the whole
       hunt. *)
    let obs = if Obs.is_null obs then config.checker.Checker.obs else obs in
    let trace = Obs.recorder obs in
    let c_checks = Obs.counter obs "online.checks" in
    let c_vetoes = Obs.counter obs "online.vetoes" in
    let vetoes : (Dsm.Node_id.t * Live.action, unit) Hashtbl.t =
      Hashtbl.create 8
    in
    let quarantined : (Dsm.Node_id.t, unit) Hashtbl.t = Hashtbl.create 8 in
    let install_veto ~live_time n a =
      if not (Hashtbl.mem vetoes (n, a)) then begin
        Hashtbl.replace vetoes (n, a) ();
        (match config.steer_scope with
        | `Node -> Hashtbl.replace quarantined n ()
        | `Exact_action -> ());
        Obs.Metrics.incr c_vetoes;
        ignore
          (Obs.Trace.emit trace ~ev:"veto"
            [
              ("live_time", Dsm.Json.Float live_time);
              ("node", Dsm.Json.Int n);
              ( "scope",
                Dsm.Json.String
                  (match config.steer_scope with
                  | `Exact_action -> "exact_action"
                  | `Node -> "node") );
            ]);
        true
      end
      else false
    in
    let sim_config =
      if not config.steer then config.sim
      else begin
        let base = config.sim.Sim_p.action_prob in
        let action_prob n a =
          if Hashtbl.mem vetoes (n, a) || Hashtbl.mem quarantined n then 0.0
          else match base with Some f -> f n a | None -> 1.0
        in
        { config.sim with Sim_p.action_prob = Some action_prob }
      end
    in
    let sim = Sim_p.create ~obs sim_config in
    let checks = ref 0 in
    let check_time = ref 0. in
    let vetoed = ref [] in
    let live_violation_time = ref None in
    let bounds =
      match config.action_bounds with
      | [] -> [ None ]
      | bs -> List.map (fun b -> Some b) bs
    in
    (* ---- Supervision ----------------------------------------------
       The live loop must outlive its checker.  Every pathology below
       — a checker exception, a restart that blows its wall-clock or
       memory budget, a snapshot that arrives torn — is recorded as an
       [degraded] record and the loop continues, possibly with a
       narrower checker. *)
    let sup = config.supervisor in
    let c_degraded = Obs.counter obs "online.degraded" in
    (* Health gauges: /healthz reads these by name, so they are kept
       current here — tier on every escalation, the restart budget
       headroom after each audited run, and the wall-clock time of the
       last checked-and-checkpointed snapshot. *)
    let g_tier = Obs.gauge obs "online.tier" in
    let g_budget = Obs.gauge obs "online.restart_budget_ms" in
    let g_snap_ts = Obs.gauge obs "online.last_snapshot_ts" in
    Obs.Metrics.set g_tier 0.;
    (match sup.restart_budget_ms with
    | Some ms -> Obs.Metrics.set g_budget (float_of_int ms)
    | None -> ());
    let degradations = ref [] in
    (* Backoff jitter must not perturb the simulation's replayable
       streams, so it draws from its own stream off a derived seed. *)
    let jitter_rng =
      Sim.Rng.create ~seed:(config.sim.Sim_p.seed lxor 0x5eed)
    in
    let tier = ref 0 in
    let degraded ~reason ~detail =
      Obs.Metrics.incr c_degraded;
      degradations := reason :: !degradations;
      ignore
        (Obs.Trace.emit trace ~ev:"degraded"
           [
             ("live_time", Dsm.Json.Float (Sim_p.now sim));
             ("reason", Dsm.Json.String reason);
             ("tier", Dsm.Json.Int !tier);
             ("detail", Dsm.Json.String detail);
           ])
    in
    let escalate ~reason ~detail =
      if !tier < 3 then incr tier;
      Obs.Metrics.set g_tier (float_of_int !tier);
      degraded ~reason ~detail
    in
    (* ---- Persistence (lib/store) ----------------------------------
       A checkpoint directory makes the restart loop *incremental*:
       per-node stores, I+ and the clean-combination set survive the
       process, and a resumed hunt fast-forwards the deterministic
       simulation to the saved live time instead of re-living it.
       Anything wrong with an existing checkpoint (truncated file, bad
       digest, seed/protocol mismatch) is a ["corrupt_checkpoint"]
       degradation followed by a cold start — never a crash. *)
    let states_total = ref 0 in
    let hits_total = ref 0 in
    let found = ref false in
    let ckpt, resumed_at =
      match config.store with
      | None -> (None, None)
      | Some sc ->
          let events = Store.Events.of_trace trace in
          let open_cold () =
            Store.Checkpoint.create ~events ~dir:sc.dir ~protocol:Check.name
              ~num_nodes:Check.num_nodes ~seed:config.sim.Sim_p.seed ()
          in
          if not sc.resume then (Some (open_cold ()), None)
          else begin
            match
              Store.Checkpoint.load ~events ~dir:sc.dir ~protocol:Check.name
                ~num_nodes:Check.num_nodes ~seed:config.sim.Sim_p.seed ()
            with
            | Error (Store.Checkpoint.Corrupt_checkpoint why) ->
                degraded ~reason:"corrupt_checkpoint" ~detail:why;
                (Some (open_cold ()), None)
            | Ok c ->
                let m = Store.Checkpoint.meta c in
                (* Membership audit: the saved map must equal the one
                   our plan implies at the saved time — a mismatch
                   means the checkpoint was written under a different
                   fault plan (or an incompatible format) and resuming
                   it would silently check the wrong fleet. *)
                let expected =
                  Fault.Plan.membership_at config.sim.Sim_p.faults
                    ~num_nodes:Check.num_nodes
                    ~time:m.Store.Checkpoint.m_live_time
                in
                if m.Store.Checkpoint.m_membership <> expected then begin
                  degraded ~reason:"membership_mismatch"
                    ~detail:
                      (Printf.sprintf
                         "checkpoint fleet %s, plan implies %s at t=%.1f"
                         (String.concat ""
                            (Array.to_list
                               (Array.map
                                  (fun b -> if b then "1" else "0")
                                  m.Store.Checkpoint.m_membership)))
                         (String.concat ""
                            (Array.to_list
                               (Array.map
                                  (fun b -> if b then "1" else "0")
                                  expected)))
                         m.Store.Checkpoint.m_live_time);
                  Store.Checkpoint.close c;
                  (Some (open_cold ()), None)
                end
                else begin
                  checks := m.Store.Checkpoint.m_checks;
                  states_total := m.Store.Checkpoint.m_states;
                  hits_total := m.Store.Checkpoint.m_hits;
                  (* the simulation is deterministic in its seed, so
                     replaying up to the saved time restores the exact
                     live state the previous phase died in *)
                  if m.Store.Checkpoint.m_live_time > 0. then
                    Sim_p.run_until sim m.Store.Checkpoint.m_live_time;
                  Store.Events.emit events ~ev:"resume"
                    [
                      ("dir", Dsm.Json.String sc.dir);
                      ( "live_time",
                        Dsm.Json.Float m.Store.Checkpoint.m_live_time );
                      ("checks", Dsm.Json.Int m.Store.Checkpoint.m_checks);
                      ("states", Dsm.Json.Int m.Store.Checkpoint.m_states);
                      ("hits", Dsm.Json.Int m.Store.Checkpoint.m_hits);
                      ( "fleet",
                        Dsm.Json.Int
                          (Array.fold_left
                             (fun acc b -> if b then acc + 1 else acc)
                             0
                             m.Store.Checkpoint.m_membership) );
                    ];
                  (Some c, Some m.Store.Checkpoint.m_live_time)
                end
          end
    in
    let persist =
      Option.map
        (fun c ->
          {
            Lmc.Checker.p_combos = Store.Checkpoint.combos c;
            p_nodes = Store.Checkpoint.node_states c;
            p_iplus = Store.Checkpoint.iplus c;
          })
        ckpt
    in
    let save_progress () =
      match ckpt with
      | None -> ()
      | Some c ->
          Store.Checkpoint.save c
            ~membership:(Sim_p.membership sim)
            ~live_time:(Sim_p.now sim) ~checks:!checks
            ~states:!states_total ~hits:!hits_total ~found:!found;
          Obs.Metrics.set
            (Obs.gauge obs "online.store_occupancy")
            (Store.Fp_set.occupancy (Store.Checkpoint.combos c));
          let considered = !hits_total + !states_total in
          if considered > 0 then
            Obs.Metrics.set
              (Obs.gauge obs "online.store_hit_rate")
              (float_of_int !hits_total /. float_of_int considered);
          (match Store.Rss.sample_bytes () with
          | Some b ->
              Obs.Metrics.set (Obs.gauge obs "online.rss_bytes")
                (float_of_int b)
          | None -> ())
    in
    (* Graceful degradation tiers: 1 halves the depth bound, 2 drops
       LMC-GEN to the invariant-pruned Automatic strategy, 3 defers
       soundness out of the budgeted window.  Each trip narrows the
       next restart instead of killing the loop. *)
    let tiered_checker base =
      let c =
        if !tier >= 1 then
          {
            base with
            Checker.max_depth =
              Some
                (match base.Checker.max_depth with
                | Some d -> max 4 (d / 2)
                | None -> 16);
          }
        else base
      in
      let c =
        match sup.restart_budget_ms with
        | None -> c
        | Some ms ->
            let budget_s = float_of_int ms /. 1000. in
            let tl =
              match c.Checker.time_limit with
              | Some t -> Float.min t budget_s
              | None -> budget_s
            in
            { c with Checker.time_limit = Some tl }
      in
      if !tier >= 3 then { c with Checker.defer_soundness = true } else c
    in
    let tiered_strategy () =
      if !tier >= 2 then
        match strategy with Checker.General -> Checker.Automatic | s -> s
      else strategy
    in
    let backoff attempt =
      let ms =
        min sup.backoff_cap_ms (sup.backoff_base_ms * (1 lsl min attempt 16))
      in
      (* full jitter in [0.5, 1.5) of the nominal delay *)
      let jitter = 0.5 +. Sim.Rng.float jitter_rng in
      Unix.sleepf (float_of_int ms /. 1000. *. jitter)
    in
    (* An exception out of [Checker.run] (a throwing invariant closure,
       or an abstraction function that raises) is
       retried with jittered exponential backoff; after [max_retries]
       the restart is abandoned and the loop degrades instead. *)
    let supervised_run cfg snapshot =
      let rec attempt k =
        match
          Checker.run (tiered_checker cfg) ~strategy:(tiered_strategy ())
            ~invariant snapshot
        with
        | result -> Some result
        | exception e when k < sup.max_retries ->
            degraded ~reason:"checker_failure" ~detail:(Printexc.to_string e);
            backoff k;
            attempt (k + 1)
        | exception e ->
            escalate ~reason:"checker_failed_permanently"
              ~detail:(Printexc.to_string e);
            None
      in
      attempt 0
    in
    (* Post-run budget audit: a restart that consumed its wall-clock
       budget (its time limit was capped to it above) or exceeded the
       memory budget escalates the degradation tier for the next one. *)
    let audit_budgets (result : Checker.result) =
      (match sup.restart_budget_ms with
      | Some ms ->
          Obs.Metrics.set g_budget
            (Float.max 0. (float_of_int ms -. (result.Checker.elapsed *. 1000.)))
      | None -> ());
      (match sup.restart_budget_ms with
      | Some ms when result.Checker.elapsed *. 1000. >= float_of_int ms ->
          escalate ~reason:"restart_budget_exceeded"
            ~detail:
              (Printf.sprintf "%.0f ms >= %d ms"
                 (result.Checker.elapsed *. 1000.)
                 ms)
      | _ -> ());
      match sup.memory_budget_bytes with
      | Some b when result.Checker.retained_bytes > b ->
          escalate ~reason:"memory_budget_exceeded"
            ~detail:
              (Printf.sprintf "%d B > %d B" result.Checker.retained_bytes b)
      | _ -> ()
    in
    (* Checksummed snapshot hand-off: round-trip the capture through
       the wire encoding so a torn or tampered snapshot is rejected
       with a typed diagnostic before [Marshal] can lie about it.
       [snapshot_tamper] exists so tests can flip bits in flight. *)
    let validated snapshot =
      if not sup.checksum_snapshots then Some snapshot
      else begin
        let wire =
          Sim.Snapshot.to_string
            (Sim.Snapshot.make
               ~membership:(Sim_p.membership sim)
               ~time:(Sim_p.now sim) snapshot)
        in
        let wire =
          match sup.snapshot_tamper with Some f -> f wire | None -> wire
        in
        match Sim.Snapshot.of_string wire with
        | Ok s -> Some s.Sim.Snapshot.states
        | Error (Sim.Snapshot.Corrupt_snapshot why) ->
            degraded ~reason:"corrupt_snapshot" ~detail:why;
            None
      end
    in
    (* One snapshot, several runs with widening local-event bounds; the
       checker restarts from scratch at each bound, as in §4.2. *)
    let check_snapshot raw_snapshot =
      match validated raw_snapshot with
      | None -> None
      | Some snapshot ->
      let rec widen = function
        | [] -> None
        | bound :: rest -> (
            incr checks;
            Obs.Metrics.incr c_checks;
            (* Frame the restart in the flight recorder before the
               checker emits its own [lmc_run] header, so a hunt trace
               segments into per-snapshot, per-bound episodes. *)
            if Obs.Trace.enabled trace then
              ignore
                (Obs.Trace.emit trace ~ev:"restart"
                   [
                     ("run", Dsm.Json.Int !checks);
                     ( "bound",
                       match bound with
                       | Some b -> Dsm.Json.Int b
                       | None -> Dsm.Json.Null );
                     ("live_time", Dsm.Json.Float (Sim_p.now sim));
                   ]);
            match
              supervised_run
                {
                  config.checker with
                  local_action_bound = bound;
                  obs;
                  persist;
                }
                snapshot
            with
            | None -> widen rest
            | Some result -> (
            audit_budgets result;
            check_time := !check_time +. result.Checker.elapsed;
            states_total :=
              !states_total + result.Checker.system_states_created;
            hits_total := !hits_total + result.Checker.store_hits;
            match result.Checker.sound_violation with
            | Some violation -> Some (violation, result)
            | None -> widen rest))
      in
      widen bounds
    in
    (* Checkpoint after every snapshot check, hit or miss: a SIGKILL at
       any point costs at most one check interval of progress. *)
    let check_snapshot snapshot =
      let r = Obs.frame obs "online.check" (fun () -> check_snapshot snapshot) in
      if Option.is_some r then found := true;
      save_progress ();
      Obs.Metrics.set g_snap_ts (Unix.gettimeofday ());
      r
    in
    let rec loop () =
      let deadline = Sim_p.now sim +. config.check_interval in
      Sim_p.run_until sim deadline;
      let snapshot = Sim_p.states sim in
      if !live_violation_time = None && Dsm.Invariant.check invariant snapshot <> None
      then live_violation_time := Some (Sim_p.now sim);
      match check_snapshot snapshot with
      | Some (violation, result) ->
          let report =
            {
              live_time = Sim_p.now sim;
              checks_run = !checks;
              snapshot;
              violation;
              result;
            }
          in
          if config.steer then begin
            (* install the veto and keep the system running *)
            (match first_action violation with
            | Some (n, a) ->
                if install_veto ~live_time:(Sim_p.now sim) n a then vetoed := (n, a) :: !vetoed
            | None -> ());
            if Sim_p.now sim >= config.max_live_time then Some report
            else loop_with_report report
          end
          else Some report
      | None -> if Sim_p.now sim >= config.max_live_time then None else loop ()
    and loop_with_report report =
      (* steering mode: remember the first prediction but keep going *)
      let deadline = Sim_p.now sim +. config.check_interval in
      Sim_p.run_until sim deadline;
      let snapshot = Sim_p.states sim in
      if !live_violation_time = None && Dsm.Invariant.check invariant snapshot <> None
      then live_violation_time := Some (Sim_p.now sim);
      (match check_snapshot snapshot with
      | Some (violation, _) -> (
          match first_action violation with
          | Some (n, a) ->
              if install_veto ~live_time:(Sim_p.now sim) n a then vetoed := (n, a) :: !vetoed
          | None -> ())
      | None -> ());
      if Sim_p.now sim >= config.max_live_time then Some report
      else loop_with_report report
    in
    let report =
      Fun.protect
        ~finally:(fun () ->
          Option.iter Store.Checkpoint.close ckpt)
        loop
    in
    {
      report;
      total_checks = !checks;
      total_check_time = !check_time;
      vetoed = List.rev !vetoed;
      live_violation_time = !live_violation_time;
      degradations = List.rev !degradations;
      final_tier = !tier;
      resumed_at;
      states_explored = !states_total;
      store_hits = !hits_total;
      membership = Sim_p.membership sim;
    }

  let pp_report ppf r =
    Format.fprintf ppf
      "@[<v>bug found after %.1f s of (simulated) live execution, on LMC \
       run #%d@ %a@ witness schedule (%d events):@ %a@]"
      r.live_time r.checks_run Dsm.Invariant.pp_violation
      r.violation.Checker.violation
      (List.length r.violation.Checker.schedule)
      (Dsm.Trace.pp ~pp_message:Check.pp_message ~pp_action:Check.pp_action)
      r.violation.Checker.schedule
end
