(* Names the state-key definition in [bdfs_run]: step records'
   [fp_before]/[fp_after] are keys, so a recording made under another
   definition (or another fingerprint kernel) cannot be re-explored bit
   for bit. *)
let key_name = "mix128-" ^ Dsm.Fingerprint.name

module Make (P : Dsm.Protocol.S) = struct
  module Envelope = Dsm.Envelope
  module Fingerprint = Dsm.Fingerprint
  module Mix = Fingerprint.Mix
  module Trace = Dsm.Trace

  type global = {
    nodes : P.state array;
    net : P.message Envelope.t Net.Multiset.t;
    crashes : int array;
        (* never mutated in place: crash successors copy, everything
           else shares the parent's array *)
    digests : Mix.t array;  (* [Mix.of_value nodes.(i)], per node *)
    nodes_key : Mix.t;  (* [sum_i Mix.slot i digests.(i)] *)
    net_key : Mix.t;  (* [sum count * Mix.of_value envelope] *)
  }

  type violation = {
    system : P.state array;
    violation : Dsm.Invariant.violation;
    trace : (P.message, P.action) Trace.t;
    depth : int;
  }

  type stats = {
    transitions : int;
    global_states : int;
    system_states : int;
    max_depth_reached : int;
    retained_bytes : int;
    store_hits : int;
    orbit_hits : int;
        (* successors deduplicated against a different orbit
           representative (the successor itself was not in canonical
           form); 0 with the identity group *)
    elapsed : float;
  }

  type outcome = {
    stats : stats;
    violation : violation option;
    completed : bool;
  }

  type config = {
    max_depth : int option;
    time_limit : float option;
    max_transitions : int option;
    crash_budget : int;
    stop_on_violation : bool;
    track_traces : bool;
    visited_store : Store.Fp_set.t option;
        (* disk-backed visited set (lib/store).  Switches to layered
           frontier expansion — layers visit each state at its minimum
           depth, so a presence-only set is exactly equivalent to the
           depth-keyed table, which the DFS's revisit-shallower
           correction is not.  Entries from earlier runs gate
           re-expansion, making restarts incremental; [retained_bytes]
           then counts only the parent table. *)
    obs : Obs.scope;
        (* metrics, plus the flight recorder: first-visit transitions,
           violation witnesses, run header/footer.  The global
           checker's network is a consumable multiset, not the LMC's
           monotone I+, but message provenance still applies: a
           delivery's consumed fingerprint references the step that
           produced it. *)
    symmetry : (P.state, P.message) Dsm.Symmetry.spec;
        (* audited role-permutation group (with identifier mappers for
           states and messages): the visited set and parent links are
           keyed by the least key over the group's images of a
           global state, so permutation-equivalent states are explored
           once.  Exploration, traces and witnesses stay in original
           coordinates — every recorded step is a real transition, so
           witness replay is untouched.  Sound iff every handler,
           [enabled_actions], [initial], [on_recover] and the invariant
           commute with the group's action — audited by
           [Lint.Symmetry]; the checker trusts the caller.  Default:
           identity spec (no reduction: canonical key = raw key). *)
  }

  let default_config =
    {
      max_depth = None;
      time_limit = None;
      max_transitions = None;
      crash_budget = 0;
      stop_on_violation = true;
      track_traces = true;
      visited_store = None;
      obs = Obs.null;
      symmetry = Dsm.Symmetry.id_spec ~degree:P.num_nodes;
    }

  (* The key of a global state (Fingerprint.Mix): the positional mix of
     its node digests plus the multiset sum of its envelope digests.
     The crash counts join only once some node has crashed, so a
     [crash_budget = 0] run keys on nodes and network alone. *)
  let compose nodes_key net_key crashes =
    let crash_term =
      if Array.exists (fun c -> c > 0) crashes then Mix.of_value crashes
      else Mix.zero
    in
    Mix.to_fp (Mix.add nodes_key (Mix.add net_key crash_term))

  let key_of ~nodes ~bindings ~crashes =
    compose
      (Mix.slots (Array.map Mix.of_value nodes))
      (Mix.bindings bindings) crashes

  (* The same key from the parts a [global] caches: O(1) per state. *)
  let key g = compose g.nodes_key g.net_key g.crashes

  let make_global nodes net crashes =
    let digests = Array.map Mix.of_value nodes in
    {
      nodes;
      net;
      crashes;
      digests;
      nodes_key = Mix.slots digests;
      net_key = Mix.bindings (Net.Multiset.bindings net);
    }

  (* [g] with node [n] in [state'] of digest [d]: the one node digest a
     successor pays, and the positional sum moved by the difference. *)
  let with_node g n state' d =
    let nodes = Array.copy g.nodes in
    nodes.(n) <- state';
    let digests = Array.copy g.digests in
    digests.(n) <- d;
    {
      g with
      nodes;
      digests;
      nodes_key = Mix.add g.nodes_key (Mix.slot n (Mix.sub d g.digests.(n)));
    }

  let envelopes_key out =
    List.fold_left (fun acc e -> Mix.add acc (Mix.of_value e)) Mix.zero out

  (* Key of the image of [g] under one permutation: node [p.(i)] takes
     node [i]'s identifier-rewritten state, envelopes are renamed (the
     multiset sum needs no re-sorting), crash counters travel with
     their node. *)
  let permuted_key spec p g =
    let bindings = Net.Multiset.bindings g.net in
    let nodes, envs =
      Dsm.Symmetry.permute_global spec p g.nodes (List.map fst bindings)
    in
    key_of ~nodes
      ~bindings:(List.map2 (fun e (_, c) -> (e, c)) envs bindings)
      ~crashes:(Dsm.Symmetry.permute_slots p g.crashes)

  (* Canonical (least-over-orbit) key, given the state's raw key.  With
     the identity group this IS the raw key. *)
  let canonical_key (spec : (P.state, P.message) Dsm.Symmetry.spec) g raw =
    if Dsm.Symmetry.is_trivial spec.Dsm.Symmetry.group then raw
    else
      List.fold_left
        (fun best p ->
          if Dsm.Symmetry.is_identity p then best
          else
            let f = permuted_key spec p g in
            if Fingerprint.compare f best < 0 then f else best)
        raw spec.Dsm.Symmetry.group.Dsm.Symmetry.elements

  (* Per-entry analytic footprint of the visited set: 16-byte key
     plus hash-table slot overhead (next pointer, depth). *)
  let visited_entry_bytes = Fingerprint.size + 48
  let parent_entry_bytes = (2 * Fingerprint.size) + 80

  (* Metric handles resolved once per run; see the LMC checker for the
     cost model (atomic increments on the hot path). *)
  type obs_handles = {
    scope : Obs.scope;
    trace : Obs.Trace.t;  (* the scope's recorder *)
    c_transitions : Obs.Metrics.counter;
    c_global_states : Obs.Metrics.counter;
    c_system_states : Obs.Metrics.counter;
    c_orbit_hits : Obs.Metrics.counter;
    h_depth : Obs.Metrics.histogram;
  }

  let make_obs_handles (config : config) =
    let scope = config.obs in
    {
      scope;
      trace = Obs.recorder scope;
      c_transitions = Obs.counter scope "bdfs.transitions";
      c_global_states = Obs.counter scope "bdfs.global_states";
      c_system_states = Obs.counter scope "bdfs.system_states";
      c_orbit_hits = Obs.counter scope "bdfs.orbit_hits";
      h_depth = Obs.histogram scope "bdfs.depth";
    }

  module RWB = Obs.Replay.Make (P)

  let step_label = function
    | Trace.Deliver env ->
        Format.asprintf "%a" P.pp_message env.Envelope.payload
    | Trace.Execute (_, a) -> Format.asprintf "%a" P.pp_action a
    | Trace.Crash _ -> "crash-recover"

  (* One flight-recorder step for a first-visited global state.  [inj]
     maps message fingerprints to the seq of the step that produced
     them, giving deliveries their provenance link. *)
  let record_global_step ~trace ~inj step out ~fp_before ~fp_after ~depth =
    let node, kind, src, consumed =
      match step with
      | Trace.Deliver env ->
          let mfp = Fingerprint.of_value env in
          ( env.Envelope.dst,
            Obs.Trace.Deliver,
            env.Envelope.src,
            Some
              ( Fingerprint.to_hex mfp,
                match Hashtbl.find_opt inj mfp with
                | Some s -> s
                | None -> -1 ) )
      | Trace.Execute (n, _) -> (n, Obs.Trace.Action, -1, None)
      | Trace.Crash n -> (n, Obs.Trace.Crash, -1, None)
    in
    let produces = List.map Fingerprint.of_value out in
    let seq =
      Obs.Trace.record_step trace
        {
          Obs.Trace.node;
          kind;
          src;
          label = step_label step;
          fp_before = Fingerprint.to_hex fp_before;
          fp_after = Fingerprint.to_hex fp_after;
          consumed;
          produced = List.map Fingerprint.to_hex produces;
          depth;
          dom = 0;
        }
    in
    List.iter
      (fun f -> if not (Hashtbl.mem inj f) then Hashtbl.add inj f seq)
      produces

  let record_run_header ~trace =
    ignore
      (Obs.Trace.emit trace ~ev:"bdfs_run"
         [
           ("protocol", Dsm.Json.String P.name);
           ("nodes", Dsm.Json.Int P.num_nodes);
           ("key", Dsm.Json.String key_name);
         ])

  let record_run_end ~trace ~symmetry (outcome : outcome) =
    ignore
      (Obs.Trace.emit trace ~ev:"bdfs_end"
         [
           ("transitions", Dsm.Json.Int outcome.stats.transitions);
           ("global_states", Dsm.Json.Int outcome.stats.global_states);
           ("violation", Dsm.Json.Bool (outcome.violation <> None));
           ("symmetry", Dsm.Json.String (Dsm.Symmetry.name symmetry));
           ("orbit_hits", Dsm.Json.Int outcome.stats.orbit_hits);
           ("completed", Dsm.Json.Bool outcome.completed);
         ]);
    Obs.Trace.flush trace

  type search = {
    config : config;
    o : obs_handles;
    tracing : bool;
    reduce : bool;  (* [config.symmetry] is non-trivial *)
    binj : (Fingerprint.t, int) Hashtbl.t;
    root : P.state array;  (* starting states, for witness records *)
    invariant : P.state Dsm.Invariant.t;
    visited : (Fingerprint.t, int) Hashtbl.t;
        (* canonical key -> min depth, for the DFS; empty when
           [config.visited_store] holds presence on disk instead.  With
           the identity group canonical = raw *)
    parents :
      (Fingerprint.t, Fingerprint.t option * (P.message, P.action) Trace.step)
      Hashtbl.t;
        (* keyed by canonical keys; each key resolves to the
           unique first-visited (original-coordinate) state of its
           orbit, so a rebuilt chain is a real executable path *)
    mutable transitions : int;
    mutable global_states : int;  (* states first visited by this run *)
    mutable store_hits : int;
        (* successors already present in [config.visited_store] *)
    mutable orbit_hits : int;
    system_states : (Fingerprint.t, unit) Hashtbl.t;
    mutable max_depth_reached : int;
    mutable violation : violation option;
    mutable truncated : bool;  (* some limit tripped *)
    started : float;
  }

  exception Stop

  let check_budget s =
    let over =
      (match s.config.time_limit with
      | Some limit -> Unix.gettimeofday () -. s.started > limit
      | None -> false)
      ||
      match s.config.max_transitions with
      | Some limit -> s.transitions >= limit
      | None -> false
    in
    if over then begin
      s.truncated <- true;
      raise Stop
    end

  let rebuild_trace s fp =
    let rec walk fp acc =
      match Hashtbl.find_opt s.parents fp with
      | None -> acc
      | Some (parent, step) -> (
          match parent with
          | None -> step :: acc
          | Some pfp -> walk pfp (step :: acc))
    in
    walk fp []

  let record_violation s g fp depth violation =
    if s.violation = None then begin
      let tr = if s.config.track_traces then rebuild_trace s fp else [] in
      s.violation <-
        Some { system = Array.copy g.nodes; violation; trace = tr; depth };
      if s.tracing && s.config.track_traces then
        ignore
          (Obs.Trace.emit s.o.trace ~ev:"witness"
             (RWB.witness_fields ~init:s.root ~schedule:tr
                ~invariant:violation.Dsm.Invariant.invariant
                ~detail:violation.Dsm.Invariant.detail))
    end

  (* Successors of a global state: one delivery per distinct in-flight
     message, one execution per enabled internal action.  A handler
     raising Local_assert makes the transition disabled.  The sent
     messages travel alongside each successor so the flight recorder
     can log productions without re-running the handler. *)
  let successors ~crash_budget g =
    let deliveries =
      Net.Multiset.fold_distinct
        (fun env _count acc ->
          let node = env.Envelope.dst in
          match P.handle_message ~self:node g.nodes.(node) env with
          | exception Dsm.Protocol.Local_assert _ -> acc
          | state', out ->
              let g' = with_node g node state' (Mix.of_value state') in
              let net =
                match Net.Multiset.remove env g.net with
                | Some net -> Net.Multiset.add_list out net
                | None -> assert false
              in
              let net_key =
                Mix.add
                  (Mix.sub g.net_key (Mix.of_value env))
                  (envelopes_key out)
              in
              (Trace.Deliver env, { g' with net; net_key }, out) :: acc)
        g.net []
    in
    let actions =
      List.concat_map
        (fun n ->
          List.filter_map
            (fun action ->
              match P.handle_action ~self:n g.nodes.(n) action with
              | exception Dsm.Protocol.Local_assert _ -> None
              | state', out ->
                  let g' = with_node g n state' (Mix.of_value state') in
                  let net = Net.Multiset.add_list out g.net in
                  let net_key = Mix.add g.net_key (envelopes_key out) in
                  Some
                    (Trace.Execute (n, action), { g' with net; net_key }, out))
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
              let d = Mix.of_value state' in
              (* a recovery that lands on the same state adds nothing:
                 every successor of the crashed branch exists verbatim
                 on the uncrashed one, so the prune is sound *)
              if Mix.equal d g.digests.(n) then None
              else begin
                let crashes = Array.copy g.crashes in
                crashes.(n) <- crashes.(n) + 1;
                let g' = with_node g n state' d in
                Some (Trace.Crash n, { g' with crashes }, [])
              end)
          (Dsm.Node_id.all P.num_nodes)
    in
    List.rev_append deliveries (actions @ crashes)

  let heartbeat s =
    Obs.heartbeat s.o.scope (fun () ->
        [
          ("transitions", Dsm.Json.Int s.transitions);
          ("global_states", Dsm.Json.Int s.global_states);
          ("system_states", Dsm.Json.Int (Hashtbl.length s.system_states));
          ("max_depth", Dsm.Json.Int s.max_depth_reached);
          ( "elapsed_s",
            Dsm.Json.Float (Unix.gettimeofday () -. s.started) );
        ])

  let count_transition s =
    s.transitions <- s.transitions + 1;
    Obs.Metrics.incr s.o.c_transitions

  let count_global_state s =
    s.global_states <- s.global_states + 1;
    Obs.Metrics.incr s.o.c_global_states

  (* System states are keyed by the node-digest mix alone. *)
  let note_system_state s g =
    let sys_key = Mix.to_fp g.nodes_key in
    if not (Hashtbl.mem s.system_states sys_key) then begin
      Hashtbl.replace s.system_states sys_key ();
      Obs.Metrics.incr s.o.c_system_states
    end

  let orbit_hit s =
    s.orbit_hits <- s.orbit_hits + 1;
    Obs.Metrics.incr s.o.c_orbit_hits

  (* Everything a first visit does besides the visited-set insert:
     parent link, step record, system-state tally and the invariant. *)
  let first_visit s ~parent_fp ~parent_cfp step out g' fp' cfp' depth' =
    Obs.Metrics.observe s.o.h_depth depth';
    if s.config.track_traces then
      Hashtbl.replace s.parents cfp' (Some parent_cfp, step);
    if s.tracing then
      record_global_step ~trace:s.o.trace ~inj:s.binj step out
        ~fp_before:parent_fp ~fp_after:fp' ~depth:depth';
    note_system_state s g';
    match Dsm.Invariant.check s.invariant g'.nodes with
    | Some violation ->
        record_violation s g' cfp' depth' violation;
        if s.config.stop_on_violation then raise Stop
    | None -> ()

  (* The recursive DFS.  [fp] is the raw key of [g] (trace records stay
     in original coordinates, so witness replay re-derives them); [cfp]
     its canonical form, keying the visited and parent tables.  The
     budget is checked before each transition, as in [explore_layers],
     so [max_transitions] is exact. *)
  let rec explore s g fp cfp depth =
    heartbeat s;
    if depth > s.max_depth_reached then s.max_depth_reached <- depth;
    let depth_ok =
      match s.config.max_depth with Some d -> depth < d | None -> true
    in
    if depth_ok then
      List.iter
        (fun (step, g', out) ->
          check_budget s;
          count_transition s;
          let fp' = key g' in
          let cfp' = canonical_key s.config.symmetry g' fp' in
          let depth' = depth + 1 in
          match Hashtbl.find_opt s.visited cfp' with
          | Some d when depth' >= d ->
              if s.reduce && not (Fingerprint.equal fp' cfp') then
                orbit_hit s
          | known ->
              (* new, or rediscovered at a shallower depth: re-expand *)
              Hashtbl.replace s.visited cfp' depth';
              if known = None then begin
                count_global_state s;
                first_visit s ~parent_fp:fp ~parent_cfp:cfp step out g' fp'
                  cfp' depth'
              end;
              explore s g' fp' cfp' depth')
        (successors ~crash_budget:s.config.crash_budget g)

  (* Layered (breadth-first) expansion over the disk-backed visited
     set.  Layers visit each state at its minimum depth, so the
     presence-only set is exactly equivalent to the DFS's depth-keyed
     table; the traversal order differs, but on an exhausted space the
     explored set and the verdict are the same. *)
  let explore_layers s store g fp cfp =
    let frontier = ref [ (g, fp, cfp) ] in
    let depth = ref 0 in
    while !frontier <> [] do
      heartbeat s;
      let layer = !frontier in
      frontier := [];
      let depth' = !depth + 1 in
      let depth_ok =
        match s.config.max_depth with Some d -> !depth < d | None -> true
      in
      if depth_ok then begin
        let next = ref [] in
        List.iter
          (fun (g, fp, cfp) ->
            List.iter
              (fun (step, g', out) ->
                check_budget s;
                count_transition s;
                let fp' = key g' in
                let cfp' = canonical_key s.config.symmetry g' fp' in
                if Store.Fp_set.add store cfp' then begin
                  count_global_state s;
                  if depth' > s.max_depth_reached then
                    s.max_depth_reached <- depth';
                  first_visit s ~parent_fp:fp ~parent_cfp:cfp step out g' fp'
                    cfp' depth';
                  next := (g', fp', cfp') :: !next
                end
                else begin
                  s.store_hits <- s.store_hits + 1;
                  if s.reduce && not (Fingerprint.equal fp' cfp') then
                    orbit_hit s
                end)
              (successors ~crash_budget:s.config.crash_budget g))
          layer;
        frontier := List.rev !next;
        depth := depth'
      end
    done

  let run config ~invariant ?(initial_net = []) init =
    Obs.frame config.obs "bdfs" @@ fun () ->
    let g =
      make_global (Array.copy init)
        (Net.Multiset.of_list initial_net)
        (Array.make P.num_nodes 0)
    in
    let o = make_obs_handles config in
    let s =
      {
        config;
        o;
        tracing = Obs.Trace.enabled o.trace;
        reduce =
          not (Dsm.Symmetry.is_trivial config.symmetry.Dsm.Symmetry.group);
        binj = Hashtbl.create 256;
        root = Array.copy init;
        invariant;
        visited = Hashtbl.create 4096;
        parents = Hashtbl.create 4096;
        transitions = 0;
        global_states = 0;
        store_hits = 0;
        orbit_hits = 0;
        system_states = Hashtbl.create 4096;
        max_depth_reached = 0;
        violation = None;
        truncated = false;
        started = Unix.gettimeofday ();
      }
    in
    if s.tracing then record_run_header ~trace:o.trace;
    let fp = key g in
    let cfp = canonical_key config.symmetry g fp in
    let fresh =
      match config.visited_store with
      | None ->
          Hashtbl.replace s.visited cfp 0;
          true
      | Some store -> Store.Fp_set.add store cfp
    in
    if fresh then count_global_state s else s.store_hits <- s.store_hits + 1;
    (* The root has no parent entry; [rebuild_trace] stops there. *)
    note_system_state s g;
    (match Dsm.Invariant.check invariant g.nodes with
    | Some violation -> record_violation s g cfp 0 violation
    | None -> ());
    (if not (config.stop_on_violation && s.violation <> None) then
       try
         match config.visited_store with
         | None -> explore s g fp cfp 0
         | Some store -> explore_layers s store g fp cfp
       with Stop -> ());
    let elapsed = Unix.gettimeofday () -. s.started in
    let retained_bytes =
      (* with a disk-backed visited set the keys live in the
         page cache, not the heap: only the parent table is retained *)
      (Hashtbl.length s.visited * visited_entry_bytes)
      + (Hashtbl.length s.parents * parent_entry_bytes)
    in
    let outcome =
      {
        stats =
          {
            transitions = s.transitions;
            global_states = s.global_states;
            system_states = Hashtbl.length s.system_states;
            max_depth_reached = s.max_depth_reached;
            retained_bytes;
            store_hits = s.store_hits;
            orbit_hits = s.orbit_hits;
            elapsed;
          };
        violation = s.violation;
        completed = not s.truncated;
      }
    in
    if s.tracing then
      record_run_end ~trace:o.trace
        ~symmetry:config.symmetry.Dsm.Symmetry.group outcome;
    outcome
end
