(* Cross-restart persistence (lib/store): not parameterised by the
   protocol, so the online supervisor can build it once and thread it
   through every [Make(P)] restart. *)
type persist = {
  p_combos : Store.Fp_set.t;
      (* combinations whose invariant check came back clean; the
         verdict is a pure function of the tuple, so a clean
         combination stays clean and warm restarts skip it *)
  p_nodes : Store.Fp_set.t array;
      (* per-node visited node-state fingerprints, across restarts *)
  p_iplus : Store.Fp_set.t;  (* every message that ever entered I+ *)
}

module Make (P : Dsm.Protocol.S) = struct
  module Envelope = Dsm.Envelope
  module Fingerprint = Dsm.Fingerprint
  module Id_table = Dsm.Id_table
  module Vec = Dsm.Vec
  module Trace = Dsm.Trace

  type 'k strategy =
    | General
    | Invariant_specific of {
        abstract : P.state -> 'k option;
        conflict : 'k -> 'k -> bool;
      }
    | Automatic

  type config = {
    max_depth : int option;
    time_limit : float option;
    max_transitions : int option;
    local_action_bound : int option;
    crash_budget : int;
        (* crash-recovery events allowed per node path; 0 (default)
           explores no crashes and leaves the state graph untouched *)
    create_system_states : bool;
    verify_soundness : bool;
    use_history : bool;
    stop_on_violation : bool;
    soundness_budget : int;
    max_preds_per_entry : int;
    max_rejected_cache : int;
    defer_soundness : bool;
    obs : Obs.scope;
    persist : persist option;
        (* disk-backed stores shared across restarts *)
  }

  let default_config =
    {
      max_depth = None;
      time_limit = None;
      max_transitions = None;
      local_action_bound = None;
      crash_budget = 0;
      create_system_states = true;
      verify_soundness = true;
      use_history = true;
      stop_on_violation = true;
      soundness_budget = 50_000;
      max_preds_per_entry = 256;
      max_rejected_cache = 20_000;
      defer_soundness = false;
      obs = Obs.null;
      persist = None;
    }

  type violation = {
    system : P.state array;
    violation : Dsm.Invariant.violation;
    schedule : (P.message, P.action) Trace.t;
    system_depth : int;
  }

  type result = {
    node_states : int array;
    total_node_states : int;
    transitions : int;
    net_messages : int;
    system_states_created : int;
    preliminary_violations : int;
    sound_violation : violation option;
    soundness_calls : int;
    soundness_rejections : int;
    soundness_budget_exhausted : int;
    local_assert_drops : int;
    store_hits : int;
        (** combinations skipped because a previous (or earlier) run
            already proved them invariant-clean; [0] without
            [config.persist] *)
    completed : bool;
    elapsed : float;
    system_state_time : float;
    soundness_time : float;
    retained_bytes : int;
    max_system_depth : int;
    max_node_depth : int;
  }

  let explore_time r = r.elapsed -. r.system_state_time -. r.soundness_time

  type event_kind = Net_event of int | Action_event of P.action | Crash_event

  (* One event, interned per run by its label and the I+ ids it
     produced.  A label names its node (a message its destination, an
     action or crash label hashes the node in), so the pair names one
     node's event.  Both soundness views are built once, here, and
     shared by every predecessor pointer that names the event. *)
  type event_info = {
    kind : event_kind;
    req : int;  (* I+ id consumed; -1 for an action or a crash *)
    made : Soundness.Bits.t;  (* I+ ids produced *)
    sev : Soundness.event;  (* the DAG search's view *)
  }

  (* An entry's feasibility summary ({!Soundness.summarise}), valid
     while its node's store generation is still [gen]. *)
  type stamped = { gen : int; sum : Soundness.summary }

  let unsummarised =
    { gen = -1; sum = { must = None; prod = Soundness.Bits.empty } }

  type 'k entry = {
    idx : int;
    node : Dsm.Node_id.t;
    state : P.state;
    fp : Fingerprint.t;
    history : Soundness.Bits.t;  (* I+ ids delivered on the path here *)
    depth : int;
    local_count : int;
    crashes : int;  (* crash-recoveries consumed on the path here *)
    key : 'k option;
    mutable preds : int array;
        (* predecessor pointers, oldest first: pointer [k] is the pair
           (previous entry's index, event id) at [2k], [2k + 1] *)
    mutable npreds : int;  (* pointers held; the rest is spare room *)
    mutable fp_hex : string option;
        (* hex rendering of [fp], cached — every outgoing transition
           of this entry puts it in a step record's [fp_before] *)
    mutable summary : stamped;
        (* cached soundness prefilter input; recomputed on use once a
           predecessor pointer lands anywhere in this node's store *)
  }

  (* LMC-OPT's partner index over one node's store: its keyed entries,
     one bucket per distinct abstract key, each bucket in store order.
     Keys are looked up by structural equality and hashing, so they
     must be pure data; a key that is not canonical costs an extra
     bucket, never a missed partner. *)
  type 'k keyed = {
    bucket_of : ('k, 'k entry Vec.t) Hashtbl.t;
    key_order : ('k * 'k entry Vec.t) Vec.t;  (* first-seen order *)
  }

  type net_entry = {
    net_id : int;
    env : P.message Envelope.t;
    net_fp : Fingerprint.t;
    mutable cursor : int;  (* states of [env.dst] already served *)
    mutable first_inj : int;
        (* I+ provenance: seq of the step record that first injected
           this message; -1 = predates recording (or recording off) *)
    mutable lbl : string option;
        (* rendered payload, cached — exploration delivers the same
           message to many states, the trace renders it once *)
    mutable hex : string option;  (* hex of [net_fp], same reuse story *)
    mutable frm : string option;
        (* profiler frame name ("deliver:Accept"), cached on the entry
           so the per-transition push is a field read, not a lookup *)
  }

  (* A preliminary violation awaiting the final pass: soundness-rejected
     and cached so it can be re-verified once exploration has added more
     predecessor pointers (the remedy §4.2 suggests for the
     simplification of verifying only at state-creation time), or, under
     [defer_soundness], not judged yet.  The system state is rebuilt
     from [r_tuple] when it is judged.  The violation is lazy: a tuple
     whose pinned pair violates is known to violate before its detail
     is rendered ({!consider_combo}). *)
  type 'k rejected = {
    r_tuple : 'k entry array;
    r_violation : Dsm.Invariant.violation Lazy.t;
    r_depth : int;
  }

  (* Pre-resolved metric handles: the registry lookup happens once per
     run, the hot loops pay one atomic increment per update.  The
     counters mirror the [result] record exactly, so a metrics dump of
     a finished run agrees with the printed summary. *)
  type obs_handles = {
    scope : Obs.scope;
    trace : Obs.Trace.t;  (* the scope's recorder, resolved once *)
    prof : Obs.Prof.t option;  (* the scope's sampling profiler, resolved once *)
    fam_act : (P.action, string) Hashtbl.t;
        (* action -> profiler frame name ("action:Propose"), touched
           only when a profiler is attached; delivery frames are
           cached on the net entry itself ([net_entry.frm]) *)
    c_transitions : Obs.Metrics.counter;
    c_node_states : Obs.Metrics.counter;
    c_net_messages : Obs.Metrics.counter;
    c_system_states : Obs.Metrics.counter;
    c_prelim : Obs.Metrics.counter;
    c_soundness_calls : Obs.Metrics.counter;
    c_rejections : Obs.Metrics.counter;
    c_budget_exhausted : Obs.Metrics.counter;
    c_local_drops : Obs.Metrics.counter;
    c_store_hits : Obs.Metrics.counter;
    h_system_depth : Obs.Metrics.histogram;
    h_node_depth : Obs.Metrics.histogram;
    h_soundness_us : Obs.Metrics.histogram;
  }

  let make_obs_handles (config : config) =
    let scope = config.obs in
    {
      scope;
      trace = Obs.recorder scope;
      prof = Obs.prof scope;
      fam_act = Hashtbl.create 16;
      c_transitions = Obs.counter scope "lmc.transitions";
      c_node_states = Obs.counter scope "lmc.node_states";
      c_net_messages = Obs.counter scope "lmc.net_messages";
      c_system_states = Obs.counter scope "lmc.system_states_created";
      c_prelim = Obs.counter scope "lmc.preliminary_violations";
      c_soundness_calls = Obs.counter scope "lmc.soundness_calls";
      c_rejections = Obs.counter scope "lmc.soundness_rejections";
      c_budget_exhausted = Obs.counter scope "lmc.soundness_budget_exhausted";
      c_local_drops = Obs.counter scope "lmc.local_assert_drops";
      c_store_hits = Obs.counter scope "lmc.store_hits";
      h_system_depth = Obs.histogram scope "lmc.system_depth";
      h_node_depth = Obs.histogram scope "lmc.node_depth";
      h_soundness_us = Obs.histogram scope "lmc.soundness_us";
    }

  (* Witness records embed marshalled protocol values so [lmc replay]
     can re-execute them against the live handlers. *)
  module RW = Obs.Replay.Make (P)

  type 'k t = {
    config : config;
    crash_labels : Fingerprint.t array array;
        (* [crash_labels.(n).(k)]: label of node [n]'s (k+1)-th
           crash-recovery, precomputed so the hot path never hashes;
           empty when [crash_budget = 0] *)
    o : obs_handles;
    soundness : Soundness.handles;
        (* the search's own metrics, resolved once per run like [o]'s
           (kept out of [o]: one more word there moves that record
           into a size class of its own, and lmc-explore's heap peak
           by a 32 KB pool) *)
    tracing : bool;  (* the recorder is enabled; gates field assembly *)
    snapshot : P.state array;  (* starting states, for witness records *)
    ph_handler_us : int ref;
    ph_fingerprint_us : int ref;
    ph_invariant_us : int ref;  (* per-phase attribution *)
    mutable timed_tick : int;  (* sampling cursor for {!timed} *)
    act_lbl : (P.action, string) Hashtbl.t;
        (* rendered action labels, cached like [net_entry.lbl] *)
    strategy : 'k strategy;
    invariant : P.state Dsm.Invariant.t;
    stores : 'k entry Vec.t array;
    gens : int array;
        (* per-node store generation, bumped whenever a predecessor
           pointer is added to an existing entry: the only event that
           can change an existing entry's feasibility summary *)
    by_fp : Id_table.t array;  (* per node: fingerprint -> store index *)
    keyed : 'k keyed array;
    action_cursor : int array;  (* states already expanded for actions *)
    crash_cursor : int array;  (* states already expanded for crashes *)
    net : net_entry Vec.t;
    net_by_fp : Id_table.t;  (* fingerprint -> I+ id *)
    events : event_info Vec.t;  (* interned events, by id *)
    event_ids : Id_table.t;  (* (label, produced I+ ids) -> event id *)
    rejected : 'k rejected Vec.t;
    started : float;
    mutable transitions : int;
    mutable system_states_created : int;
    mutable store_hits : int;
    mutable preliminary_violations : int;
    mutable soundness_calls : int;
    mutable soundness_rejections : int;
    mutable local_assert_drops : int;
    mutable soundness_budget_exhausted : int;
    mutable sound_violation : violation option;
    mutable system_state_time : float;
    mutable soundness_time : float;
    mutable max_system_depth : int;
    mutable max_node_depth : int;
    mutable truncated : bool;
  }

  exception Stop

  (* A confirmed violation ends the run under [stop_on_violation]. *)
  let stopped t = t.config.stop_on_violation && t.sound_violation <> None

  let now () = Unix.gettimeofday ()

  let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

  (* Attribute [f]'s wall time to [cell] when recording; free otherwise.
     Attribution is sampled: every 256th call is timed and counted for
     256, so the hot path pays two clock reads on 0.4% of calls
     instead of all of them.  Invariant checks on tuple states make
     this wrapper far hotter than the step records themselves (tuple
     enumeration grows with depth while the state graph saturates), so
     the sampling stride is what keeps the ring recorder inside its 2%
     budget.  The phases record is a statistical profile either way —
     wall-clock is not part of the determinism contract. *)
  let sample_mask = 255

  let timed t cell f =
    let tick = t.timed_tick in
    t.timed_tick <- tick + 1;
    if t.tracing && tick land sample_mask = 0 then begin
      let t0 = now_us () in
      let r = f () in
      cell := !cell + ((now_us () - t0) * (sample_mask + 1));
      r
    end
    else f ()

  (* ----- flight-recorder emission ----- *)

  (* Label caches: exploration revisits the same messages and actions
     constantly, so each distinct value is rendered through Format
     once and the trace reuses the string. *)
  let message_label (m : net_entry) =
    match m.lbl with
    | Some l -> l
    | None ->
        let l = Format.asprintf "%a" P.pp_message m.env.Envelope.payload in
        m.lbl <- Some l;
        l

  let action_label t action =
    match Hashtbl.find_opt t.act_lbl action with
    | Some l -> l
    | None ->
        let l = Format.asprintf "%a" P.pp_action action in
        Hashtbl.add t.act_lbl action l;
        l

  let message_hex (m : net_entry) =
    match m.hex with
    | Some h -> h
    | None ->
        let h = Fingerprint.to_hex m.net_fp in
        m.hex <- Some h;
        h

  (* ----- profiler frames ----- *)

  (* Frame names group by label *family* — the constructor before any
     payload — so "Accept(2,7)" and "Accept(3,1)" share one flamegraph
     frame.  Memoised per rendered label; only touched with a profiler
     attached. *)
  let label_family label =
    let cut = ref (String.length label) in
    (match String.index_opt label '(' with
    | Some i -> if i < !cut then cut := i
    | None -> ());
    (match String.index_opt label ' ' with
    | Some i -> if i < !cut then cut := i
    | None -> ());
    String.sub label 0 !cut

  let net_frame (m : net_entry) =
    match m.frm with
    | Some f -> f
    | None ->
        let f = "deliver:" ^ label_family (message_label m) in
        m.frm <- Some f;
        f

  let action_frame t action =
    match Hashtbl.find_opt t.o.fam_act action with
    | Some f -> f
    | None ->
        let f = "action:" ^ label_family (action_label t action) in
        Hashtbl.add t.o.fam_act action f;
        f

  let entry_hex (e : 'k entry) =
    match e.fp_hex with
    | Some h -> h
    | None ->
        let h = Fingerprint.to_hex e.fp in
        e.fp_hex <- Some h;
        h

  (* [label] is a thunk: rendering a message or action goes through
     Format, which is the most expensive part of assembling a step
     record.  Deferring it (with the hex conversions) into the record
     thunk means ring-mode recording pays neither per transition.
     Provenance stays eager — [consumed] carries the [first_inj] the
     caller read before this emit, and the produced entries are
     stamped right after it, because a read deferred to dump time
     could see a later injection. *)
  let stamp_injections pentries seq =
    List.iter
      (fun e -> if e.first_inj < 0 then e.first_inj <- seq)
      pentries

  let record_net_step t (m : net_entry) (entry : 'k entry) ~fp_after ~pentries
      =
    let consumed_inj = m.first_inj in
    let depth = entry.depth + 1 in
    let seq =
      Obs.Trace.record_step_lazy t.o.trace (fun () ->
          {
            Obs.Trace.node = m.env.Envelope.dst;
            kind = Obs.Trace.Deliver;
            src = m.env.Envelope.src;
            label = message_label m;
            fp_before = entry_hex entry;
            fp_after = Fingerprint.to_hex fp_after;
            consumed = Some (message_hex m, consumed_inj);
            produced = List.map message_hex pentries;
            depth;
            dom = 0;
          })
    in
    stamp_injections pentries seq

  let record_act_step t ~node action (entry : 'k entry) ~fp_after ~pentries =
    let depth = entry.depth + 1 in
    let seq =
      Obs.Trace.record_step_lazy t.o.trace (fun () ->
          {
            Obs.Trace.node;
            kind = Obs.Trace.Action;
            src = -1;
            label = action_label t action;
            fp_before = entry_hex entry;
            fp_after = Fingerprint.to_hex fp_after;
            consumed = None;
            produced = List.map message_hex pentries;
            depth;
            dom = 0;
          })
    in
    stamp_injections pentries seq

  let record_crash_step t ~node (entry : 'k entry) ~fp_after =
    ignore
      (Obs.Trace.record_step_lazy t.o.trace (fun () ->
           {
             Obs.Trace.node;
             kind = Obs.Trace.Crash;
             src = -1;
             label = "crash-recover";
             fp_before = entry_hex entry;
             fp_after = Fingerprint.to_hex fp_after;
             consumed = None;
             produced = [];
             depth = entry.depth + 1;
             dom = 0;
           }))

  let record_drop t ~node ~kind ~src ~label ~fp_before ~depth =
    ignore
      (Obs.Trace.emit_lazy t.o.trace ~ev:"drop" (fun () ->
           [
             ("node", Dsm.Json.Int node);
             ("kind", Dsm.Json.String kind);
             ("src", Dsm.Json.Int src);
             ("label", Dsm.Json.String (label ()));
             ("fp_before", Dsm.Json.String (Fingerprint.to_hex fp_before));
             ("depth", Dsm.Json.Int depth);
           ]))

  let record_prelim t violation sdepth (tuple : 'k entry array) =
    let violation : Dsm.Invariant.violation = Lazy.force violation in
    ignore
      (Obs.Trace.emit t.o.trace ~ev:"prelim"
         [
           ("invariant", Dsm.Json.String violation.Dsm.Invariant.invariant);
           ("detail", Dsm.Json.String violation.Dsm.Invariant.detail);
           ("system_depth", Dsm.Json.Int sdepth);
           ( "tuple",
             Dsm.Json.List
               (Array.to_list
                  (Array.map
                     (fun (e : 'k entry) ->
                       Dsm.Json.String (Fingerprint.to_hex e.fp))
                     tuple)) );
         ])

  let record_witness t (violation : Dsm.Invariant.violation) schedule =
    ignore
      (Obs.Trace.emit t.o.trace ~ev:"witness"
         (RW.witness_fields ~init:t.snapshot ~schedule
            ~invariant:violation.Dsm.Invariant.invariant
            ~detail:violation.Dsm.Invariant.detail))

  (* Live progress for long runs: explored node states, |I+| and the
     violation tallies (§5's headline numbers), reported while the
     checker is still working.  Sits on the per-transition path — the
     heartbeat's common case is a branch and an integer increment. *)
  let heartbeat t =
    Obs.heartbeat t.o.scope (fun () ->
        [
          ("transitions", Dsm.Json.Int t.transitions);
          ( "node_states",
            Dsm.Json.Int
              (Array.fold_left (fun acc s -> acc + Vec.length s) 0 t.stores)
          );
          ("net_messages", Dsm.Json.Int (Vec.length t.net));
          ("system_states", Dsm.Json.Int t.system_states_created);
          ("preliminary_violations", Dsm.Json.Int t.preliminary_violations);
          ("elapsed_s", Dsm.Json.Float (now () -. t.started));
        ])

  let check_budget t =
    heartbeat t;
    let over_time =
      match t.config.time_limit with
      | Some limit -> now () -. t.started > limit
      | None -> false
    in
    let over_transitions =
      match t.config.max_transitions with
      | Some limit -> t.transitions >= limit
      | None -> false
    in
    if over_time || over_transitions then begin
      t.truncated <- true;
      raise Stop
    end

  let abstract_key t state =
    match t.strategy with
    | General | Automatic -> None
    | Invariant_specific { abstract; _ } -> abstract state

  (* File a new entry under its abstract key; unkeyed entries are never
     LMC-OPT partners. *)
  let index_key t (e : 'k entry) =
    match e.key with
    | None -> ()
    | Some k ->
        let kd = t.keyed.(e.node) in
        let bucket =
          match Hashtbl.find_opt kd.bucket_of k with
          | Some b -> b
          | None ->
              let b = Vec.create () in
              Hashtbl.add kd.bucket_of k b;
              ignore (Vec.push kd.key_order (k, b));
              b
        in
        ignore (Vec.push bucket e)

  (* The intern tables' hash of a fingerprint: its first 8 bytes.  A
     table hit is always confirmed against the full 16 bytes. *)
  let fp_hash (fp : Fingerprint.t) = Int64.to_int (String.get_int64_le fp 0)

  let depth_allows t d =
    match t.config.max_depth with Some bound -> d <= bound | None -> true

  (* Add a generated message to the shared network I+, deduplicating by
     fingerprint (the paper's duplicate limit of zero).  The returned
     message's I+ id always enters the producing event's [produces] list:
     soundness bookkeeping counts productions, not distinct contents. *)
  let register_message t env fp =
    let h = fp_hash fp in
    match
      Id_table.find t.net_by_fp h (fun id ->
          Fingerprint.equal (Vec.get t.net id).net_fp fp)
    with
    | id when id >= 0 -> Vec.get t.net id
    | _ ->
        let id = Vec.length t.net in
        let entry =
          {
            net_id = id;
            env;
            net_fp = fp;
            cursor = 0;
            first_inj = -1;
            lbl = None;
            hex = None;
            frm = None;
          }
        in
        ignore (Vec.push t.net entry);
        Id_table.add t.net_by_fp h id;
        (match t.config.persist with
        | Some p -> ignore (Store.Fp_set.add p.p_iplus fp)
        | None -> ());
        Obs.Metrics.incr t.o.c_net_messages;
        entry

  (* ----- predecessor pointers over interned events ----- *)

  (* Whether an event's produced messages, as fingerprints, are the
     I+ ids [ids] in order; I+ ids and fingerprints name the same
     messages. *)
  let rec same_produces t fps ids =
    match (fps, ids) with
    | [], [] -> true
    | fp :: fps, m :: ids ->
        Fingerprint.equal fp (Vec.get t.net m).net_fp
        && same_produces t fps ids
    | _ -> false

  (* The id of node [node]'s event [label] producing [produces], interned
     on first sight. *)
  let intern_event t ~node ~label ~kind produces =
    let h = List.fold_left (fun h m -> (h * 31) + m) (fp_hash label) produces in
    match
      Id_table.find t.event_ids h (fun id ->
          let sev = (Vec.get t.events id).sev in
          Fingerprint.equal sev.label label
          && same_produces t sev.produces produces)
    with
    | id when id >= 0 -> id
    | _ ->
        let id = Vec.length t.events in
        let req, requires =
          match kind with
          | Net_event m -> (m, Some (Vec.get t.net m).net_fp)
          | Action_event _ | Crash_event -> (-1, None)
        in
        ignore
          (Vec.push t.events
             {
               kind;
               req;
               made = Soundness.Bits.of_list produces;
               sev =
                 {
                   Soundness.node;
                   label;
                   requires;
                   produces =
                     List.map (fun m -> (Vec.get t.net m).net_fp) produces;
                 };
             });
        Id_table.add t.event_ids h id;
        id

  (* Append the pointer (prev, event id); the room doubles, up to the
     per-entry cap. *)
  let push_pred t (e : 'k entry) prev ev =
    let k = 2 * e.npreds in
    if k = Array.length e.preds then begin
      let room = max 1 (min (2 * e.npreds) t.config.max_preds_per_entry) in
      let grown = Array.make (2 * room) 0 in
      Array.blit e.preds 0 grown 0 k;
      e.preds <- grown
    end;
    e.preds.(k) <- prev;
    e.preds.(k + 1) <- ev;
    e.npreds <- e.npreds + 1

  (* [f prev event] over [e]'s pointers, newest first.  The DAG's edge
     order, and with it every witness, follows this order. *)
  let iter_preds t (e : 'k entry) f =
    for k = e.npreds - 1 downto 0 do
      f e.preds.(2 * k) (Vec.get t.events e.preds.((2 * k) + 1))
    done

  (* ----- soundness verification (isStateSound, Fig. 9) ----- *)

  let step_of_event t node (e : event_info) : (P.message, P.action) Trace.step =
    match e.kind with
    | Net_event id -> Trace.Deliver (Vec.get t.net id).env
    | Action_event a -> Trace.Execute (node, a)
    | Crash_event -> Trace.Crash node

  (* The predecessor DAG of one component node state, restricted to the
     backward closure of the target.  Self-references are ignored
     (§4.2); cycles are tolerated, the memoised search handles them. *)
  let build_graph t (entry : 'k entry)
      (by_label : (Dsm.Node_id.t * Fingerprint.t, event_info) Hashtbl.t) :
      Soundness.node_graph =
    (* Even a snapshot-state target can carry self-edges (events that
       produced messages without changing the state), so the closure is
       built uniformly. *)
    begin
      let store = t.stores.(entry.node) in
      let seen = Hashtbl.create 64 in
      let edges = ref [] in
      let stack = ref [ entry.idx ] in
      Hashtbl.replace seen entry.idx ();
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | i :: rest ->
            stack := rest;
            iter_preds t (Vec.get store i) (fun j ev ->
                (* self-edges (j = i) carry productions of events that
                   left the state unchanged; the DAG search may
                   traverse them *)
                Hashtbl.replace by_label (entry.node, ev.sev.label) ev;
                edges := (j, ev.sev, i) :: !edges;
                if not (Hashtbl.mem seen j) then begin
                  Hashtbl.replace seen j ();
                  stack := j :: !stack
                end)
      done;
      { Soundness.root = 0; target = entry.idx; edges = !edges }
    end

  (* ----- cached feasibility summaries ----- *)

  (* [entry]'s summary, recomputed when its node's store generation
     moved.  The fixpoint covers the stale part of the backward
     closure only: an entry stamped with the current generation is
     exact and bounds the walk as a pinned vertex.  Every stale entry
     the walk reaches is re-stamped, since its own closure lies inside
     the solved one. *)
  let summary t (entry : 'k entry) =
    let gen = t.gens.(entry.node) in
    if entry.summary.gen = gen then entry.summary.sum
    else begin
      let store = t.stores.(entry.node) in
      let local = Hashtbl.create 64 in
      let stale = ref [] and pinned = ref [] in
      let rec visit (e : 'k entry) =
        if not (Hashtbl.mem local e.idx) then begin
          Hashtbl.replace local e.idx (-1);
          if e.summary.gen = gen then pinned := e :: !pinned
          else begin
            stale := e :: !stale;
            iter_preds t e (fun j _ -> visit (Vec.get store j))
          end
        end
      in
      visit entry;
      (* Stale entries first, in creation order — which roughly follows
         the predecessor relation, so the fixpoint's index-order sweeps
         converge fast — then the pinned ones. *)
      let k = List.length !stale in
      let vertices =
        Array.of_list
          (List.sort (fun (a : 'k entry) b -> compare a.idx b.idx) !stale
          @ !pinned)
      in
      Array.iteri (fun l (e : 'k entry) -> Hashtbl.replace local e.idx l) vertices;
      (* consed oldest first, so the list runs newest first *)
      let incoming (e : 'k entry) =
        let edges = ref [] in
        for k = 0 to e.npreds - 1 do
          let ev = Vec.get t.events e.preds.((2 * k) + 1) in
          edges :=
            {
              Soundness.src = Hashtbl.find local e.preds.(2 * k);
              req = ev.req;
              made = ev.made;
            }
            :: !edges
        done;
        !edges
      in
      let sums =
        Soundness.summarise
          ~root:
            (match Hashtbl.find_opt local 0 with
            | Some l when l < k -> l
            | _ -> -1)
          ~pinned:
            (Array.mapi
               (fun l (e : 'k entry) -> if l < k then None else Some e.summary.sum)
               vertices)
          (Array.mapi
             (fun l (e : 'k entry) -> if l < k then incoming e else [])
             vertices)
      in
      for l = 0 to k - 1 do
        vertices.(l).summary <- { gen; sum = sums.(l) }
      done;
      entry.summary.sum
    end

  (* The soundness prefilter over cached summaries: [None] lets the
     tuple through to the search. *)
  let screen t (tuple : 'k entry array) =
    Soundness.screen ~initial:Soundness.Bits.empty (Array.map (summary t) tuple)

  (* Why a preliminary violation was not confirmed. *)
  type rejection =
    | Infeasible of Soundness.infeasible  (* the prefilter, 0 steps *)
    | Searched  (* the search found no schedule *)
    | Exhausted  (* the search ran out of budget *)

  let rejection_why = function
    | Exhausted -> "budget_exhausted"
    | Infeasible _ | Searched -> "invalid"

  let rejection_reason t (tuple : 'k entry array) = function
    | Infeasible (Soundness.Unreachable i) ->
        Printf.sprintf "unreachable:%d" tuple.(i).node
    | Infeasible (Soundness.Missing (i, m)) ->
        Printf.sprintf "missing:%d:%s" tuple.(i).node
          (message_label (Vec.get t.net m))
    | Searched -> "search"
    | Exhausted -> "budget_exhausted"

  let record_reject t violation sdepth tuple rejection =
    let violation : Dsm.Invariant.violation = Lazy.force violation in
    ignore
      (Obs.Trace.emit t.o.trace ~ev:"reject"
         [
           ("invariant", Dsm.Json.String violation.Dsm.Invariant.invariant);
           ("system_depth", Dsm.Json.Int sdepth);
           ("why", Dsm.Json.String (rejection_why rejection));
           ("reason", Dsm.Json.String (rejection_reason t tuple rejection));
         ])

  (* A soundness search found [order]: map its events back to protocol
     steps and report the witness. *)
  let confirm t (tuple : 'k entry array) violation by_label order =
    let violation = Lazy.force violation in
    let schedule =
      List.map
        (fun (sev : Soundness.event) ->
          match Hashtbl.find_opt by_label (sev.node, sev.label) with
          | Some e -> step_of_event t sev.node e
          | None -> assert false)
        order
    in
    t.sound_violation <-
      Some
        {
          system = Array.map (fun (e : 'k entry) -> e.state) tuple;
          violation;
          schedule;
          (* the witness may include productive events that left a node
             state unchanged, so its length can exceed the sum of the
             component state depths *)
          system_depth = List.length schedule;
        };
    if t.tracing then record_witness t violation schedule

  let count_rejection t =
    t.soundness_rejections <- t.soundness_rejections + 1;
    Obs.Metrics.incr t.o.c_rejections

  let count_exhausted t =
    t.soundness_budget_exhausted <- t.soundness_budget_exhausted + 1;
    Obs.Metrics.incr t.o.c_budget_exhausted

  (* Maps a scheduled event back to its protocol-level step. *)
  let new_by_label () :
      (Dsm.Node_id.t * Fingerprint.t, event_info) Hashtbl.t =
    Hashtbl.create 64

  (* isStateSound (Fig. 9): screen the tuple with the cached summaries,
     and search the product of the per-node predecessor DAGs only if it
     passes. *)
  let judge t (tuple : 'k entry array) =
    match screen t tuple with
    | Some why ->
        Soundness.record_infeasible t.soundness;
        Error (Infeasible why)
    | None -> (
        let by_label = new_by_label () in
        let graphs = Array.map (fun e -> build_graph t e by_label) tuple in
        match
          Soundness.check_dag ~handles:t.soundness
            ~budget:t.config.soundness_budget ~initial_net:[] graphs
        with
        | Soundness.Valid order -> Ok (by_label, order)
        | Soundness.Invalid -> Error Searched
        | Soundness.Budget_exhausted ->
            count_exhausted t;
            Error Exhausted)

  (* Judge a preliminary violation.  A [recheck] re-verifies a rejection
     already counted; any other rejection is counted, and an inline one
     is cached for the final pass while the cache has room. *)
  let verify_soundness_run ~recheck t (tuple : 'k entry array) violation
      sdepth =
    t.soundness_calls <- t.soundness_calls + 1;
    Obs.Metrics.incr t.o.c_soundness_calls;
    let t0 = now () in
    let verdict = judge t tuple in
    let spent = now () -. t0 in
    t.soundness_time <- t.soundness_time +. spent;
    Obs.Metrics.observe t.o.h_soundness_us
      (int_of_float (1e6 *. spent));
    match verdict with
    | Error rejection ->
        if t.tracing then record_reject t violation sdepth tuple rejection;
        if not recheck then begin
          count_rejection t;
          if
            (not t.config.defer_soundness)
            && Vec.length t.rejected < t.config.max_rejected_cache
          then
            ignore
              (Vec.push t.rejected
                 { r_tuple = tuple; r_violation = violation; r_depth = sdepth })
        end
    | Ok (by_label, order) ->
        confirm t tuple violation by_label order;
        if t.config.stop_on_violation then raise Stop

  (* Soundness verification under a boundary-sampled profiler frame:
     [Prof.enter]/[leave] pin the phase edges, so the (often long)
     search never bleeds into the enclosing combination frame. *)
  let verify_soundness ?(recheck = false) t (tuple : 'k entry array) violation
      sdepth =
    Obs.frame t.o.scope "soundness" (fun () ->
        verify_soundness_run ~recheck t tuple violation sdepth)

  (* ----- system state creation (checkSystemInvariant, Fig. 9) ----- *)

  let tuple_fp tuple =
    Fingerprint.combine (Array.to_list (Array.map (fun e -> e.fp) tuple))

  (* The invariant on the system state of [tuple]. *)
  let check_tuple t (tuple : 'k entry array) =
    timed t t.ph_invariant_us (fun () ->
        Dsm.Invariant.check t.invariant
          (Array.map (fun (e : 'k entry) -> e.state) tuple))

  (* With [config.persist], every combination consults the on-disk set
     of proven-clean combinations before a system state is created: a
     hit is work some earlier restart already did.  Only clean
     verdicts are recorded — a violating combination must be re-judged
     from every snapshot, because soundness depends on the snapshot it
     is scheduled from.

     [pinned]: the tuple holds a pair that violates a pairwise
     invariant ({!pair_violates}), so it violates whatever the other
     components are.  It is counted, recorded and judged as if
     [check] had said so, but [check] runs, and the violation's
     detail is rendered, only when a record, a confirmation or the
     final pass reads it. *)
  let consider_combo ?(pinned = false) t (tuple : 'k entry array) =
    check_budget t;
    let sdepth = Array.fold_left (fun acc e -> acc + e.depth) 0 tuple in
    if depth_allows t sdepth then begin
      let stored =
        match t.config.persist with
        | Some p -> Some (p, tuple_fp tuple)
        | None -> None
      in
      match stored with
      | Some (p, f) when Store.Fp_set.mem p.p_combos f ->
          t.store_hits <- t.store_hits + 1;
          Obs.Metrics.incr t.o.c_store_hits
      | _ -> (
      t.system_states_created <- t.system_states_created + 1;
      Obs.Metrics.incr t.o.c_system_states;
      Obs.Metrics.observe t.o.h_system_depth sdepth;
      if sdepth > t.max_system_depth then t.max_system_depth <- sdepth;
      let prelim =
        if pinned then
          let tuple = Array.copy tuple in
          let violation =
            lazy
              (match check_tuple t tuple with
              | Some v -> v
              | None -> invalid_arg "Checker: a violating pinned pair passed check")
          in
          Some (tuple, violation)
        else
          match check_tuple t tuple with
          | None ->
              (match stored with
              | Some (p, f) -> ignore (Store.Fp_set.add p.p_combos f)
              | None -> ());
              None
          | Some violation -> Some (Array.copy tuple, Lazy.from_val violation)
      in
      match prelim with
      | None -> ()
      | Some (tuple, violation) ->
          t.preliminary_violations <- t.preliminary_violations + 1;
          Obs.Metrics.incr t.o.c_prelim;
          if t.tracing then record_prelim t violation sdepth tuple;
          if t.config.verify_soundness then begin
            if
              t.config.defer_soundness
              && Vec.length t.rejected < t.config.max_rejected_cache
            then
              (* Contribution 3 of the paper: exploration, system-state
                 creation and soundness verification are decoupled, so
                 verification can be postponed until exploration
                 settles or its budget stops it.  When the queue
                 overflows we fall back to verifying inline — never
                 drop a preliminary violation silently. *)
              ignore
                (Vec.push t.rejected
                   { r_tuple = tuple; r_violation = violation; r_depth = sdepth })
            else verify_soundness t tuple violation sdepth
          end)
    end

  let general_combos t (new_entry : 'k entry) =
    let candidates =
      Array.init P.num_nodes (fun k ->
          if k = new_entry.node then [| new_entry |]
          else Vec.to_array t.stores.(k))
    in
    ignore
      (Combination.iter candidates (fun tuple ->
           consider_combo t tuple;
           if stopped t then `Stop else `Continue))

  (* LMC-OPT: "we select only the node states that at least two of them
     are mapped to different values" — pin a conflicting pair (the new
     state plus one conflicting state of another node) and complete the
     system state from the full stores of the remaining nodes.  States
     that map to [None] never seed a combination, which is why a
     bug-free run creates no system states at all. *)

  (* The pinned pair's verdict: does the pair ([a], [b]) violate the
     invariant as {!Dsm.Invariant.check} judges it?  Then so does every
     system state holding both.  Always [false] for an invariant
     without a pair shape. *)
  let pair_violates t (a : 'k entry) (b : 'k entry) =
    match Dsm.Invariant.pairwise_witness t.invariant with
    | Some pair ->
        timed t t.ph_invariant_us (fun () -> pair a.node a.state b.node b.state)
    | None -> false

  (* Pin [new_entry] together with each partner [partners m] visits on
     node [m] (in store order) and complete the system state from the
     remaining nodes' full stores.  The pinned pair is judged once per
     partner ({!pair_violates}); with [violating_only], a partner it
     does not violate with is skipped.  A tuple holding partners on two
     nodes [j < m] comes up under both; it is judged under [j], the
     first.  So [partners j] marks what it visits, and under [m] the
     slot of every earlier partner node [j] holds only the entries of
     store [j] left unmarked: every tuple is judged once, in the order
     it first comes up, with no per-tuple work.  (Tuples of different
     calls differ in [new_entry].)  The stores are copied once per [m],
     and only once a partner turns up; slot [m] is overwritten per
     partner. *)
  let pinned_pair_combos t (new_entry : 'k entry) ~violating_only ~partners =
    let marks = Array.make P.num_nodes Bytes.empty in
    try
      for m = 0 to P.num_nodes - 1 do
        if m <> new_entry.node then begin
          let candidates =
            lazy
              (Array.init P.num_nodes (fun j ->
                   if j = new_entry.node then [| new_entry |]
                   else if j = m then [||]
                   else if j < m && Bytes.length marks.(j) > 0 then
                     Vec.to_array t.stores.(j)
                     |> Array.to_seq
                     |> Seq.filter (fun (e : 'k entry) ->
                            Bytes.get marks.(j) e.idx = '\000')
                     |> Array.of_seq
                   else Vec.to_array t.stores.(j)))
          in
          partners m (fun (other : 'k entry) ->
              let pinned = pair_violates t new_entry other in
              if pinned || not violating_only then begin
                if Bytes.length marks.(m) = 0 then
                  marks.(m) <- Bytes.make (Vec.length t.stores.(m)) '\000';
                Bytes.set marks.(m) other.idx '\001';
                let candidates = Lazy.force candidates in
                candidates.(m) <- [| other |];
                ignore
                  (Combination.iter candidates (fun tuple ->
                       consider_combo ~pinned t tuple;
                       if stopped t then `Stop else `Continue));
                if stopped t then raise Exit
              end)
        end
      done
    with Exit -> ()

  (* One [conflict] call per distinct key of node [m]; the partners are
     the union of the conflicting buckets, visited in store order. *)
  let opt_combos t conflict (new_entry : 'k entry) =
    match new_entry.key with
    | None -> ()
    | Some k ->
        pinned_pair_combos t new_entry ~violating_only:false
          ~partners:(fun m visit ->
            let hits =
              Vec.fold_left
                (fun acc (k', bucket) ->
                  if conflict k k' then bucket :: acc else acc)
                [] t.keyed.(m).key_order
            in
            match hits with
            | [] -> ()
            | [ bucket ] -> Vec.iteri (fun _ e -> visit e) bucket
            | buckets ->
                let merged = Array.concat (List.map Vec.to_array buckets) in
                Array.sort
                  (fun (a : 'k entry) (b : 'k entry) -> Int.compare a.idx b.idx)
                  merged;
                Array.iter visit merged)

  (* The paper's future-work pruning, derived from the invariant's
     shape: a pairwise invariant needs a violating pair in the
     combination, a node-local one needs the new component itself to
     violate.  Anything else falls back to the general product. *)
  let auto_combos t (new_entry : 'k entry) =
    match Dsm.Invariant.pairwise_witness t.invariant with
    | Some _ ->
        pinned_pair_combos t new_entry ~violating_only:true
          ~partners:(fun m visit -> Vec.iteri (fun _ e -> visit e) t.stores.(m))
    | None -> (
        match Dsm.Invariant.nodewise_witness t.invariant with
        | Some local ->
            if local new_entry.node new_entry.state then
              general_combos t new_entry
        | None -> general_combos t new_entry)

  let check_system_invariant t (new_entry : 'k entry) =
    if t.config.create_system_states then begin
      let t0 = now () in
      let soundness_before = t.soundness_time in
      Obs.frame t.o.scope "combination" (fun () ->
          Fun.protect
            ~finally:(fun () ->
              let phase = now () -. t0 in
              t.system_state_time <-
                t.system_state_time +. phase
                -. (t.soundness_time -. soundness_before))
            (fun () ->
              match t.strategy with
              | General -> general_combos t new_entry
              | Invariant_specific { conflict; _ } ->
                  opt_combos t conflict new_entry
              | Automatic -> auto_combos t new_entry))
    end

  (* ----- exploration (findBugs main loop, Fig. 9) ----- *)

  (* A predecessor pointer (prev, event) into an existing entry, kept
     while the entry holds fewer than the cap; the event is interned
     only then.  The two sites that call this (a known state reached
     again, a productive self-loop) are the only ones that can change
     an existing entry's summary. *)
  let add_pred t (e : 'k entry) ~prev ~label ~kind produces =
    if e.npreds < t.config.max_preds_per_entry then begin
      push_pred t e prev (intern_event t ~node:e.node ~label ~kind produces);
      t.gens.(e.node) <- t.gens.(e.node) + 1
    end

  let add_next_state t ~node ~state ~fp ~history ~depth ~local_count ~crashes
      ~prev ~label ~kind produces =
    let store = t.stores.(node) in
    let h = fp_hash fp in
    match
      Id_table.find t.by_fp.(node) h (fun i ->
          Fingerprint.equal (Vec.get store i).fp fp)
    with
    | i when i >= 0 ->
        (* Known node state reached by a new path: record one more
           predecessor pointer (Fig. 9 line 14); the history — and the
           crash count — keep their first values (§4.2
           simplification). *)
        add_pred t (Vec.get store i) ~prev ~label ~kind produces;
        false
    | _ ->
        let idx = Vec.length store in
        let entry =
          {
            idx;
            node;
            state;
            fp;
            history;
            depth;
            local_count;
            crashes;
            key = abstract_key t state;
            preds = [| prev; intern_event t ~node ~label ~kind produces |];
            npreds = 1;
            fp_hex = None;
            summary = unsummarised;
          }
        in
        ignore (Vec.push store entry);
        Id_table.add t.by_fp.(node) h idx;
        index_key t entry;
        (match t.config.persist with
        | Some p -> ignore (Store.Fp_set.add p.p_nodes.(node) fp)
        | None -> ());
        if depth > t.max_node_depth then t.max_node_depth <- depth;
        Obs.Metrics.incr t.o.c_node_states;
        Obs.Metrics.observe t.o.h_node_depth depth;
        check_system_invariant t entry;
        true

  (* One handler execution counts as a transition whatever its outcome;
     the budget check may stop the run right after it. *)
  let count_transition t =
    t.transitions <- t.transitions + 1;
    Obs.Metrics.incr t.o.c_transitions;
    check_budget t

  (* Run a handler, mapping [Local_assert] to [None], then fingerprint
     the successor state and every sent envelope. *)
  let run_handler t handler =
    match
      timed t t.ph_handler_us (fun () ->
          match handler () with
          | exception Dsm.Protocol.Local_assert _ -> None
          | state', out -> Some (state', out))
    with
    | None -> None
    | Some (state', out) ->
        Some
          (timed t t.ph_fingerprint_us (fun () ->
               ( state',
                 Fingerprint.of_value state',
                 List.map (fun env -> (env, Fingerprint.of_value env)) out )))

  let net_step t (m : net_entry) (entry : 'k entry) =
    let skip_by_history =
      t.config.use_history && Soundness.Bits.mem m.net_id entry.history
    in
    if skip_by_history || not (depth_allows t (entry.depth + 1)) then false
    else
      match
        run_handler t (fun () ->
            P.handle_message ~self:m.env.Envelope.dst entry.state m.env)
      with
      | None ->
          count_transition t;
          t.local_assert_drops <- t.local_assert_drops + 1;
          Obs.Metrics.incr t.o.c_local_drops;
          if t.tracing then
            record_drop t ~node:m.env.Envelope.dst ~kind:"deliver"
              ~src:m.env.Envelope.src
              ~label:(fun () -> message_label m)
              ~fp_before:entry.fp ~depth:(entry.depth + 1);
          false
      | Some (state', fp', outs) ->
          count_transition t;
          let node = m.env.Envelope.dst in
          let pentries =
            List.map (fun (env, fp) -> register_message t env fp) outs
          in
          let produces = List.map (fun e -> e.net_id) pentries in
          (* The step record precedes any record the new state causes
             (prelim / soundness / witness), preserving causal order. *)
          if t.tracing then
            record_net_step t m entry ~fp_after:fp' ~pentries;
          let kind = Net_event m.net_id in
          let changed =
            if Fingerprint.equal fp' entry.fp then begin
              (* Self-loop predecessor (Fig. 9 line 14 with s' = s): the
                 event did not change the node state but its message
                 productions matter to other nodes' soundness DAGs —
                 e.g. a tree node forwarding a token untouched. *)
              if produces <> [] then
                add_pred t entry ~prev:entry.idx ~label:m.net_fp ~kind
                  produces;
              false
            end
            else
              add_next_state t ~node ~state:state' ~fp:fp'
                ~history:
                  (if t.config.use_history then
                     Soundness.Bits.add m.net_id entry.history
                   else entry.history)
                ~depth:(entry.depth + 1) ~local_count:entry.local_count
                ~crashes:entry.crashes ~prev:entry.idx ~label:m.net_fp ~kind
                produces
          in
          changed || produces <> []

  (* A delivery under a per-handler-family frame ("deliver:Accept"):
     nested combination/soundness frames then attribute to the handler
     whose new state triggered them.  Hot push/pop — no clock, no
     closure; the exception match keeps the stack balanced when
     [check_budget] raises [Stop].  Zero cost without a profiler. *)
  let try_net_event t (m : net_entry) (entry : 'k entry) =
    match t.o.prof with
    | None -> net_step t m entry
    | Some p -> (
        Obs.Prof.push p (net_frame m);
        match net_step t m entry with
        | r ->
            Obs.Prof.pop p;
            r
        | exception e ->
            Obs.Prof.pop p;
            raise e)

  let action_step t node (entry : 'k entry) action =
    match
      run_handler t (fun () -> P.handle_action ~self:node entry.state action)
    with
    | None ->
        count_transition t;
        t.local_assert_drops <- t.local_assert_drops + 1;
        Obs.Metrics.incr t.o.c_local_drops;
        if t.tracing then
          record_drop t ~node ~kind:"action" ~src:(-1)
            ~label:(fun () -> action_label t action)
            ~fp_before:entry.fp ~depth:(entry.depth + 1);
        false
    | Some (state', fp', outs) ->
        count_transition t;
        let pentries =
          List.map (fun (env, fp) -> register_message t env fp) outs
        in
        let produces = List.map (fun e -> e.net_id) pentries in
        if t.tracing then
          record_act_step t ~node action entry ~fp_after:fp' ~pentries;
        let changed =
          if Fingerprint.equal fp' entry.fp then false
          else
            add_next_state t ~node ~state:state' ~fp:fp'
              ~history:entry.history ~depth:(entry.depth + 1)
              ~local_count:(entry.local_count + 1) ~crashes:entry.crashes
              ~prev:entry.idx
              ~label:(Fingerprint.of_value (node, action))
              ~kind:(Action_event action) produces
        in
        changed || produces <> []

  let try_actions t node (entry : 'k entry) =
    let bound_ok =
      match t.config.local_action_bound with
      | Some b -> entry.local_count < b
      | None -> true
    in
    bound_ok
    && depth_allows t (entry.depth + 1)
    && List.fold_left
         (fun progress action ->
           let stepped =
             match t.o.prof with
             | None -> action_step t node entry action
             | Some p -> (
                 (* Per-action frame ("action:Propose"), like the
                    delivery path. *)
                 Obs.Prof.push p (action_frame t action);
                 match action_step t node entry action with
                 | r ->
                     Obs.Prof.pop p;
                     r
                 | exception e ->
                     Obs.Prof.pop p;
                     raise e)
           in
           stepped || progress)
         false
         (P.enabled_actions ~self:node entry.state)

  (* Crash-recovery expansion: a crash is a local event that rewrites
     the node state through [P.on_recover] — requires no message,
     produces none — so soundness schedules it like any other history
     entry.  Bounded per path by [crash_budget]; a recovery that lands
     on the same fingerprint is a no-op and adds nothing. *)
  let crash_step t node (entry : 'k entry) =
    if entry.crashes >= t.config.crash_budget then false
    else if not (depth_allows t (entry.depth + 1)) then false
    else begin
      let state' =
        timed t t.ph_handler_us (fun () -> P.on_recover ~self:node entry.state)
      in
      let fp' =
        timed t t.ph_fingerprint_us (fun () -> Fingerprint.of_value state')
      in
      count_transition t;
      if Fingerprint.equal fp' entry.fp then false
      else begin
        if t.tracing then record_crash_step t ~node entry ~fp_after:fp';
        add_next_state t ~node ~state:state' ~fp:fp' ~history:entry.history
          ~depth:(entry.depth + 1) ~local_count:entry.local_count
          ~crashes:(entry.crashes + 1) ~prev:entry.idx
          ~label:t.crash_labels.(node).(entry.crashes) ~kind:Crash_event []
      end
    end

  let try_crash t node (entry : 'k entry) =
    match t.o.prof with
    | None -> crash_step t node entry
    | Some p -> (
        Obs.Prof.push p "crash";
        match crash_step t node entry with
        | r ->
            Obs.Prof.pop p;
            r
        | exception e ->
            Obs.Prof.pop p;
            raise e)

  let round t =
    let progress = ref false in
    (* Network events: each message visits the states of its
       destination that it has not been applied to yet (§4.2); messages
       generated during this round wait for the next one. *)
    let net_len = Vec.length t.net in
    for mi = 0 to net_len - 1 do
      let m = Vec.get t.net mi in
      let store = t.stores.(m.env.Envelope.dst) in
      let upto = Vec.length store in
      let from = m.cursor in
      if from < upto then begin
        m.cursor <- upto;
        progress := true;
        for si = from to upto - 1 do
          if try_net_event t m (Vec.get store si) then progress := true
        done
      end
    done;
    (* Local events: expand each newly visited node state once. *)
    for n = 0 to P.num_nodes - 1 do
      let store = t.stores.(n) in
      let upto = Vec.length store in
      let from = t.action_cursor.(n) in
      if from < upto then begin
        t.action_cursor.(n) <- upto;
        progress := true;
        for si = from to upto - 1 do
          if try_actions t n (Vec.get store si) then progress := true
        done
      end
    done;
    (* Crash events: visit each node state once, like the action pass. *)
    if t.config.crash_budget > 0 then
      for n = 0 to P.num_nodes - 1 do
        let store = t.stores.(n) in
        let upto = Vec.length store in
        let from = t.crash_cursor.(n) in
        if from < upto then begin
          t.crash_cursor.(n) <- upto;
          progress := true;
          for si = from to upto - 1 do
            if try_crash t n (Vec.get store si) then progress := true
          done
        end
      done;
    !progress

  (* The final pass.  Under [defer_soundness] it judges the queued
     preliminary violations for the first time; otherwise it re-verifies
     the soundness-rejected ones, whose later-added predecessor pointers
     can have made them schedulable (§4.2's completeness caveat and
     suggested remedy). *)
  let verify_pending t =
    if not (stopped t) then begin
      let pending = Vec.to_array t.rejected in
      Vec.clear t.rejected;
      Obs.frame t.o.scope "reverify" (fun () ->
          Array.iter
            (fun r ->
              if not (stopped t) then
                verify_soundness ~recheck:(not t.config.defer_soundness) t
                  r.r_tuple r.r_violation r.r_depth)
            pending)
    end

  (* The snapshot is one combination, however many of its root pairs
     conflict: consider it at most once.  Its pinned verdict comes from
     the same pair helper as {!pinned_pair_combos}: any violating root
     pair. *)
  let check_initial t =
    if t.config.create_system_states then begin
      let roots = Array.init P.num_nodes (fun n -> Vec.get t.stores.(n) 0) in
      let exists_root_pair p =
        let rec from i j =
          if i >= P.num_nodes then false
          else if j >= P.num_nodes then from (i + 1) (i + 2)
          else p roots.(i) roots.(j) || from i (j + 1)
        in
        from 0 1
      in
      let pinned () = exists_root_pair (pair_violates t) in
      match t.strategy with
      | General -> consider_combo t roots
      | Invariant_specific { conflict; _ } ->
          if
            exists_root_pair (fun (ei : 'k entry) (ej : 'k entry) ->
                match (ei.key, ej.key) with
                | Some ki, Some kj -> conflict ki kj
                | _ -> false)
          then consider_combo ~pinned:(pinned ()) t roots
      | Automatic -> (
          match Dsm.Invariant.pairwise_witness t.invariant with
          | Some _ -> if pinned () then consider_combo ~pinned:true t roots
          | None -> (
              match Dsm.Invariant.nodewise_witness t.invariant with
              | Some local ->
                  if Array.exists (fun (e : 'k entry) -> local e.node e.state) roots
                  then consider_combo t roots
              | None -> consider_combo t roots))
    end

  (* Fig. 12's analytic footprint; the accounting is spelled out at
     [result.retained_bytes] in checker.mli. *)
  let retained_bytes t =
    let word = 8 in
    let block n = if n = 0 then 0 else word * (n + 1) in
    let entry_bytes acc (e : 'k entry) =
      acc
      + Fingerprint.serialized_size e.state
      + Fingerprint.size + 64
      + block (Soundness.Bits.words e.history)
      + block (Array.length e.preds)
    in
    let stores_bytes =
      Array.fold_left
        (fun acc store -> Vec.fold_left entry_bytes acc store)
        0 t.stores
    in
    let event_bytes acc (ev : event_info) =
      acc
      + (word * (21 + (6 * List.length ev.sev.produces)))
      + block (Soundness.Bits.words ev.made)
    in
    let net_bytes =
      Vec.fold_left
        (fun acc (m : net_entry) ->
          acc + Fingerprint.serialized_size m.env + Fingerprint.size + 48)
        0 t.net
    in
    stores_bytes + Vec.fold_left event_bytes 0 t.events + net_bytes

  let exec config ~strategy ~invariant snapshot =
    let o = make_obs_handles config in
    let tracing = Obs.Trace.enabled o.trace in
    let t =
      {
        config;
        crash_labels =
          Array.init
            (if config.crash_budget > 0 then P.num_nodes else 0)
            (fun n ->
              Array.init config.crash_budget (fun k ->
                  Fingerprint.of_value ("crash", n, k)));
        o;
        soundness = Soundness.handles config.obs;
        tracing;
        snapshot = Array.copy snapshot;
        ph_handler_us = ref 0;
        ph_fingerprint_us = ref 0;
        ph_invariant_us = ref 0;
        timed_tick = 0;
        act_lbl = Hashtbl.create 64;
        strategy;
        invariant;
        stores = Array.init P.num_nodes (fun _ -> Vec.create ());
        gens = Array.make P.num_nodes 0;
        by_fp = Array.init P.num_nodes (fun _ -> Id_table.create ());
        keyed =
          Array.init P.num_nodes (fun _ ->
              { bucket_of = Hashtbl.create 8; key_order = Vec.create () });
        action_cursor = Array.make P.num_nodes 0;
        crash_cursor = Array.make P.num_nodes 0;
        net = Vec.create ();
        net_by_fp = Id_table.create ();
        events = Vec.create ();
        event_ids = Id_table.create ();
        rejected = Vec.create ();
        started = now ();
        transitions = 0;
        system_states_created = 0;
        store_hits = 0;
        preliminary_violations = 0;
        soundness_calls = 0;
        soundness_rejections = 0;
        local_assert_drops = 0;
        soundness_budget_exhausted = 0;
        sound_violation = None;
        system_state_time = 0.;
        soundness_time = 0.;
        max_system_depth = 0;
        max_node_depth = 0;
        truncated = false;
      }
    in
    (* Fig. 9 lines 2-4: LS_n starts from the live state; I+ empty. *)
    Array.iteri
      (fun n state ->
        let fp = Fingerprint.of_value state in
        let entry =
          {
            idx = 0;
            node = n;
            state;
            fp;
            history = Soundness.Bits.empty;
            depth = 0;
            local_count = 0;
            crashes = 0;
            key = abstract_key t state;
            preds = [||];
            npreds = 0;
            fp_hex = None;
            summary = unsummarised;
          }
        in
        ignore (Vec.push t.stores.(n) entry);
        Id_table.add t.by_fp.(n) (fp_hash fp) 0;
        index_key t entry;
        (match config.persist with
        | Some p -> ignore (Store.Fp_set.add p.p_nodes.(n) fp)
        | None -> ());
        Obs.Metrics.incr t.o.c_node_states)
      snapshot;
    if tracing then
      ignore
        (Obs.Trace.emit o.trace ~ev:"lmc_run"
           [
             ("protocol", Dsm.Json.String P.name);
             ("nodes", Dsm.Json.Int P.num_nodes);
             ("fp", Dsm.Json.String Fingerprint.name);
           ]);
    (Obs.frame t.o.scope "lmc" @@ fun () ->
     (try
        check_initial t;
        if not (stopped t) then begin
          let continue = ref true in
          while !continue do
            check_budget t;
            continue := round t
          done
        end
      with Stop -> ());
     (* A budget stop skips re-verification, but not the deferred queue:
        nothing else would ever judge it. *)
     if (not t.truncated) || t.config.defer_soundness then
       try verify_pending t with Stop -> ());
    let elapsed = now () -. t.started in
    let node_states = Array.map Vec.length t.stores in
    (match config.persist with
    | Some p ->
        Obs.Metrics.set
          (Obs.gauge t.o.scope "lmc.store_occupancy")
          (Store.Fp_set.occupancy p.p_combos);
        let considered = t.store_hits + t.system_states_created in
        if considered > 0 then
          Obs.Metrics.set
            (Obs.gauge t.o.scope "lmc.store_hit_rate")
            (float_of_int t.store_hits /. float_of_int considered)
    | None -> ());
    if tracing then begin
      (* Per-phase time attribution.  System-state and soundness phases
         reuse the result's accounting; [lmc report] derives the
         exploration residue. *)
      ignore
        (Obs.Trace.emit o.trace ~ev:"phases"
           [
             ("handler_us", Dsm.Json.Int !(t.ph_handler_us));
             ("fingerprint_us", Dsm.Json.Int !(t.ph_fingerprint_us));
             ("invariant_us", Dsm.Json.Int !(t.ph_invariant_us));
             ( "soundness_us",
               Dsm.Json.Int (int_of_float (1e6 *. t.soundness_time)) );
             ( "system_state_us",
               Dsm.Json.Int (int_of_float (1e6 *. t.system_state_time)) );
             ("elapsed_us", Dsm.Json.Int (int_of_float (1e6 *. elapsed)));
           ]);
      ignore
        (Obs.Trace.emit o.trace ~ev:"lmc_end"
           [
             ("transitions", Dsm.Json.Int t.transitions);
             ( "node_states",
               Dsm.Json.Int (Array.fold_left ( + ) 0 node_states) );
             ("net_messages", Dsm.Json.Int (Vec.length t.net));
             ("system_states", Dsm.Json.Int t.system_states_created);
             ( "preliminary_violations",
               Dsm.Json.Int t.preliminary_violations );
             ("sound_violation", Dsm.Json.Bool (t.sound_violation <> None));
             ("soundness_calls", Dsm.Json.Int t.soundness_calls);
             ("store_hits", Dsm.Json.Int t.store_hits);
             ("completed", Dsm.Json.Bool (not t.truncated));
           ]);
      Obs.Trace.flush o.trace
    end;
    {
      node_states;
      total_node_states = Array.fold_left ( + ) 0 node_states;
      transitions = t.transitions;
      net_messages = Vec.length t.net;
      system_states_created = t.system_states_created;
      preliminary_violations = t.preliminary_violations;
      sound_violation = t.sound_violation;
      soundness_calls = t.soundness_calls;
      soundness_rejections = t.soundness_rejections;
      soundness_budget_exhausted = t.soundness_budget_exhausted;
      local_assert_drops = t.local_assert_drops;
      store_hits = t.store_hits;
      completed = not t.truncated;
      elapsed;
      system_state_time = t.system_state_time;
      soundness_time = t.soundness_time;
      retained_bytes = retained_bytes t;
      max_system_depth = t.max_system_depth;
      max_node_depth = t.max_node_depth;
    }

  let run config ~strategy ~invariant snapshot =
    if Array.length snapshot <> P.num_nodes then
      invalid_arg "Checker.run: snapshot size does not match num_nodes";
    (match config.persist with
    | Some p when Array.length p.p_nodes <> P.num_nodes ->
        invalid_arg "Checker.run: persist has wrong node count"
    | _ -> ());
    exec config ~strategy ~invariant snapshot
end
