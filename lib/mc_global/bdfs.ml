(* Names the state-key definition in [bdfs_run]: step records'
   [fp_before]/[fp_after] are keys, so a recording made under another
   definition (or another fingerprint kernel) cannot be re-explored bit
   for bit. *)
let key_name = "mix128-" ^ Dsm.Fingerprint.name

module Make (P : Dsm.Protocol.S) = struct
  module Envelope = Dsm.Envelope
  module Fingerprint = Dsm.Fingerprint
  module Mix = Fingerprint.Mix
  module Id_table = Dsm.Id_table
  module Table = Dsm.Flat_table
  module Trace = Dsm.Trace
  module Vec = Dsm.Vec

  type envelope = P.message Envelope.t
  type step = (P.message, P.action) Trace.step

  (* ---------- interned local transitions ---------- *)

  (* One local step, memoised: node [node] moves from some state id to
     [target], consuming envelope id [consumed] (-1 for actions and
     crashes) and sending [out].  The deltas are what the step adds to
     the system-state key and to the global key, so a successor's key
     is its parent's plus two int additions. *)
  type edge = {
    node : int;
    target : int;
    consumed : int;
    out : int array;  (* sent envelope ids, in handler order *)
    sent : int array;
        (* [out] as (id, count) pairs in ascending envelope order *)
    step : step;
    nodes_da : int;
    nodes_db : int;
    da : int;
    db : int;
  }

  (* The memo's answer for a step that is not taken: the handler
     raised [Local_assert], or a recovery lands on the same state. *)
  let disabled =
    {
      node = -1;
      target = -1;
      consumed = -1;
      out = [||];
      sent = [||];
      step = Trace.Crash 0;
      nodes_da = 0;
      nodes_db = 0;
      da = 0;
      db = 0;
    }

  (* Digests of one permutation's images, cached per state id (slotted
     at the image slot) and per envelope id. *)
  type image_cache = {
    perm : Dsm.Symmetry.perm;
    image_states : Mix.t option Vec.t;
    image_envs : Mix.t option Vec.t;
  }

  (* An interned node state and the memoised steps out of it. *)
  type node_state = {
    value : P.state;
    owner : int;  (* its node *)
    slot : Mix.t;  (* [Mix.slot owner (Mix.of_value value)] *)
    mutable actions : edge array option;  (* enabled steps, once asked *)
    mutable recovery : edge option;  (* crash-recovery, once asked *)
  }

  type interned_env = { env : envelope; fp : Fingerprint.t; mix : Mix.t }

  type space = {
    spec : (P.state, P.message) Dsm.Symmetry.spec;
    images : image_cache array;  (* one per group element *)
    state_ids : Table.t array;  (* per node: digest lanes -> state id *)
    states : node_state Vec.t;  (* by state id *)
    env_ids : Id_table.t;
        (* envelope -> id, by the classes of [Stdlib.compare]: the
           equality the network multiset has always used *)
    envs : interned_env Vec.t;  (* by envelope id *)
    mutable by_order : int array;  (* envelope ids, ascending *)
    mutable rank : int array;  (* envelope id -> index in [by_order] *)
    deliveries : Table.t;  (* (state id, envelope id) -> [edges] index *)
    edges : edge Vec.t;  (* index 0: [disabled] *)
  }

  let create_space symmetry =
    let edges = Vec.create () in
    ignore (Vec.push edges disabled);
    {
      spec = symmetry;
      images =
        Array.of_list
          (List.map
             (fun perm ->
               {
                 perm;
                 image_states = Vec.create ();
                 image_envs = Vec.create ();
               })
             symmetry.Dsm.Symmetry.group.Dsm.Symmetry.elements);
      state_ids = Array.init P.num_nodes (fun _ -> Table.create ());
      states = Vec.create ();
      env_ids = Id_table.create ();
      envs = Vec.create ();
      by_order = [||];
      rank = [||];
      deliveries = Table.create ();
      edges;
    }

  (* Node states are interned per node by digest: equal digests mean
     equal [Marshal] bytes, the identity the key already relies on. *)
  let intern_state sp node value =
    let d = Mix.of_value value in
    let fresh = Vec.length sp.states in
    match
      Table.find_or_add sp.state_ids.(node) (Mix.lane_a d) (Mix.lane_b d)
        fresh
    with
    | -1 ->
        ignore
          (Vec.push sp.states
             {
               value;
               owner = node;
               slot = Mix.slot node d;
               actions = None;
               recovery = None;
             });
        fresh
    | sid -> sid

  (* A new envelope takes its place in [Stdlib.compare] order; the
     ranks of older ids shift but never reorder, so every network
     sorted by rank stays sorted. *)
  let intern_env sp e =
    let h = Hashtbl.hash e in
    match
      Id_table.find sp.env_ids h (fun id ->
          Stdlib.compare (Vec.get sp.envs id).env e = 0)
    with
    | id when id >= 0 -> id
    | _ ->
        let id = Vec.length sp.envs in
        Id_table.add sp.env_ids h id;
        let fp = Fingerprint.of_value e in
        ignore (Vec.push sp.envs { env = e; fp; mix = Mix.of_fp fp });
        let order = sp.by_order in
        let lo = ref 0 and hi = ref (Array.length order) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if Stdlib.compare (Vec.get sp.envs order.(mid)).env e < 0 then
            lo := mid + 1
          else hi := mid
        done;
        let order =
          Array.init
            (Array.length order + 1)
            (fun i ->
              if i < !lo then order.(i)
              else if i = !lo then id
              else order.(i - 1))
        in
        let rank = Array.make (id + 1) 0 in
        Array.iteri (fun i e -> rank.(e) <- i) order;
        sp.by_order <- order;
        sp.rank <- rank;
        id

  (* [ids] as (id, count) pairs in ascending envelope order. *)
  let counted sp ids =
    let rank = sp.rank in
    let sorted =
      List.sort (fun x y -> compare rank.(x) rank.(y)) (Array.to_list ids)
    in
    let rec group = function
      | [] -> []
      | x :: rest ->
          let same, rest = List.partition (( = ) x) rest in
          x :: (1 + List.length same) :: group rest
    in
    Array.of_list (group sorted)

  let make_edge sp ~node ~source ~target ~consumed out step =
    let out = Array.of_list (List.map (intern_env sp) out) in
    let mix id = (Vec.get sp.envs id).mix in
    let nodes_d =
      Mix.sub (Vec.get sp.states target).slot (Vec.get sp.states source).slot
    in
    let d = Array.fold_left (fun acc id -> Mix.add acc (mix id)) nodes_d out in
    let d = if consumed < 0 then d else Mix.sub d (mix consumed) in
    {
      node;
      target;
      consumed;
      out;
      sent = counted sp out;
      step;
      nodes_da = Mix.lane_a nodes_d;
      nodes_db = Mix.lane_b nodes_d;
      da = Mix.lane_a d;
      db = Mix.lane_b d;
    }

  (* The delivery of envelope [eid] to its destination in state [sid];
     the handler runs on the first request only. *)
  let delivery sp sid eid =
    let i = Table.find sp.deliveries sid eid in
    if i >= 0 then Vec.get sp.edges i
    else begin
      let env = (Vec.get sp.envs eid).env in
      let node = env.Envelope.dst in
      let edge =
        match P.handle_message ~self:node (Vec.get sp.states sid).value env with
        | exception Dsm.Protocol.Local_assert _ -> disabled
        | s', out ->
            let target = intern_state sp node s' in
            make_edge sp ~node ~source:sid ~target ~consumed:eid out
              (Trace.Deliver env)
      in
      let i = if edge == disabled then 0 else Vec.push sp.edges edge in
      ignore (Table.find_or_add sp.deliveries sid eid i);
      edge
    end

  (* The enabled internal actions of state [sid], in [enabled_actions]
     order, without the ones whose handler raises [Local_assert]. *)
  let actions sp sid =
    let ns = Vec.get sp.states sid in
    match ns.actions with
    | Some edges -> edges
    | None ->
        let node = ns.owner in
        let edges =
          Array.of_list
            (List.filter_map
               (fun action ->
                 match P.handle_action ~self:node ns.value action with
                 | exception Dsm.Protocol.Local_assert _ -> None
                 | s', out ->
                     let target = intern_state sp node s' in
                     Some
                       (make_edge sp ~node ~source:sid ~target ~consumed:(-1)
                          out
                          (Trace.Execute (node, action))))
               (P.enabled_actions ~self:node ns.value))
        in
        ns.actions <- Some edges;
        edges

  (* A recovery that lands on the same state adds nothing: every
     successor of the crashed branch exists verbatim on the uncrashed
     one, so it is [disabled]. *)
  let recovery sp sid =
    let ns = Vec.get sp.states sid in
    match ns.recovery with
    | Some edge -> edge
    | None ->
        let node = ns.owner in
        let target = intern_state sp node (P.on_recover ~self:node ns.value) in
        let edge =
          if target = sid then disabled
          else
            make_edge sp ~node ~source:sid ~target ~consumed:(-1) []
              (Trace.Crash node)
        in
        ns.recovery <- Some edge;
        edge

  (* ---------- global states ---------- *)

  type global = {
    sids : int array;  (* interned state id, per node *)
    net : int array;
        (* in-flight (envelope id, count) pairs, ascending envelope
           order *)
    crashes : int array;
        (* never mutated in place: crash successors copy, everything
           else shares the parent's array *)
    nodes_a : int;  (* the system-state key's lanes *)
    nodes_b : int;
    key_a : int;  (* the key's lanes *)
    key_b : int;
  }

  (* The crash counts join the key only once some node has crashed, so
     a [crash_budget = 0] run keys on nodes and network alone. *)
  let crash_term crashes =
    if Array.exists (fun c -> c > 0) crashes then Mix.of_value crashes
    else Mix.zero

  let key_mix g = Mix.of_lanes g.key_a g.key_b
  let key g = Mix.to_fp (key_mix g)

  let key_of ~nodes ~bindings ~crashes =
    Mix.to_fp
      (Mix.add
         (Mix.slots (Array.map Mix.of_value nodes))
         (Mix.add (Mix.bindings bindings) (crash_term crashes)))

  let make_global sp nodes net crashes =
    let sids = Array.mapi (intern_state sp) nodes in
    let ids = Array.of_list (List.map (intern_env sp) net) in
    let nodes_key =
      Array.fold_left
        (fun acc sid -> Mix.add acc (Vec.get sp.states sid).slot)
        Mix.zero sids
    in
    let k =
      Array.fold_left
        (fun acc id -> Mix.add acc (Vec.get sp.envs id).mix)
        (Mix.add nodes_key (crash_term crashes))
        ids
    in
    {
      sids;
      net = counted sp ids;
      crashes;
      nodes_a = Mix.lane_a nodes_key;
      nodes_b = Mix.lane_b nodes_key;
      key_a = Mix.lane_a k;
      key_b = Mix.lane_b k;
    }

  let envelope sp id = (Vec.get sp.envs id).env
  let nodes sp g = Array.map (fun sid -> (Vec.get sp.states sid).value) g.sids

  let bindings sp g =
    List.init
      (Array.length g.net / 2)
      (fun i -> (envelope sp g.net.(2 * i), g.net.((2 * i) + 1)))

  let crashes g = g.crashes
  let is_crash e = match e.step with Trace.Crash _ -> true | _ -> false

  (* [net] less one [consumed] (none when -1) plus [sent], both in
     ascending envelope order. *)
  let merge_net rank net consumed sent =
    let ln = Array.length net and ls = Array.length sent in
    let out = Array.make (ln + ls) 0 in
    let n = ref 0 and i = ref 0 and j = ref 0 in
    while !i < ln || !j < ls do
      let order =
        if !i >= ln then 1
        else if !j >= ls then -1
        else compare rank.(net.(!i)) rank.(sent.(!j))
      in
      let id = if order <= 0 then net.(!i) else sent.(!j) in
      let count = ref 0 in
      if order <= 0 then begin
        count := net.(!i + 1) - if id = consumed then 1 else 0;
        i := !i + 2
      end;
      if order >= 0 then begin
        count := !count + sent.(!j + 1);
        j := !j + 2
      end;
      if !count > 0 then begin
        out.(!n) <- id;
        out.(!n + 1) <- !count;
        n := !n + 2
      end
    done;
    if !n = Array.length out then out else Array.sub out 0 !n

  (* The successor of [g] along [e]. *)
  let apply sp g e =
    let sids = Array.copy g.sids in
    sids.(e.node) <- e.target;
    let net =
      if e.consumed = -1 && e.sent = [||] then g.net
      else merge_net sp.rank g.net e.consumed e.sent
    in
    let crashes, ka, kb =
      if is_crash e then begin
        let crashes = Array.copy g.crashes in
        crashes.(e.node) <- crashes.(e.node) + 1;
        let d = Mix.sub (crash_term crashes) (crash_term g.crashes) in
        (crashes, g.key_a + e.da + Mix.lane_a d, g.key_b + e.db + Mix.lane_b d)
      end
      else (g.crashes, g.key_a + e.da, g.key_b + e.db)
    in
    {
      sids;
      net;
      crashes;
      nodes_a = g.nodes_a + e.nodes_da;
      nodes_b = g.nodes_b + e.nodes_db;
      key_a = ka;
      key_b = kb;
    }

  (* The steps out of [g], in the order the search takes them: one
     delivery per distinct in-flight envelope (ascending envelope
     order), each node's enabled actions (node order, then
     [enabled_actions] order), then one crash-recovery per node under
     [crash_budget]. *)
  let iter_edges sp ~crash_budget g f =
    let net = g.net in
    for i = 0 to (Array.length net / 2) - 1 do
      let eid = net.(2 * i) in
      let node = (envelope sp eid).Envelope.dst in
      let e = delivery sp g.sids.(node) eid in
      if e != disabled then f e
    done;
    Array.iter (fun sid -> Array.iter f (actions sp sid)) g.sids;
    if crash_budget > 0 then
      Array.iteri
        (fun n sid ->
          if g.crashes.(n) < crash_budget then begin
            let e = recovery sp sid in
            if e != disabled then f e
          end)
        g.sids

  let successors sp ~crash_budget g =
    let acc = ref [] in
    iter_edges sp ~crash_budget g (fun e ->
        acc :=
          ( e.step,
            apply sp g e,
            List.map (envelope sp) (Array.to_list e.out) )
          :: !acc);
    List.rev !acc

  (* ---------- symmetry ---------- *)

  let cached vec i compute =
    while Vec.length vec <= i do
      ignore (Vec.push vec None)
    done;
    match Vec.get vec i with
    | Some x -> x
    | None ->
        let x = compute () in
        Vec.set vec i (Some x);
        x

  (* Key of the image of [g] under one permutation: node [p.(i)] takes
     node [i]'s identifier-rewritten state, envelopes are renamed (the
     multiset sum needs no re-sorting), crash counters travel with
     their node. *)
  let image_key sp c g =
    let p = c.perm in
    let acc = ref Mix.zero in
    Array.iter
      (fun sid ->
        let d =
          cached c.image_states sid (fun () ->
              let ns = Vec.get sp.states sid in
              Mix.slot p.(ns.owner)
                (Mix.of_value
                   (sp.spec.Dsm.Symmetry.map_state (Dsm.Symmetry.apply p)
                      ns.value)))
        in
        acc := Mix.add !acc d)
      g.sids;
    for i = 0 to (Array.length g.net / 2) - 1 do
      let id = g.net.(2 * i) and count = g.net.((2 * i) + 1) in
      let d =
        cached c.image_envs id (fun () ->
            let e = envelope sp id and rename = Dsm.Symmetry.apply p in
            Mix.of_value
              {
                Envelope.src = rename e.Envelope.src;
                dst = rename e.Envelope.dst;
                payload =
                  sp.spec.Dsm.Symmetry.map_message rename e.Envelope.payload;
              })
      in
      acc :=
        Mix.add !acc
          (Mix.of_lanes (count * Mix.lane_a d) (count * Mix.lane_b d))
    done;
    Mix.add !acc (crash_term (Dsm.Symmetry.permute_slots p g.crashes))

  let permuted_key sp p g =
    match
      Array.find_opt (fun c -> Dsm.Symmetry.equal_perm c.perm p) sp.images
    with
    | Some c -> Mix.to_fp (image_key sp c g)
    | None -> invalid_arg "Bdfs.permuted_key: not an element of the group"

  (* Canonical (least-over-orbit, by {!Fingerprint.compare}) key, given
     the state's raw key.  With the identity group this IS the raw
     key. *)
  let canonical sp g raw =
    let best = ref raw and best_fp = ref (Mix.to_fp raw) in
    Array.iter
      (fun c ->
        if not (Dsm.Symmetry.is_identity c.perm) then begin
          let m = image_key sp c g in
          let f = Mix.to_fp m in
          if Fingerprint.compare f !best_fp < 0 then begin
            best := m;
            best_fp := f
          end
        end)
      sp.images;
    !best

  (* Heap bytes of the interned transitions.  In words: per node state
     14 (its record, vector slot, boxed slot digest and memo options)
     plus its [Marshal] size; per envelope 19 (record, slot, fingerprint
     string, boxed digest, hash-table entry, rank and order cells) plus
     its [Marshal] size; per memoised step 17 (record, step constructor,
     id-array headers, the slot holding it) plus its ids; per cached
     image digest 5; and the intern and delivery tables. *)
  let space_bytes sp =
    let word = 8 in
    let edge acc e =
      if e == disabled then acc
      else acc + (word * (17 + Array.length e.out + Array.length e.sent))
    in
    let state acc ns =
      let acc = acc + Fingerprint.serialized_size ns.value + (14 * word) in
      let acc = match ns.recovery with Some e -> edge acc e | None -> acc in
      match ns.actions with
      | Some a -> Array.fold_left edge acc a
      | None -> acc
    in
    let env acc ie = acc + Fingerprint.serialized_size ie.env + (19 * word) in
    let image acc c =
      acc + (5 * word * (Vec.length c.image_states + Vec.length c.image_envs))
    in
    Vec.fold_left state 0 sp.states
    + Vec.fold_left env 0 sp.envs
    + Vec.fold_left edge 0 sp.edges
    + Array.fold_left image 0 sp.images
    + Array.fold_left (fun acc t -> acc + Table.bytes t) 0 sp.state_ids
    + Table.bytes sp.deliveries

  (* ---------- the search ---------- *)

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
           then counts no visited table. *)
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
    sp : space;
    mutable binj : int array;
        (* envelope id -> seq of the step record that first produced
           it, or -1 *)
    root : P.state array;  (* starting states, for witness records *)
    invariant : P.state Dsm.Invariant.t;
    visited : Table.t;
        (* canonical key lanes -> index into [depths], for the DFS;
           empty when [config.visited_store] holds presence on disk
           instead.  With the identity group canonical = raw *)
    depths : int Vec.t;  (* least depth each visited key was reached at *)
    parents : int Vec.t;
    steps : step Vec.t;
        (* with [track_traces], per first-visited state (indices shared
           with [depths] in the DFS): the parent's index (-1 at the root)
           and the step from it.  Each canonical key has one entry, for
           the first-visited (original-coordinate) state of its orbit,
           so a rebuilt chain is a real executable path *)
    mutable transitions : int;
    mutable global_states : int;  (* states first visited by this run *)
    mutable store_hits : int;
        (* successors already present in [config.visited_store] *)
    mutable orbit_hits : int;
    system_states : Table.t;  (* system-state key lanes *)
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

  (* Appends a first-visited state's parent entry (with [track_traces]). *)
  let add_parent s ~parent step =
    if s.config.track_traces then begin
      ignore (Vec.push s.parents parent);
      ignore (Vec.push s.steps step)
    end

  let rebuild_trace s idx =
    let rec walk idx acc =
      let parent = Vec.get s.parents idx in
      if parent < 0 then acc else walk parent (Vec.get s.steps idx :: acc)
    in
    walk idx []

  let record_violation s g idx depth violation =
    if s.violation = None then begin
      let tr = if s.config.track_traces then rebuild_trace s idx else [] in
      s.violation <-
        Some { system = nodes s.sp g; violation; trace = tr; depth };
      if s.tracing && s.config.track_traces then
        ignore
          (Obs.Trace.emit s.o.trace ~ev:"witness"
             (RWB.witness_fields ~init:s.root ~schedule:tr
                ~invariant:violation.Dsm.Invariant.invariant
                ~detail:violation.Dsm.Invariant.detail))
    end

  (* One flight-recorder step for a first-visited global state.  [binj]
     maps envelope ids to the seq of the step that produced them,
     giving deliveries their provenance link. *)
  let record_global_step s g e g' ~depth =
    let sp = s.sp in
    let n = Vec.length sp.envs in
    if Array.length s.binj < n then begin
      let binj = Array.make (max n (2 * Array.length s.binj)) (-1) in
      Array.blit s.binj 0 binj 0 (Array.length s.binj);
      s.binj <- binj
    end;
    let hex id = Fingerprint.to_hex (Vec.get sp.envs id).fp in
    let node, kind, src, consumed =
      match e.step with
      | Trace.Deliver env ->
          ( env.Envelope.dst,
            Obs.Trace.Deliver,
            env.Envelope.src,
            Some (hex e.consumed, s.binj.(e.consumed)) )
      | Trace.Execute (n, _) -> (n, Obs.Trace.Action, -1, None)
      | Trace.Crash n -> (n, Obs.Trace.Crash, -1, None)
    in
    let seq =
      Obs.Trace.record_step s.o.trace
        {
          Obs.Trace.node;
          kind;
          src;
          label = step_label e.step;
          fp_before = Fingerprint.to_hex (key g);
          fp_after = Fingerprint.to_hex (key g');
          consumed;
          produced = List.map hex (Array.to_list e.out);
          depth;
          dom = 0;
        }
    in
    Array.iter (fun id -> if s.binj.(id) < 0 then s.binj.(id) <- seq) e.out

  let heartbeat s =
    Obs.heartbeat s.o.scope (fun () ->
        [
          ("transitions", Dsm.Json.Int s.transitions);
          ("global_states", Dsm.Json.Int s.global_states);
          ("system_states", Dsm.Json.Int (Table.length s.system_states));
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
    if Table.find_or_add s.system_states g.nodes_a g.nodes_b 0 = -1 then
      Obs.Metrics.incr s.o.c_system_states

  let orbit_hit s =
    s.orbit_hits <- s.orbit_hits + 1;
    Obs.Metrics.incr s.o.c_orbit_hits

  (* Everything a first visit does besides the visited-set insert and
     the parent entry [idx]: step record, system-state tally and the
     invariant. *)
  let first_visit s g e g' idx depth' =
    Obs.Metrics.observe s.o.h_depth depth';
    if s.tracing then record_global_step s g e g' ~depth:depth';
    note_system_state s g';
    match Dsm.Invariant.check s.invariant (nodes s.sp g') with
    | Some violation ->
        record_violation s g' idx depth' violation;
        if s.config.stop_on_violation then raise Stop
    | None -> ()

  (* The recursive DFS.  [g] sits at entry [idx] of the visited table's
     side vectors; its key is raw (trace records stay in original
     coordinates, so witness replay re-derives them), the table's is
     canonical.  A successor is built only when it is explored: a
     revisit costs its key (two additions from the memoised edge) and
     one probe.  The budget is checked before each transition, as in
     [explore_layers], so [max_transitions] is exact. *)
  let rec explore s g idx depth =
    heartbeat s;
    if depth > s.max_depth_reached then s.max_depth_reached <- depth;
    let depth_ok =
      match s.config.max_depth with Some d -> depth < d | None -> true
    in
    if depth_ok then
      iter_edges s.sp ~crash_budget:s.config.crash_budget g (fun e ->
          check_budget s;
          count_transition s;
          let built =
            if s.reduce || is_crash e then Some (apply s.sp g e) else None
          in
          let raw =
            match built with
            | Some g' -> key_mix g'
            | None -> Mix.of_lanes (g.key_a + e.da) (g.key_b + e.db)
          in
          let canon =
            match built with
            | Some g' when s.reduce -> canonical s.sp g' raw
            | _ -> raw
          in
          let depth' = depth + 1 in
          let fresh = Vec.length s.depths in
          let build () =
            match built with Some g' -> g' | None -> apply s.sp g e
          in
          match
            Table.find_or_add s.visited (Mix.lane_a canon) (Mix.lane_b canon)
              fresh
          with
          | -1 ->
              ignore (Vec.push s.depths depth');
              add_parent s ~parent:idx e.step;
              count_global_state s;
              let g' = build () in
              first_visit s g e g' fresh depth';
              explore s g' fresh depth'
          | known when depth' < Vec.get s.depths known ->
              (* rediscovered at a shallower depth: re-expand *)
              Vec.set s.depths known depth';
              explore s (build ()) known depth'
          | _ ->
              if s.reduce && not (Mix.equal raw canon) then orbit_hit s)

  (* Layered (breadth-first) expansion over the disk-backed visited
     set.  Layers visit each state at its minimum depth, so the
     presence-only set is exactly equivalent to the DFS's depth-keyed
     table; the traversal order differs, but on an exhausted space the
     explored set and the verdict are the same.  A first-visited
     state's parent entry is its index in [s.parents]. *)
  let explore_layers s store g idx =
    let frontier = ref [ (g, idx) ] in
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
          (fun (g, idx) ->
            iter_edges s.sp ~crash_budget:s.config.crash_budget g (fun e ->
                check_budget s;
                count_transition s;
                let g' = apply s.sp g e in
                let raw = key_mix g' in
                let canon = if s.reduce then canonical s.sp g' raw else raw in
                if Store.Fp_set.add store (Mix.to_fp canon) then begin
                  count_global_state s;
                  if depth' > s.max_depth_reached then
                    s.max_depth_reached <- depth';
                  let idx' = Vec.length s.parents in
                  add_parent s ~parent:idx e.step;
                  first_visit s g e g' idx' depth';
                  next := (g', idx') :: !next
                end
                else begin
                  s.store_hits <- s.store_hits + 1;
                  if s.reduce && not (Mix.equal raw canon) then orbit_hit s
                end))
          layer;
        frontier := List.rev !next;
        depth := depth'
      end
    done

  (* Retained heap: the visited table and its depth lane (DFS only),
     the parent entries, the system-state table and the interned
     transitions.  Vectors count one word per entry. *)
  let retained_bytes s =
    let word = 8 in
    Table.bytes s.visited
    + (word * Vec.length s.depths)
    + (2 * word * Vec.length s.parents)
    + Table.bytes s.system_states + space_bytes s.sp

  let run config ~invariant ?(initial_net = []) init =
    Obs.frame config.obs "bdfs" @@ fun () ->
    let sp = create_space config.symmetry in
    let g = make_global sp init initial_net (Array.make P.num_nodes 0) in
    let o = make_obs_handles config in
    let s =
      {
        config;
        o;
        tracing = Obs.Trace.enabled o.trace;
        reduce =
          not (Dsm.Symmetry.is_trivial config.symmetry.Dsm.Symmetry.group);
        sp;
        binj = [||];
        root = Array.copy init;
        invariant;
        visited = Table.create ();
        depths = Vec.create ();
        parents = Vec.create ();
        steps = Vec.create ();
        transitions = 0;
        global_states = 0;
        store_hits = 0;
        orbit_hits = 0;
        system_states = Table.create ();
        max_depth_reached = 0;
        violation = None;
        truncated = false;
        started = Unix.gettimeofday ();
      }
    in
    if s.tracing then record_run_header ~trace:o.trace;
    let raw = key_mix g in
    let canon = if s.reduce then canonical sp g raw else raw in
    (* The root's parent entry is 0 and ends every rebuilt trace. *)
    add_parent s ~parent:(-1) (Trace.Crash 0);
    let fresh =
      match config.visited_store with
      | None ->
          ignore
            (Table.find_or_add s.visited (Mix.lane_a canon) (Mix.lane_b canon)
               0);
          ignore (Vec.push s.depths 0);
          true
      | Some store -> Store.Fp_set.add store (Mix.to_fp canon)
    in
    if fresh then count_global_state s else s.store_hits <- s.store_hits + 1;
    note_system_state s g;
    (match Dsm.Invariant.check invariant (nodes sp g) with
    | Some violation -> record_violation s g 0 0 violation
    | None -> ());
    (if not (config.stop_on_violation && s.violation <> None) then
       try
         match config.visited_store with
         | None -> explore s g 0 0
         | Some store -> explore_layers s store g 0
       with Stop -> ());
    let elapsed = Unix.gettimeofday () -. s.started in
    let outcome =
      {
        stats =
          {
            transitions = s.transitions;
            global_states = s.global_states;
            system_states = Table.length s.system_states;
            max_depth_reached = s.max_depth_reached;
            retained_bytes = retained_bytes s;
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
