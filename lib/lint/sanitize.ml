module Make (P : Dsm.Protocol.S) = struct
  module Envelope = Dsm.Envelope
  module Fingerprint = Dsm.Fingerprint

  type config = {
    max_depth : int option;
    max_transitions : int;
    initial_net : P.message Envelope.t list;
    min_deliveries : int;
    store_tamper : (int64 -> int64) option;
  }

  let default_config =
    {
      max_depth = None;
      max_transitions = 20_000;
      initial_net = [];
      min_deliveries = 3;
      store_tamper = None;
    }

  type stats = {
    global_states : int;
    transitions : int;
    probes : int;
    elapsed : float;
  }

  type result = {
    findings : Report.finding list;
    stats : stats;
    completed : bool;
  }

  type global = {
    nodes : P.state array;
    net : P.message Envelope.t Net.Multiset.t;
  }

  (* The B-DFS state key (Fingerprint.Mix), from scratch. *)
  let fingerprint g = Fingerprint.product g.nodes (Net.Multiset.bindings g.net)

  let msg_family m = Report.family (Format.asprintf "%a" P.pp_message m)
  let act_family a = Report.family (Format.asprintf "%a" P.pp_action a)

  (* Coverage ledgers, aggregated by label family. *)
  type msg_cover = {
    mutable produced : int;
    mutable delivered : int;
    mutable effective : int;
        (* deliveries that changed state, sent something, or asserted *)
  }

  type act_cover = { mutable enabled : int; mutable acted : int }

  exception Stop

  let run ?(config = default_config) () =
    let started = Unix.gettimeofday () in
    (* findings, deduplicated on (kind, subject): the identity the
       allowlist names.  The first occurrence's detail is kept. *)
    let findings : (Report.kind * string, string) Hashtbl.t =
      Hashtbl.create 16
    in
    let found kind subject detail =
      if not (Hashtbl.mem findings (kind, subject)) then
        Hashtbl.add findings (kind, subject) detail
    in
    let transitions = ref 0 and probes = ref 0 and truncated = ref false in
    let msgs : (string, msg_cover) Hashtbl.t = Hashtbl.create 16 in
    let acts : (string, act_cover) Hashtbl.t = Hashtbl.create 16 in
    let msg_cover fam =
      match Hashtbl.find_opt msgs fam with
      | Some c -> c
      | None ->
          let c = { produced = 0; delivered = 0; effective = 0 } in
          Hashtbl.add msgs fam c;
          c
    in
    let act_cover fam =
      match Hashtbl.find_opt acts fam with
      | Some c -> c
      | None ->
          let c = { enabled = 0; acted = 0 } in
          Hashtbl.add acts fam c;
          c
    in
    let count_produced out =
      List.iter
        (fun (e : _ Envelope.t) ->
          let c = msg_cover (msg_family e.payload) in
          c.produced <- c.produced + 1)
        out
    in
    (* ----- canonicality audit -----

       Dual cross-check over every node state the exploration stores:
       [by_digest] catches two structurally distinct states sharing a
       digest (dedup would merge them); [by_struct] — a hashtable
       keyed by the state itself, so lookup uses structural equality —
       catches equal states with different digests (Marshal sharing
       divergence: dedup would explore them twice).  The Marshal
       round-trip additionally verifies a stored state survives
       serialisation with its fingerprint intact. *)
    let by_digest : (Fingerprint.t, P.state) Hashtbl.t = Hashtbl.create 256 in
    let by_struct : (P.state, Fingerprint.t) Hashtbl.t = Hashtbl.create 256 in
    (* ----- persistence audit -----

       The resumable checkers trust {!Store.Fp_set} with their visited
       sets: a store that does not read a fingerprint back
       bit-identical to its 64-bit folding would silently skip
       unexplored states on every resume.  Each distinct state
       fingerprint is round-tripped through a scratch store file
       (created lazily, removed at the end).  [store_tamper] is the
       planted fixture's hook: it rewrites the key between folding and
       insertion, standing in for a corrupting persistence layer. *)
    let scratch_store = ref None in
    let store_of () =
      match !scratch_store with
      | Some s -> s
      | None ->
          let path = Filename.temp_file "lmc-lint-store" ".fps" in
          let s = Store.Fp_set.create ~capacity:1024 path in
          scratch_store := Some s;
          s
    in
    let audit_store fp =
      let s = store_of () in
      let k = Store.Fp_set.key fp in
      let written =
        match config.store_tamper with Some f -> f k | None -> k
      in
      ignore (Store.Fp_set.add_key s written);
      incr probes;
      (* [probe] terminates with the slot holding exactly [k], or the
         empty slot ending its probe sequence: [None] means whatever
         [add] wrote is not bit-identical to the folding *)
      match Store.Fp_set.probe s fp with
      | Some _ -> ()
      | None ->
          found Store_digest_drift "state"
            (Printf.sprintf
               "fingerprint %s folds to %Ld but the store read back no \
                matching entry (resume would silently skip states)"
               (Fingerprint.to_hex fp) k)
    in
    let audit_state (s : P.state) =
      match Fingerprint.of_value s with
      | exception Invalid_argument msg ->
          found Unmarshalable_state "state"
            (Printf.sprintf "state cannot be marshalled: %s" msg);
          None
      | fp ->
          (match Hashtbl.find_opt by_digest fp with
          | Some prior when prior <> s ->
              found Digest_collision "state"
                (Printf.sprintf
                   "structurally distinct states share digest %s"
                   (Fingerprint.to_hex fp))
          | Some _ -> ()
          | None -> (
              Hashtbl.add by_digest fp s;
              audit_store fp;
              (match Hashtbl.find_opt by_struct s with
              | Some prior_fp when not (Fingerprint.equal prior_fp fp) ->
                  found Noncanonical_state "state"
                    (Printf.sprintf
                       "structurally equal states digest to %s and %s \
                        (Marshal sharing divergence: equal states would \
                        be explored twice)"
                       (Fingerprint.to_hex prior_fp) (Fingerprint.to_hex fp))
              | Some _ -> ()
              | None -> Hashtbl.add by_struct s fp);
              (* round-trip: a state must survive serialisation with
                 its fingerprint intact *)
              let bytes = Marshal.to_string s [] in
              match (Marshal.from_string bytes 0 : P.state) with
              | rt ->
                  if not (Fingerprint.equal (Fingerprint.of_value rt) fp)
                  then
                    found Noncanonical_state "state"
                      (Printf.sprintf
                         "Marshal round-trip changed the fingerprint of a \
                          state (digest %s)"
                         (Fingerprint.to_hex fp))
              | exception _ ->
                  found Unmarshalable_state "state"
                    "state does not survive a Marshal round-trip"));
          Some fp
    in
    (* ----- determinism probes -----

       Each distinct (state, input) pair is re-executed once and the
       (state', sends) fingerprints compared.  [`Effect r] carries the
       first run's result: the exploration continues from it, so a
       nondeterministic handler is reported but the search stays
       deterministic. *)
    let probed : (Fingerprint.t, unit) Hashtbl.t = Hashtbl.create 1024 in
    let outcome_fp (s', out) =
      try Some (Fingerprint.of_value (s', out))
      with Invalid_argument msg ->
        found Unmarshalable_state "state"
          (Printf.sprintf "handler result cannot be marshalled: %s" msg);
        None
    in
    let probe ~subject ~key invoke =
      if !transitions >= config.max_transitions then begin
        truncated := true;
        raise Stop
      end;
      incr transitions;
      match invoke () with
      | exception Dsm.Protocol.Local_assert _ -> `Asserted
      | exception e ->
          found Handler_exception subject
            (Printf.sprintf "handler raised %s" (Printexc.to_string e));
          `Disabled
      | r ->
          let fresh =
            match Hashtbl.find_opt probed key with
            | Some () -> false
            | None ->
                Hashtbl.add probed key ();
                true
          in
          if fresh then begin
            incr probes;
            (match invoke () with
            | exception e ->
                found Nondeterministic_handler subject
                  (Printf.sprintf
                     "second execution raised %s where the first returned"
                     (Printexc.to_string e))
            | r2 -> (
                match (outcome_fp r, outcome_fp r2) with
                | Some f1, Some f2 when not (Fingerprint.equal f1 f2) ->
                    found Nondeterministic_handler subject
                      (Printf.sprintf
                         "two executions from identical inputs produced \
                          different (state', sends): %s vs %s"
                         (Fingerprint.to_hex f1) (Fingerprint.to_hex f2))
                | _ -> ()))
          end;
          `Effect r
    in
    (* ----- crash-recovery audit -----

       [on_recover] is what the checkers run at every Crash step, so
       it is held to the same contract as the handlers: probed once
       per distinct (node, state) for determinism, and the recovered
       state fed through the canonicality audit — an alias-heavy
       recovery (e.g. sharing one list into two fields) would make a
       recovered state digest differently from its structurally equal
       message-reachable twin, and crash exploration would visit it
       twice.  Recovered states are only audited, never explored:
       crash interleavings belong to the checkers. *)
    let recovery_probed : (Fingerprint.t, unit) Hashtbl.t =
      Hashtbl.create 256
    in
    let audit_recovery self st = function
      | None -> ()
      | Some st_fp ->
          let key =
            Fingerprint.combine [ Fingerprint.of_value (`Recover, self); st_fp ]
          in
          if not (Hashtbl.mem recovery_probed key) then begin
            Hashtbl.add recovery_probed key ();
            incr probes;
            let subject = Printf.sprintf "on_recover(node %d)" self in
            match P.on_recover ~self st with
            | exception Dsm.Protocol.Local_assert _ -> ()
            | exception e ->
                found Handler_exception subject
                  (Printf.sprintf "on_recover raised %s"
                     (Printexc.to_string e))
            | r1 -> (
                ignore (audit_state r1);
                match P.on_recover ~self st with
                | exception e ->
                    found Nondeterministic_recovery subject
                      (Printf.sprintf
                         "second execution raised %s where the first \
                          returned"
                         (Printexc.to_string e))
                | r2 -> (
                    match (outcome_fp (r1, []), outcome_fp (r2, [])) with
                    | Some f1, Some f2 when not (Fingerprint.equal f1 f2) ->
                        found Nondeterministic_recovery subject
                          (Printf.sprintf
                             "two recoveries from one state produced \
                              different states: %s vs %s (crash \
                              exploration would not be replayable)"
                             (Fingerprint.to_hex f1) (Fingerprint.to_hex f2))
                    | _ -> ()))
          end
    in
    (* [enabled_actions] purity: probed once per distinct (node,
       state).  Returns the first run's list; exploration uses it. *)
    let enabled_probed : (Fingerprint.t, unit) Hashtbl.t =
      Hashtbl.create 256
    in
    let enabled_at self st st_fp =
      let l1 = P.enabled_actions ~self st in
      let key = Fingerprint.combine [ Fingerprint.of_value self; st_fp ] in
      if not (Hashtbl.mem enabled_probed key) then begin
        Hashtbl.add enabled_probed key ();
        incr probes;
        let l2 = P.enabled_actions ~self st in
        (match (outcome_fp (st, l1), outcome_fp (st, l2)) with
        | Some f1, Some f2 when not (Fingerprint.equal f1 f2) ->
            found Nondeterministic_actions
              (Printf.sprintf "node %d" self)
              "enabled_actions returned different lists for one state"
        | _ -> ());
        List.iter
          (fun a ->
            let c = act_cover (act_family a) in
            c.enabled <- c.enabled + 1)
          l1
      end;
      l1
    in
    (* ----- bounded BFS over global states ----- *)
    let visited : (Fingerprint.t, unit) Hashtbl.t = Hashtbl.create 4096 in
    let queue : (global * int) Queue.t = Queue.create () in
    let enqueue g depth =
      match fingerprint g with
      | exception Invalid_argument msg ->
          found Unmarshalable_state "state"
            (Printf.sprintf "global state cannot be marshalled: %s" msg)
      | fp ->
          if not (Hashtbl.mem visited fp) then begin
            Hashtbl.replace visited fp ();
            Queue.add (g, depth) queue
          end
    in
    let init = Dsm.Protocol.initial_system (module P) in
    Array.iteri (fun self s -> audit_recovery self s (audit_state s)) init;
    count_produced config.initial_net;
    enqueue
      { nodes = init; net = Net.Multiset.of_list config.initial_net }
      0;
    (try
       while not (Queue.is_empty queue) do
         let g, depth = Queue.pop queue in
         let depth_ok =
           match config.max_depth with Some d -> depth < d | None -> true
         in
         if depth_ok then begin
           (* deliveries: one per distinct in-flight message *)
           Net.Multiset.iter_distinct
             (fun (env : P.message Envelope.t) _count ->
               let self = env.Envelope.dst in
               let st = g.nodes.(self) in
               let fam = msg_family env.payload in
               let c = msg_cover fam in
               c.delivered <- c.delivered + 1;
               let key =
                 Fingerprint.of_value (`Deliver, self, st, env)
               in
               match
                 probe ~subject:fam ~key (fun () ->
                     P.handle_message ~self st env)
               with
               | `Asserted -> c.effective <- c.effective + 1
               | `Disabled -> ()
               | `Effect (st', out) ->
                   if st' <> st || out <> [] then
                     c.effective <- c.effective + 1;
                   audit_recovery self st' (audit_state st');
                   count_produced out;
                   let nodes = Array.copy g.nodes in
                   nodes.(self) <- st';
                   let net =
                     match Net.Multiset.remove env g.net with
                     | Some net -> Net.Multiset.add_list out net
                     | None -> assert false
                   in
                   enqueue { nodes; net } (depth + 1))
             g.net;
           (* internal actions, via the purity-probed enabled list *)
           List.iter
             (fun self ->
               let st = g.nodes.(self) in
               match Fingerprint.of_value st with
               | exception Invalid_argument _ -> ()
               | st_fp ->
                   List.iter
                     (fun action ->
                       let fam = act_family action in
                       let key =
                         Fingerprint.of_value (`Act, self, st, action)
                       in
                       match
                         probe ~subject:fam ~key (fun () ->
                             P.handle_action ~self st action)
                       with
                       | `Asserted | `Disabled -> ()
                       | `Effect (st', out) ->
                           if st' <> st || out <> [] then begin
                             let c = act_cover fam in
                             c.acted <- c.acted + 1
                           end;
                           audit_recovery self st' (audit_state st');
                           count_produced out;
                           let nodes = Array.copy g.nodes in
                           nodes.(self) <- st';
                           enqueue
                             { nodes; net = Net.Multiset.add_list out g.net }
                             (depth + 1))
                     (enabled_at self st st_fp))
             (Dsm.Node_id.all P.num_nodes)
         end
       done
     with Stop -> ());
    (* coverage verdicts *)
    Hashtbl.iter
      (fun fam (c : msg_cover) ->
        if
          c.produced > 0
          && c.delivered >= config.min_deliveries
          && c.effective = 0
        then
          found Dead_message fam
            (Printf.sprintf
               "produced %d time(s), %d deliveries never changed state, \
                sent anything, or asserted"
               c.produced c.delivered))
      msgs;
    Hashtbl.iter
      (fun fam (c : act_cover) ->
        if c.enabled >= config.min_deliveries && c.acted = 0 then
          found Dead_action fam
            (Printf.sprintf
               "enabled in %d state(s) but no execution ever changed \
                state or sent anything"
               c.enabled))
      acts;
    let findings =
      Hashtbl.fold
        (fun (kind, subject) detail acc ->
          { Report.kind; protocol = P.name; subject; detail } :: acc)
        findings []
      |> List.sort (fun (a : Report.finding) b ->
             compare
               (a.kind, a.subject, a.detail)
               (b.kind, b.subject, b.detail))
    in
    (match !scratch_store with
    | Some s ->
        let path = Store.Fp_set.path s in
        Store.Fp_set.close s;
        (try Sys.remove path with Sys_error _ -> ())
    | None -> ());
    {
      findings;
      stats =
        {
          global_states = Hashtbl.length visited;
          transitions = !transitions;
          probes = !probes;
          elapsed = Unix.gettimeofday () -. started;
        };
      completed = not !truncated;
    }
end
