(* Symmetry inference + the commutation audit.  See the mli for the
   contract.  The exploration mirrors Sanitize's bounded BFS; the
   audits piggyback on every distinct reachable invocation. *)

module Sym = Dsm.Symmetry

module Make (P : Dsm.Protocol.S) = struct
  module Envelope = Dsm.Envelope
  module Fingerprint = Dsm.Fingerprint

  type config = {
    max_depth : int option;
    max_transitions : int;
    initial_net : P.message Envelope.t list;
    claim : (P.state, P.message) Sym.spec option;
    invariant : P.state Dsm.Invariant.t option;
    max_combo_samples : int;
  }

  let default_config =
    {
      max_depth = None;
      max_transitions = 20_000;
      initial_net = [];
      claim = None;
      invariant = None;
      max_combo_samples = 4_096;
    }

  type stats = {
    global_states : int;
    transitions : int;
    probes : int;
    elapsed : float;
  }

  type verdict = {
    commutation : (P.state, P.message) Sym.spec;
    candidates : Sym.group list;
  }

  type result = {
    findings : Report.finding list;
    verdict : verdict;
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

  (* A candidate under audit: the spec plus its first counterexample,
     used for claim findings and the CLI warning. *)
  type candidate = {
    spec : (P.state, P.message) Sym.spec;
    mutable broken : (string * string) option;  (* subject, detail *)
  }

  exception Stop

  let run ?(config = default_config) () =
    let started = Unix.gettimeofday () in
    let n = P.num_nodes in
    let inferred =
      (* strongest first; S_n only while its eager enumeration is sane *)
      (if n <= 8 then [ Sym.full n ] else [])
      @ (if n >= 3 then [ Sym.rotations n ] else [])
      |> List.filter (fun g -> not (Sym.is_trivial g))
    in
    let candidates =
      match config.claim with
      | Some spec -> [ { spec; broken = None } ]
      | None ->
          List.map
            (fun g -> { spec = Sym.with_id_maps g; broken = None })
            inferred
    in
    let transitions = ref 0 and probes = ref 0 and truncated = ref false in
    let alive c = c.broken = None in
    let fp_of v =
      match Fingerprint.of_value v with
      | fp -> Some fp
      | exception Invalid_argument _ -> None
    in
    (* sends are a multiset: compare as sorted envelope fingerprints *)
    let out_fp envs =
      match
        List.map
          (fun (e : _ Envelope.t) ->
            Fingerprint.of_value (e.Envelope.src, e.Envelope.dst, e.payload))
          envs
      with
      | fps -> Some (Fingerprint.combine (List.sort Fingerprint.compare fps))
      | exception Invalid_argument _ -> None
    in
    let permute_env spec p (e : P.message Envelope.t) =
      let r = Sym.apply p in
      {
        Envelope.src = r e.Envelope.src;
        dst = r e.Envelope.dst;
        payload = spec.Sym.map_message r e.payload;
      }
    in
    let kill c subject detail =
      if alive c then c.broken <- Some (subject, detail)
    in
    (* one commutation probe: run [invoke] permuted and un-permuted and
       compare (state', sends) fingerprints through the permutation *)
    let invoke_fp f =
      match f () with
      | exception Dsm.Protocol.Local_assert _ -> `Asserted
      | exception _ -> `Raised
      | st', out -> (
          match (fp_of st', out_fp out) with
          | Some sfp, Some ofp -> `Result (sfp, ofp, st', out)
          | _ -> `Unfingerprintable)
    in
    let commute_probe c p ~subject ~lhs ~rhs =
      incr probes;
      match (invoke_fp lhs, invoke_fp rhs) with
      | `Asserted, `Asserted | `Raised, `Raised -> ()
      | `Unfingerprintable, _ | _, `Unfingerprintable ->
          kill c subject "handler result cannot be fingerprinted"
      | `Result (_, _, st1, out1), `Result (sfp2, ofp2, _, _) -> (
          let r = Sym.apply p in
          let mapped1 = c.spec.Sym.map_state r st1 in
          let out1' = List.map (permute_env c.spec p) out1 in
          match (fp_of mapped1, out_fp out1') with
          | Some sfp1, Some ofp1 ->
              if
                not
                  (Fingerprint.equal sfp1 sfp2
                  && Fingerprint.equal ofp1 ofp2)
              then
                kill c subject
                  (Format.asprintf
                     "generator %a does not commute: permute(handle(s,e)) \
                      = %s/%s but handle(permute s, permute e) = %s/%s"
                     Sym.pp_perm p (Fingerprint.to_hex sfp1)
                     (Fingerprint.to_hex ofp1) (Fingerprint.to_hex sfp2)
                     (Fingerprint.to_hex ofp2))
          | _ -> kill c subject "permuted result cannot be fingerprinted")
      | a, b ->
          let tag = function
            | `Asserted -> "asserts"
            | `Raised -> "raises"
            | _ -> "returns"
          in
          kill c subject
            (Format.asprintf
               "generator %a does not commute: original %s where permuted \
                image %s"
               Sym.pp_perm p (tag a) (tag b))
    in
    (* ----- inference pre-probes: initial + enabled_actions ----- *)
    let init = Dsm.Protocol.initial_system (module P) in
    let audit_initial c =
      List.iter
        (fun p ->
          if alive c then
            Array.iteri
              (fun i s ->
                if alive c then
                  let mapped = c.spec.Sym.map_state (Sym.apply p) s in
                  match (fp_of mapped, fp_of init.(p.(i))) with
                  | Some f1, Some f2 when Fingerprint.equal f1 f2 -> ()
                  | _ ->
                      kill c "initial"
                        (Format.asprintf
                           "initial state of node %d is not the generator \
                            %a image of node %d's"
                           p.(i) Sym.pp_perm p i))
              init)
        c.spec.Sym.group.Sym.generators
    in
    List.iter audit_initial candidates;
    let acts_fp self st =
      match P.enabled_actions ~self st with
      | acts ->
          (match
             List.map (fun a -> Fingerprint.of_value a) acts
           with
          | fps ->
              Some (Fingerprint.combine (List.sort Fingerprint.compare fps))
          | exception Invalid_argument _ -> None)
      | exception _ -> None
    in
    let audit_enabled c self st =
      List.iter
        (fun p ->
          if alive c then begin
            incr probes;
            let mapped = c.spec.Sym.map_state (Sym.apply p) st in
            match (acts_fp self st, acts_fp p.(self) mapped) with
            | Some f1, Some f2 when Fingerprint.equal f1 f2 -> ()
            | _ ->
                kill c
                  (Printf.sprintf "enabled_actions(node %d)" self)
                  (Format.asprintf
                     "enabled_actions is not equivariant under generator %a"
                     Sym.pp_perm p)
          end)
        c.spec.Sym.group.Sym.generators
    in
    (* ----- audited exploration ----- *)
    let audited : (Fingerprint.t, unit) Hashtbl.t = Hashtbl.create 1024 in
    let once key f =
      if not (Hashtbl.mem audited key) then begin
        Hashtbl.add audited key ();
        f ()
      end
    in
    let audit_delivery self st (env : P.message Envelope.t) =
      match fp_of (`Deliver, self, st, env) with
      | None -> ()
      | Some key ->
          once key (fun () ->
              let subject = msg_family env.payload in
              List.iter
                (fun c ->
                  if alive c then
                    List.iter
                      (fun p ->
                        if alive c then
                          commute_probe c p ~subject
                            ~lhs:(fun () -> P.handle_message ~self st env)
                            ~rhs:(fun () ->
                              P.handle_message ~self:p.(self)
                                (c.spec.Sym.map_state (Sym.apply p) st)
                                (permute_env c.spec p env)))
                      c.spec.Sym.group.Sym.generators)
                candidates)
    in
    let audit_action self st action =
      match fp_of (`Act, self, st, action) with
      | None -> ()
      | Some key ->
          once key (fun () ->
              let subject = act_family action in
              List.iter
                (fun c ->
                  if alive c then
                    List.iter
                      (fun p ->
                        if alive c then
                          commute_probe c p ~subject
                            ~lhs:(fun () -> P.handle_action ~self st action)
                            ~rhs:(fun () ->
                              P.handle_action ~self:p.(self)
                                (c.spec.Sym.map_state (Sym.apply p) st)
                                action))
                      c.spec.Sym.group.Sym.generators)
                candidates)
    in
    let audit_recover self st =
      match fp_of (`Recover, self, st) with
      | None -> ()
      | Some key ->
          once key (fun () ->
              let subject = Printf.sprintf "on_recover(node %d)" self in
              List.iter
                (fun c ->
                  if alive c then
                    List.iter
                      (fun p ->
                        if alive c then
                          commute_probe c p ~subject
                            ~lhs:(fun () -> (P.on_recover ~self st, []))
                            ~rhs:(fun () ->
                              ( P.on_recover ~self:p.(self)
                                  (c.spec.Sym.map_state (Sym.apply p) st),
                                [] )))
                      c.spec.Sym.group.Sym.generators)
                candidates)
    in
    let audit_enabled_once self st =
      match fp_of (`Enabled, self, st) with
      | None -> ()
      | Some key ->
          once key (fun () ->
              List.iter
                (fun c -> if alive c then audit_enabled c self st)
                candidates)
    in
    (* ----- invariant equivariance -----

       B-DFS skips whole states whose canonical key was seen, invariant
       evaluation included, so the invariant's clean/violating verdict
       must survive the full action (states identifier-mapped, then
       slots permuted).  Checked on every reachable global tuple, and
       below on sampled cross-product combinations of per-node
       reachable states, which no single global tuple exhibits. *)
    let inv_clean tuple =
      match config.invariant with
      | None -> true
      | Some inv -> (
          match Dsm.Invariant.check inv tuple with
          | None -> true
          | Some _ -> false
          | exception _ -> false)
    in
    let audit_tuple_equivariance tuple =
      match config.invariant with
      | None -> ()
      | Some _ ->
          List.iter
            (fun c ->
              List.iter
                (fun p ->
                  if alive c then begin
                    incr probes;
                    let mapped =
                      Array.map (c.spec.Sym.map_state (Sym.apply p)) tuple
                    in
                    let permuted = Sym.permute_slots p mapped in
                    if inv_clean tuple <> inv_clean permuted then
                      kill c "invariant"
                        (Format.asprintf
                           "invariant is not equivariant under generator %a"
                           Sym.pp_perm p)
                  end)
                c.spec.Sym.group.Sym.generators)
            candidates
    in
    (* per-node reachable states for the cross-product sample *)
    let max_states_per_node = 32 in
    let node_states : (Fingerprint.t, unit) Hashtbl.t array =
      Array.init n (fun _ -> Hashtbl.create 64)
    in
    let node_pool : P.state list array = Array.make n [] in
    let note_node_state self st =
      match fp_of st with
      | None -> ()
      | Some fp ->
          let tbl = node_states.(self) in
          if
            (not (Hashtbl.mem tbl fp))
            && Hashtbl.length tbl < max_states_per_node
          then begin
            Hashtbl.add tbl fp ();
            node_pool.(self) <- st :: node_pool.(self)
          end
    in
    (* ----- bounded BFS (Sanitize's shape, without its audits) ----- *)
    let visited : (Fingerprint.t, unit) Hashtbl.t = Hashtbl.create 4096 in
    let queue : (global * int) Queue.t = Queue.create () in
    let enqueue g depth =
      match fingerprint g with
      | exception Invalid_argument _ -> ()
      | fp ->
          if not (Hashtbl.mem visited fp) then begin
            Hashtbl.replace visited fp ();
            Queue.add (g, depth) queue
          end
    in
    Array.iteri (fun self s -> note_node_state self s) init;
    enqueue
      { nodes = init; net = Net.Multiset.of_list config.initial_net }
      0;
    (try
       while not (Queue.is_empty queue) do
         if not (List.exists alive candidates) then raise Stop;
         let g, depth = Queue.pop queue in
         audit_tuple_equivariance g.nodes;
         let depth_ok =
           match config.max_depth with Some d -> depth < d | None -> true
         in
         if depth_ok then begin
           Net.Multiset.iter_distinct
             (fun (env : P.message Envelope.t) _count ->
               let self = env.Envelope.dst in
               let st = g.nodes.(self) in
               if !transitions >= config.max_transitions then begin
                 truncated := true;
                 raise Stop
               end;
               incr transitions;
               audit_delivery self st env;
               match P.handle_message ~self st env with
               | exception _ -> ()
               | st', out ->
                   note_node_state self st';
                   audit_recover self st';
                   let nodes = Array.copy g.nodes in
                   nodes.(self) <- st';
                   let net =
                     match Net.Multiset.remove env g.net with
                     | Some net -> Net.Multiset.add_list out net
                     | None -> assert false
                   in
                   enqueue { nodes; net } (depth + 1))
             g.net;
           List.iter
             (fun self ->
               let st = g.nodes.(self) in
               audit_enabled_once self st;
               match P.enabled_actions ~self st with
               | exception _ -> ()
               | actions ->
                   List.iter
                     (fun action ->
                       if !transitions >= config.max_transitions then begin
                         truncated := true;
                         raise Stop
                       end;
                       incr transitions;
                       audit_action self st action;
                       match P.handle_action ~self st action with
                       | exception _ -> ()
                       | st', out ->
                           note_node_state self st';
                           audit_recover self st';
                           let nodes = Array.copy g.nodes in
                           nodes.(self) <- st';
                           enqueue
                             {
                               nodes;
                               net = Net.Multiset.add_list out g.net;
                             }
                             (depth + 1))
                     actions)
             (Dsm.Node_id.all P.num_nodes)
         end
       done
     with Stop -> ());
    (* cross-product combination sample: mixed-radix enumeration over
       the per-node reachable pools, bounded by [max_combo_samples] —
       deterministic, no RNG *)
    (match config.invariant with
    | None -> ()
    | Some _ ->
        let pools = Array.map Array.of_list node_pool in
        if Array.for_all (fun a -> Array.length a > 0) pools then begin
          let idx = Array.make n 0 in
          let samples = ref 0 in
          let continue = ref true in
          while !continue && !samples < config.max_combo_samples do
            let tuple = Array.init n (fun i -> pools.(i).(idx.(i))) in
            audit_tuple_equivariance tuple;
            incr samples;
            (* odometer increment *)
            let rec bump i =
              if i < 0 then continue := false
              else begin
                idx.(i) <- idx.(i) + 1;
                if idx.(i) >= Array.length pools.(i) then begin
                  idx.(i) <- 0;
                  bump (i - 1)
                end
              end
            in
            bump (n - 1)
          done
        end);
    (* ----- verdicts + findings ----- *)
    let findings = ref [] in
    let found kind subject detail =
      findings :=
        { Report.kind; protocol = P.name; subject; detail } :: !findings
    in
    let commutation =
      match config.claim with
      | Some spec -> (
          match (List.hd candidates).broken with
          | Some (subject, detail) ->
              (* claimed-but-broken poisons the claim entirely *)
              found Report.Broken_symmetry subject detail;
              Sym.id_spec ~degree:n
          | None -> spec)
      | None -> (
          match List.find_opt alive candidates with
          | Some c -> c.spec
          | None -> Sym.id_spec ~degree:n)
    in
    {
      findings =
        List.sort
          (fun (a : Report.finding) b ->
            compare
              (a.kind, a.subject, a.detail)
              (b.kind, b.subject, b.detail))
          !findings;
      verdict =
        {
          commutation;
          candidates = List.map (fun c -> c.spec.Sym.group) candidates;
        };
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
