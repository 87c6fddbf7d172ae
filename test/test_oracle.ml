(* Registry-wide differential oracle: every bundled subject runs under
   B-DFS, LMC-GEN and LMC-OPT (where the subject has an abstraction)
   under one shared transition budget.

   - Verdicts: a run that found a violation says [Bug]; a run that
     reached its fixpoint without one says [Safe]; a run the budget cut
     short says nothing.  Every pair of definite verdicts must agree —
     the paper's §4.3 claim that eliminating the network changes the
     cost of checking, not its answer.
   - Witnesses: every sound violation LMC reports must replay under
     global semantics ([Lmc.Witness]) to a system state that violates
     the invariant.
   - Symmetry: B-DFS under each subject's audited commutation group
     reaches the verdict B-DFS reaches without symmetry.

   Subjects whose B-DFS and LMC verdicts cannot both be reached cheaply
   are listed in [not_compared] with the reason; the test
   fails if that list and the runs disagree in either direction, so no
   subject drops out of the comparison silently. *)

let check = Alcotest.check

(* Transitions per run.  Every compared subject reaches its fixpoint
   or its bug below it (3-node Paxos under B-DFS, the largest, needs
   41,599).  The subjects in [not_compared] run under [bounded] instead:
   LMC-GEN's combination work grows with the product of the node
   stores, so on 1Paxos and SWIM a few thousand transitions already
   cost seconds. *)
let budget = 50_000
let bounded = 300

type verdict = Bug | Safe | Unknown

let pp_verdict = function Bug -> "bug" | Safe -> "safe" | Unknown -> "?"

let verdict ~violated ~completed =
  if violated then Bug else if completed then Safe else Unknown

(* Subjects whose B-DFS and LMC verdicts are not compared, and why. *)
let not_compared =
  [
    ( "onepaxos",
      "no checker reaches a verdict in 20 s; bounded, replay only" );
    ( "onepaxos-buggy",
      "no checker reaches a verdict in 20 s; bounded, replay only" );
    ( "swim",
      "no checker reaches a verdict in 20 s; bounded, replay only" );
    ( "swim-nosuspect",
      "LMC confirms a 4-event violation, B-DFS does not finish: the \
       soundness-only case" );
    ( "swim-ackrace",
      "no checker reaches a verdict in 20 s; bounded, replay only" );
  ]

module Oracle (S : Protocols.Registry.SUBJECT) = struct
  module G = Mc_global.Bdfs.Make (S.P)
  module L = Lmc.Checker.Make (S.P)
  module W = Lmc.Witness.Make (S.P)

  let init () = Dsm.Protocol.initial_system (module S.P)

  let budget =
    if List.mem_assoc S.name not_compared then bounded else budget

  let lmc strategy =
    let r =
      L.run
        { L.default_config with max_transitions = Some budget }
        ~strategy ~invariant:S.invariant (init ())
    in
    (* the witness direction: the schedule must execute from the
       initial state and end in a violating system state *)
    Option.iter
      (fun (v : L.violation) ->
        match W.replay ~init:(init ()) v.schedule with
        | None ->
            Alcotest.failf "%s: %d-event witness does not replay" S.name
              (List.length v.schedule)
        | Some final ->
            check Alcotest.bool
              (S.name ^ ": replayed witness violates the invariant")
              true
              (Dsm.Invariant.check S.invariant final <> None))
      r.sound_violation;
    verdict ~violated:(r.sound_violation <> None) ~completed:r.completed

  (* (checker, verdict) for every checker that applies *)
  let verdicts () =
    let g =
      G.run
        { G.default_config with max_transitions = Some budget }
        ~invariant:S.invariant (init ())
    in
    let opt =
      match S.opt with
      | Some (Protocols.Registry.Opt o) ->
          [
            ( "lmc-opt",
              lmc
                (L.Invariant_specific
                   { abstract = o.abstract; conflict = o.conflict }) );
          ]
      | None -> []
    in
    ("bdfs", verdict ~violated:(g.violation <> None) ~completed:g.completed)
    :: ("lmc-gen", lmc L.General)
    :: opt
end

let test_registry_verdicts () =
  let uncompared =
    List.filter_map
      (fun (module S : Protocols.Registry.SUBJECT) ->
        let module O = Oracle (S) in
        let vs = O.verdicts () in
        let definite = List.filter (fun (_, v) -> v <> Unknown) vs in
        List.iter
          (fun (c, v) ->
            List.iter
              (fun (c', v') ->
                if v <> v' then
                  Alcotest.failf "%s: %s says %s, %s says %s" S.name c
                    (pp_verdict v) c' (pp_verdict v'))
              definite)
          definite;
        if List.for_all (fun (_, v) -> v <> Unknown) vs then None
        else Some S.name)
      Protocols.Registry.subjects
  in
  check
    Alcotest.(list string)
    "subjects without a B-DFS/LMC comparison" (List.map fst not_compared)
    uncompared

(* B-DFS under the audited commutation group against B-DFS without
   symmetry, on every subject, under the same per-subject budget as the
   verdict comparison.  The verdict must not move.  Where the audit
   licenses only the identity group, reduction is the identity
   transformation, so every counter and the witness must match too;
   otherwise the reduced run may only visit fewer global states.  The
   negative controls pin that genuinely asymmetric roles audit to
   identity. *)
module Sym_oracle (S : Protocols.Registry.SUBJECT) = struct
  module O = Oracle (S)
  module Y = Lint.Symmetry.Make (S.P)

  let counters (o : O.G.outcome) =
    let s = o.stats in
    Printf.sprintf
      "transitions=%d global=%d system=%d depth=%d orbit_hits=%d \
       completed=%b witness=%s"
      s.transitions s.global_states s.system_states s.max_depth_reached
      s.orbit_hits o.completed
      (match o.violation with
      | None -> "none"
      | Some v ->
          Dsm.Fingerprint.to_hex
            (Dsm.Fingerprint.of_value
               (v.violation.Dsm.Invariant.detail, v.trace)))

  (* checks one subject; returns its audited group's name *)
  let run () =
    let y =
      Y.run ~config:{ Y.default_config with invariant = Some S.invariant } ()
    in
    let go symmetry =
      O.G.run
        { O.G.default_config with max_transitions = Some O.budget; symmetry }
        ~invariant:S.invariant (O.init ())
    in
    let off = go (Dsm.Symmetry.id_spec ~degree:S.P.num_nodes) in
    let auto = go y.verdict.commutation in
    let v (o : O.G.outcome) =
      pp_verdict (verdict ~violated:(o.violation <> None) ~completed:o.completed)
    in
    check Alcotest.string (S.name ^ ": verdict") (v off) (v auto);
    let group = y.verdict.commutation.Dsm.Symmetry.group in
    if Dsm.Symmetry.is_trivial group then
      check Alcotest.string (S.name ^ ": identity group, same counters")
        (counters off) (counters auto)
    else
      check Alcotest.bool
        (S.name ^ ": reduced global states <= off")
        true
        (auto.stats.global_states <= off.stats.global_states);
    Dsm.Symmetry.name group
end

let test_bdfs_symmetry () =
  let groups =
    List.map
      (fun (module S : Protocols.Registry.SUBJECT) ->
        let module T = Sym_oracle (S) in
        (S.name, T.run ()))
      Protocols.Registry.subjects
  in
  List.iter
    (fun name ->
      check Alcotest.string (name ^ ": asymmetric roles audit to identity")
        "id" (List.assoc name groups))
    [ "chain"; "pb-store" ]

(* The soundness-only case is pinned: LMC finds the planted SWIM bug,
   with a short witness, where the global search gets nowhere. *)
let test_swim_nosuspect_pinned () =
  let (module S) = Option.get (Protocols.Registry.find "swim-nosuspect") in
  let module L = Lmc.Checker.Make (S.P) in
  let r =
    L.run
      { L.default_config with max_transitions = Some bounded }
      ~strategy:L.General ~invariant:S.invariant
      (Dsm.Protocol.initial_system (module S.P))
  in
  check Alcotest.bool "swim-nosuspect: LMC-GEN completed" true r.completed;
  match r.sound_violation with
  | None -> Alcotest.fail "swim-nosuspect: LMC-GEN found no violation"
  | Some v ->
      check Alcotest.int "swim-nosuspect: witness length" 4
        (List.length v.schedule)

(* Projection completeness (paper §4.3): once LMC-GEN reaches its
   fixpoint, every node state of every global state B-DFS reaches is in
   LMC's store for that node.  Compared by fingerprint, the identity
   both checkers intern node states by, so two distinct states merged
   by an intern table show up as a missing one.  LMC runs in the exact
   regime of [test_synthetic] ([use_history = false]).  Both runs see
   a recording invariant that never fires: B-DFS calls it on every
   global state it reaches, and LMC-GEN on every combination of its
   stores, each of which holds a new node state. *)
module Projection (S : Protocols.Registry.SUBJECT) = struct
  module O = Oracle (S)

  (* A never-firing invariant and the node states it saw, per node. *)
  let recorder () =
    let seen = Array.init S.P.num_nodes (fun _ -> Hashtbl.create 256) in
    ( Dsm.Invariant.make ~name:"record" (fun sys ->
          Array.iteri
            (fun n s ->
              Hashtbl.replace seen.(n) (Dsm.Fingerprint.of_value s) ())
            sys;
          None),
      seen )

  (* The B-DFS node states missing from LMC's stores, as (node,
     fingerprint) pairs; [None] when B-DFS does not exhaust the space
     within [budget]. *)
  let missing () =
    let invariant, reached = recorder () in
    let g =
      O.G.run
        { O.G.default_config with max_transitions = Some O.budget }
        ~invariant (O.init ())
    in
    if not g.completed then None
    else begin
      let invariant, stored = recorder () in
      let r =
        O.L.run
          {
            O.L.default_config with
            use_history = false;
            max_transitions = Some O.budget;
          }
          ~strategy:O.L.General ~invariant (O.init ())
      in
      check Alcotest.bool (S.name ^ ": LMC-GEN reaches its fixpoint") true
        r.completed;
      Some
        (List.concat
           (List.init S.P.num_nodes (fun n ->
                Hashtbl.fold
                  (fun fp () acc ->
                    if Hashtbl.mem stored.(n) fp then acc
                    else (n, Dsm.Fingerprint.to_hex fp) :: acc)
                  reached.(n) [])))
    end
end

(* Subjects B-DFS exhausts whose projection is not checked, and why. *)
let projection_skipped =
  [
    ( "sym-flood",
      "LMC-GEN's product of the four stores passes 9 million system \
       states in 5 s, short of its fixpoint" );
  ]

let test_projection_complete () =
  let exhausted =
    List.filter_map
      (fun (module S : Protocols.Registry.SUBJECT) ->
        let module T = Projection (S) in
        if List.mem_assoc S.name projection_skipped then None
        else
          match T.missing () with
          | None -> None
          | Some missing ->
              check
                Alcotest.(list (pair int string))
                (S.name ^ ": B-DFS node states missing from LMC's stores")
                [] missing;
              Some S.name)
      Protocols.Registry.subjects
  in
  check
    Alcotest.(list string)
    "subjects B-DFS exhausts, projection checked"
    [
      "tree"; "chain"; "ping"; "randtree"; "randtree-buggy"; "paxos";
      "paxos-buggy"; "2pc"; "2pc-buggy"; "ring"; "ring-buggy"; "mutex";
      "mutex-buggy"; "abp"; "abp-buggy"; "pb-store"; "pb-store-buggy";
      "pb-store-crash";
    ]
    exhausted

let () =
  Alcotest.run "oracle"
    [
      ( "registry",
        [
          Alcotest.test_case "verdicts agree, witnesses replay" `Quick
            test_registry_verdicts;
          Alcotest.test_case "swim-nosuspect soundness-only" `Quick
            test_swim_nosuspect_pinned;
          Alcotest.test_case "B-DFS node states in LMC stores" `Quick
            test_projection_complete;
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "B-DFS auto = off across the registry" `Quick
            test_bdfs_symmetry;
        ] );
    ]
