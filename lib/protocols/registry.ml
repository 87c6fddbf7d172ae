type 's opt =
  | Opt : { abstract : 's -> 'k option; conflict : 'k -> 'k -> bool } -> 's opt

module type HUNT = sig
  module Live : Dsm.Protocol.S

  module Check :
    Dsm.Protocol.S
      with type state = Live.state
       and type message = Live.message
       and type action = Live.action

  val invariant : Check.state Dsm.Invariant.t
  val opt : Check.state opt option
  val action_prob : (Dsm.Node_id.t -> Check.action -> float) option
end

module type SUBJECT = sig
  val name : string
  val description : string

  module P : Dsm.Protocol.S

  val invariant : P.state Dsm.Invariant.t
  val opt : P.state opt option
  val hunt : (module HUNT) option
  val claim : Dsm.Symmetry.group option
end

type t = (module SUBJECT)

let name (module S : SUBJECT) = S.name

let make (type s) ~name ~description ?opt ?hunt ?claim
    (module P : Dsm.Protocol.S with type state = s)
    (invariant : s Dsm.Invariant.t) : t =
  (module struct
    let name = name
    let description = description

    module P = P

    let invariant = invariant
    let opt = opt
    let hunt = hunt
    let claim = claim
  end)

let opt abstract conflict = Opt { abstract; conflict }

let hunt (type s m a) ?opt ?action_prob
    (module Live : Dsm.Protocol.S
      with type state = s
       and type message = m
       and type action = a)
    (module Check : Dsm.Protocol.S
      with type state = s
       and type message = m
       and type action = a) invariant : (module HUNT) =
  (module struct
    module Live = Live
    module Check = Check

    let invariant = invariant
    let opt = opt
    let action_prob = action_prob
  end)

let tree =
  let module T = Tree.Make (Tree.Paper_config) in
  make ~name:"tree"
    ~description:"the 5-node forwarding tree of the paper's primer (2)"
    (module T) T.received_implies_sent

let chain =
  let module C = Chain.Make (struct
    let length = 8
  end) in
  make ~name:"chain"
    ~description:"8-node sequential forwarding chain (4.3's worst case)"
    (module C) C.prefix_closed

let ping =
  let module P = Ping.Make (struct
    let num_servers = 2
  end) in
  make ~name:"ping"
    ~description:"client/2-server request-response micro-protocol"
    (module P) P.no_excess_pongs

let randtree ~buggy =
  let module R = Randtree.Make (struct
    let num_nodes = 4
    let max_children = 2
    let max_attempts = 1
    let bug = if buggy then Randtree.Double_bookkeeping else Randtree.No_bug
  end) in
  make
    ~name:(if buggy then "randtree-buggy" else "randtree")
    ~description:
      (if buggy then "4-node RandTree overlay with the double-bookkeeping bug"
       else "4-node RandTree overlay (children/siblings disjointness)")
    (module R) R.disjointness

(* The check path explores the 5.1 benchmark space (one proposal); the
   hunt deploys three proposers and checks them without fresh
   proposals, the focused driver of 5.5. *)
let paxos ~buggy =
  let bug =
    if buggy then Paxos_core.Last_response_wins else Paxos_core.No_bug
  in
  let module Live = Paxos.Make (struct
    let num_nodes = 3
    let proposers = [ 0; 1; 2 ]
    let max_attempts = 2
    let max_index = 16
    let fresh_proposals = true
    let bug = bug
  end) in
  let module Check = Paxos.Make (struct
    let num_nodes = 3
    let proposers = [ 0; 1; 2 ]
    let max_attempts = 2
    let max_index = 16
    let fresh_proposals = false
    let bug = bug
  end) in
  let module Bench = Paxos.Make (struct
    include Paxos.Bench_config

    let bug = bug
  end) in
  make
    ~name:(if buggy then "paxos-buggy" else "paxos")
    ~description:
      (if buggy then "3-node Paxos with the 5.5 last-response bug"
       else "3-node Paxos, one proposal (the 5.1 benchmark space)")
    ~opt:(opt Bench.abstraction Bench.conflicts)
    ~hunt:
      (hunt
         ~opt:(opt Check.abstraction Check.conflicts)
         (module Live) (module Check) Check.safety)
    (module Bench) Bench.safety

let onepaxos ~buggy =
  let module OP = Onepaxos.Make (struct
    let num_nodes = 3
    let max_leader_claims = 2
    let max_attempts = 1
    let max_index = 12
    let max_util_entries = 3
    let max_util_attempts = 2
    let bug = if buggy then Onepaxos.Postfix_increment else Onepaxos.No_bug
  end) in
  let o = opt OP.abstraction OP.conflicts in
  make
    ~name:(if buggy then "onepaxos-buggy" else "onepaxos")
    ~description:
      (if buggy then "3-node 1Paxos with the 5.6 postfix-increment bug"
       else "3-node 1Paxos over an embedded PaxosUtility")
    ~opt:o
    ~hunt:
      (hunt ~opt:o
         ~action_prob:(fun _ a ->
           match a with Onepaxos.Claim_leadership -> 0.1 | _ -> 1.0)
         (module OP) (module OP) OP.safety)
    (module OP) OP.safety

let twophase ~buggy =
  let module T = Twophase.Make (struct
    let num_nodes = 4
    let no_voters = [ 2 ]
    let bug = if buggy then Twophase.Commit_on_majority else Twophase.No_bug
  end) in
  make
    ~name:(if buggy then "2pc-buggy" else "2pc")
    ~description:
      (if buggy then
         "two-phase commit deciding on a majority instead of unanimity"
       else "two-phase commit, 1 coordinator + 3 participants (one no-voter)")
    ~opt:(opt T.abstraction T.conflicts)
    (module T) T.atomicity

let ring ~buggy =
  let module R = Ring_election.Make (struct
    let num_nodes = 3
    let starters = [ 0; 1 ]

    let bug =
      if buggy then Ring_election.Forward_smaller else Ring_election.No_bug
  end) in
  make
    ~name:(if buggy then "ring-buggy" else "ring")
    ~description:
      (if buggy then
         "Chang-Roberts election forwarding losing tokens (two leaders)"
       else "Chang-Roberts leader election on a 3-node ring")
    ~opt:(opt R.abstraction R.conflicts)
    (module R) R.agreement

let mutex ~buggy =
  let module M = Token_mutex.Make (struct
    let num_nodes = 3
    let contenders = [ 1; 2 ]
    let max_regenerations = 1

    let bug =
      if buggy then Token_mutex.Regenerate_token else Token_mutex.No_bug
  end) in
  make
    ~name:(if buggy then "mutex-buggy" else "mutex")
    ~description:
      (if buggy then "token-ring mutual exclusion regenerating an unlost token"
       else "token-ring mutual exclusion, 3 nodes, 2 contenders")
    ~opt:(opt M.abstraction M.conflicts)
    (module M) M.mutual_exclusion

let abp ~buggy =
  let module A = Alternating_bit.Make (struct
    let data = [ 10; 20 ]
    let max_retransmits = 1
    let bug =
      if buggy then Alternating_bit.Ignore_bit else Alternating_bit.No_bug
  end) in
  let module FA = Fifo.Make (A) in
  make
    ~name:(if buggy then "abp-buggy" else "abp")
    ~description:
      (if buggy then
         "alternating-bit over FIFO channels, receiver ignoring the bit"
       else "alternating-bit protocol over FIFO (TCP-like) channels")
    (module FA)
    (FA.lift_invariant A.prefix_delivery)

let pb_store bug =
  let module P = Pb_store.Make (struct
    let key = 7
    let value = 42
    let bug = bug
  end) in
  match bug with
  | Pb_store.No_bug ->
      make ~name:"pb-store"
        ~description:"primary-backup store with fail-over reads" (module P)
        P.read_your_writes
  | Pb_store.Ack_before_replication ->
      make ~name:"pb-store-buggy"
        ~description:"primary-backup store acknowledging before replication"
        (module P) P.read_your_writes
  (* The fault-injection fixture: correct under every message schedule,
     broken only across a crash-recovery, so the hunt needs [--faults]
     (live crash events) and [--crash-budget] (checker crash events) to
     reach it. *)
  | Pb_store.Lose_acked_writes_on_recovery ->
      make ~name:"pb-store-crash"
        ~description:
          "primary-backup store losing acked writes on crash-recovery \
           (needs --crash-budget/--faults)"
        ~hunt:(hunt (module P) (module P) P.read_your_writes)
        (module P) P.read_your_writes

(* Both planted SWIM bugs hide behind the fault plan: [No_suspicion]
   is harmless until a reorder:/dup: storm ages live probes past the
   checker's widening bounds, and [Ack_race] needs a crash-with-recovery
   of the relay (live crash clauses plus --crash-budget for the
   checker's own crash exploration). *)
let swim ~num_servers bug =
  let module P = Swim.Make (struct
    let num_servers = num_servers
    let bug = bug
  end) in
  let name, description =
    match bug with
    | Swim.No_bug ->
        ( "swim",
          Printf.sprintf
            "%d-node SWIM gossip membership (ping-req/suspicion/refutation)"
            num_servers )
    | Swim.No_suspicion ->
        ( "swim-nosuspect",
          "SWIM declaring death on timeout alone (needs reorder:/dup: \
           faults or link loss; control runs want --drop 0)" )
    | Swim.Ack_race ->
        ( "swim-ackrace",
          "SWIM relay losing ack ownership across a crash (needs relay \
           crash:+--crash-budget)" )
  in
  make ~name ~description
    ~hunt:(hunt (module P) (module P) P.membership_safety)
    (module P) P.membership_safety

(* The genuinely symmetric fixture as a checkable instance: a harmless
   invariant (pairwise progress gap, never violated, slot-symmetric)
   passes the audit's equivariance check, and the protocol's full S_3
   commutation makes it the B-DFS reduction demo — canonicalization
   collapses permuted interleavings close to n!. *)
let sym_flood =
  make ~name:"sym-flood"
    ~description:"S3-symmetric ping-pong flood (symmetry-reduction demo)"
    (module Lint_fixtures.Sym_flood)
    (Dsm.Invariant.for_all_pairs ~name:"bounded-progress-gap"
       (fun _ a _ b ->
         if abs (a - b) > 100 then
           Some (Printf.sprintf "progress gap %d" (abs (a - b)))
         else None))

let subjects =
  [
    tree;
    chain;
    ping;
    randtree ~buggy:false;
    randtree ~buggy:true;
    paxos ~buggy:false;
    paxos ~buggy:true;
    onepaxos ~buggy:false;
    onepaxos ~buggy:true;
    twophase ~buggy:false;
    twophase ~buggy:true;
    ring ~buggy:false;
    ring ~buggy:true;
    mutex ~buggy:false;
    mutex ~buggy:true;
    abp ~buggy:false;
    abp ~buggy:true;
    pb_store Pb_store.No_bug;
    pb_store Pb_store.Ack_before_replication;
    pb_store Pb_store.Lose_acked_writes_on_recovery;
    swim ~num_servers:4 Swim.No_bug;
    swim ~num_servers:4 Swim.No_suspicion;
    swim ~num_servers:4 Swim.Ack_race;
    sym_flood;
  ]

(* The fixture's claim is audited whenever the lint runs with
   --symmetry auto (the default) — how the sym-broken fixture's defect
   is reached. *)
let fixture ~name ~description ?claim (module F : Dsm.Protocol.S) =
  make ~name ~description ?claim (module F)
    (Dsm.Invariant.make ~name:"true" (fun _ -> None))

let fixtures =
  [
    fixture ~name:"fixture-nondet"
      ~description:"planted defect: hidden counter leaks into a reply payload"
      (module Lint_fixtures.Nondet);
    fixture ~name:"fixture-noncanon"
      ~description:"planted defect: equal states with divergent Marshal sharing"
      (module Lint_fixtures.Noncanon);
    fixture ~name:"fixture-dead"
      ~description:"planted defect: a broadcast message nobody reacts to"
      (module Lint_fixtures.Dead_letter);
    fixture ~name:"fixture-flaky-recovery"
      ~description:"planted defect: an epoch counter leaks into on_recover"
      (module Lint_fixtures.Flaky_recovery);
    fixture ~name:"fixture-sym-broken"
      ~description:
        "planted defect: claims full symmetry but node 0 counts pings double"
      ~claim:(Dsm.Symmetry.full 3) (module Lint_fixtures.Sym_broken);
    fixture ~name:"fixture-sym-flood"
      ~description:"positive control: genuinely S3-symmetric ping-pong flood"
      ~claim:(Dsm.Symmetry.full 3) (module Lint_fixtures.Sym_flood);
  ]

let find n = List.find_opt (fun s -> name s = n) subjects
