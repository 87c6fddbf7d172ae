(* Deliberately defective protocols for exercising `lmc lint`.  Each
   plants exactly one sanitizer-class defect — the kind of bug that
   does not violate any invariant but silently corrupts checker
   verdicts — so the lint suite can assert one finding of the
   expected kind per fixture and nothing else. *)

module Envelope = Dsm.Envelope

(* ----- nondeterministic handler -----

   A module-level counter leaks into the Pong payload: re-executing
   the Ping handler from identical inputs yields different sends, the
   exact failure mode of hidden mutable state (sequence generators,
   randomness, wall-clock reads) in a handler. *)
module Nondet = struct
  let name = "fixture-nondet"
  let num_nodes = 2

  type state = int
  type message = Ping | Pong of int
  type action = Kick

  let initial _ = 0

  let counter = ref 0

  let handle_message ~self _st (env : message Envelope.t) =
    match env.payload with
    | Ping ->
        incr counter;
        (1, [ Envelope.make ~src:self ~dst:env.src (Pong !counter) ])
    | Pong _ -> (2, [])

  let enabled_actions ~self st =
    if self = 0 && st = 0 then [ Kick ] else []

  let handle_action ~self _st Kick =
    (1, [ Envelope.make ~src:self ~dst:1 Ping ])

  let on_recover = Dsm.Protocol.default_on_recover

  let pp_state ppf s = Format.fprintf ppf "%d" s
  let pp_message ppf = function
    | Ping -> Format.fprintf ppf "Ping"
    | Pong n -> Format.fprintf ppf "Pong(%d)" n
  let pp_action ppf Kick = Format.fprintf ppf "Kick"
end

(* ----- non-canonical state -----

   Two handler paths build logically equal states with different
   Marshal representations: [Shared] aliases one list into both
   fields (Marshal emits a back-reference), [Split] allocates the
   lists separately.  The states compare structurally equal but
   digest differently, so fingerprint dedup would explore "the same"
   state twice — the {!Dsm.Fingerprint} canonicality contract. *)
module Noncanon = struct
  let name = "fixture-noncanon"
  let num_nodes = 2

  type state = Start | Sent of int | Store of { xs : int list; ys : int list }
  type message = Shared | Split
  type action = Send_shared | Send_split

  let initial _ = Start

  (* The lists are computed from the envelope (not constants) so the
     compiler cannot lift them into the constant pool, where equal
     constants get shared and both branches would marshal alike. *)
  let handle_message ~self:_ _st (env : message Envelope.t) =
    match env.payload with
    | Shared ->
        let l = [ env.src + 1 ] in
        (Store { xs = l; ys = l }, [])
    | Split -> (Store { xs = [ env.src + 1 ]; ys = [ env.src + 1 ] }, [])

  let enabled_actions ~self st =
    if self = 0 && st = Start then [ Send_shared; Send_split ] else []

  let handle_action ~self _st a =
    match a with
    | Send_shared -> (Sent 1, [ Envelope.make ~src:self ~dst:1 Shared ])
    | Send_split -> (Sent 2, [ Envelope.make ~src:self ~dst:1 Split ])

  let on_recover = Dsm.Protocol.default_on_recover

  let pp_state ppf = function
    | Start -> Format.fprintf ppf "start"
    | Sent n -> Format.fprintf ppf "sent%d" n
    | Store { xs; ys } ->
        Format.fprintf ppf "store(%d,%d)" (List.length xs) (List.length ys)

  let pp_message ppf = function
    | Shared -> Format.fprintf ppf "Shared"
    | Split -> Format.fprintf ppf "Split"

  let pp_action ppf = function
    | Send_shared -> Format.fprintf ppf "SendShared"
    | Send_split -> Format.fprintf ppf "SendSplit"
end

(* ----- dead message -----

   Node 0 keeps broadcasting Noise; node 1 has no meaningful handler
   case for it — every delivery returns the state unchanged and sends
   nothing.  The coverage lint flags the constructor as dead: in a
   real protocol this is a forgotten handler case or a message the
   sender was never supposed to emit. *)
module Dead_letter = struct
  let name = "fixture-dead"
  let num_nodes = 2

  type state = int
  type message = Noise
  type action = Tick

  let initial _ = 0

  let handle_message ~self:_ st (_ : message Envelope.t) = (st, [])

  let enabled_actions ~self st =
    if self = 0 && st < 3 then [ Tick ] else []

  let handle_action ~self st Tick =
    (st + 1, [ Envelope.make ~src:self ~dst:1 Noise ])

  let on_recover = Dsm.Protocol.default_on_recover

  let pp_state ppf s = Format.fprintf ppf "%d" s
  let pp_message ppf Noise = Format.fprintf ppf "Noise"
  let pp_action ppf Tick = Format.fprintf ppf "Tick"
end

(* ----- nondeterministic recovery -----

   The handlers are clean, but node 0's [on_recover] folds a
   module-level epoch counter into the recovered state: two recoveries
   from the same pre-crash state disagree, so a crash-exploring
   checker could neither deduplicate recovered states nor replay a
   crash witness.  This is the recovery analogue of {!Nondet} — a
   wall-clock read or restart counter leaking into recovery logic. *)
module Flaky_recovery = struct
  let name = "fixture-flaky-recovery"
  let num_nodes = 2

  type state = int
  type message = Ping | Pong
  type action = Kick

  let initial _ = 0

  let handle_message ~self st (env : message Envelope.t) =
    match env.payload with
    | Ping -> (st + 1, [ Envelope.make ~src:self ~dst:env.src Pong ])
    | Pong -> (st + 2, [])

  let enabled_actions ~self st =
    if self = 0 && st = 0 then [ Kick ] else []

  let handle_action ~self st Kick =
    (st + 1, [ Envelope.make ~src:self ~dst:1 Ping ])

  let epoch = ref 0

  let on_recover ~self st =
    if self = 0 then begin
      incr epoch;
      (st * 16) + !epoch
    end
    else st

  let pp_state ppf s = Format.fprintf ppf "%d" s
  let pp_message ppf = function
    | Ping -> Format.fprintf ppf "Ping"
    | Pong -> Format.fprintf ppf "Pong"
  let pp_action ppf Kick = Format.fprintf ppf "Kick"
end

(* ----- broken symmetry claim -----

   A ping-pong flood whose author claims the full symmetric group S_3:
   no node id appears in any state or message, every node broadcasts
   the same greeting, every reply goes back to the envelope's source —
   it looks role-symmetric.  But the Ping handler secretly branches on
   [self]: node 0 counts each ping double.  Re-executing the same
   delivery under a role permutation then disagrees with permuting the
   result, which is exactly what the commutation audit probes; a
   checker that trusted the claim would fold distinct states (node 0
   ahead by one) into one orbit and silently skip reachable
   behaviour.  Everything else is deterministic, canonical and
   handled, so the sanitizer suite stays clean and the one finding is
   [broken_symmetry]. *)
module Sym_broken = struct
  let name = "fixture-sym-broken"
  let num_nodes = 3

  type state = int
  type message = Ping | Pong
  type action = Hello

  let initial _ = 0

  let others self =
    List.filter (fun d -> d <> self) (Dsm.Node_id.all num_nodes)

  let handle_message ~self st (env : message Envelope.t) =
    match env.payload with
    | Ping ->
        (* The planted defect: node 0 is special-cased. *)
        let bump = if self = 0 then 2 else 1 in
        (st + bump, [ Envelope.make ~src:self ~dst:env.src Pong ])
    | Pong -> (st + 16, [])

  let enabled_actions ~self:_ st = if st = 0 then [ Hello ] else []

  let handle_action ~self _st Hello =
    (1, List.map (fun d -> Envelope.make ~src:self ~dst:d Ping) (others self))

  let on_recover = Dsm.Protocol.default_on_recover

  let pp_state ppf s = Format.fprintf ppf "%d" s
  let pp_message ppf = function
    | Ping -> Format.fprintf ppf "Ping"
    | Pong -> Format.fprintf ppf "Pong"
  let pp_action ppf Hello = Format.fprintf ppf "Hello"
end

(* ----- genuinely symmetric flood -----

   The same ping-pong flood with the special case removed: states and
   messages mention no node ids, every node runs identical code, and
   destinations are equivariant (broadcast to everyone else, reply to
   the source).  The commutation audit passes the full symmetric
   group, so this fixture is the positive control: inference must
   propose S_3 and B-DFS may reduce.  Distinct interleavings
   leave the nodes at permuted progress counts, so global-state
   canonicalization in B-DFS collapses close to [n!] of the space. *)
module Sym_flood = struct
  let name = "fixture-sym-flood"
  let num_nodes = 3

  type state = int
  type message = Ping | Pong
  type action = Hello

  let initial _ = 0

  let others self =
    List.filter (fun d -> d <> self) (Dsm.Node_id.all num_nodes)

  let handle_message ~self st (env : message Envelope.t) =
    match env.payload with
    | Ping -> (st + 1, [ Envelope.make ~src:self ~dst:env.src Pong ])
    | Pong -> (st + 16, [])

  let enabled_actions ~self:_ st = if st = 0 then [ Hello ] else []

  let handle_action ~self _st Hello =
    (1, List.map (fun d -> Envelope.make ~src:self ~dst:d Ping) (others self))

  let on_recover = Dsm.Protocol.default_on_recover

  let pp_state ppf s = Format.fprintf ppf "%d" s
  let pp_message ppf = function
    | Ping -> Format.fprintf ppf "Ping"
    | Pong -> Format.fprintf ppf "Pong"
  let pp_action ppf Hello = Format.fprintf ppf "Hello"
end
