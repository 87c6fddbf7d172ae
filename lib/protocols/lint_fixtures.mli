(** Deliberately defective protocols for the lint suite.

    Each fixture plants exactly one sanitizer-class defect — a bug no
    invariant can see but that silently corrupts checker verdicts —
    so tests and the CI gate can assert that [lmc lint] reports
    exactly one finding of the expected kind per fixture:

    - {!Nondet} — a module-level counter leaks into a reply payload:
      [nondeterministic_handler].
    - {!Noncanon} — two handler paths build structurally equal states
      with different Marshal sharing: [noncanonical_state].
    - {!Dead_letter} — a broadcast message no recipient ever reacts
      to: [dead_message].
    - {!Flaky_recovery} — node 0's [on_recover] folds a module-level
      epoch counter into the recovered state:
      [nondeterministic_recovery].
    - {!Sym_broken} — looks role-symmetric (no ids in states or
      messages) and claims the full symmetric group, but the Ping
      handler secretly branches on [self]: [broken_symmetry] when the
      claim is audited.  Clean under the sanitizer suite — the defect
      is only visible to the commutation audit.
    - {!Sym_flood} — the positive control: the same flood with the
      special case removed, genuinely symmetric under [S_3].  No
      finding; inference proposes the full group and B-DFS may
      reduce. *)

module Nondet : Dsm.Protocol.S
module Noncanon : Dsm.Protocol.S
module Dead_letter : Dsm.Protocol.S
module Flaky_recovery : Dsm.Protocol.S
module Sym_broken : Dsm.Protocol.S

(** [state] stays concrete so runners can state invariants over the
    progress counters. *)
module Sym_flood : Dsm.Protocol.S with type state = int
