(** Symmetry inference and the audit that licenses symmetry reduction.

    A role-permutation group is only safe to exploit if it actually
    commutes with the protocol, and a {e claimed} symmetry (a protocol
    author's annotation, or an explicit [--symmetry <group>] flag) is
    exactly the kind of assertion that drifts out of date.  This pass
    has two jobs:

    {ol
    {- {b Inference}: propose candidate groups for a [Dsm.Protocol.S]
       instance — the full symmetric group [S_n], the rotation group
       [C_n], identity-only as the fallback — by probing [initial],
       [enabled_actions], and handler behaviour across node ids.}
    {- {b Commutation audit}: re-execute every distinct reachable
       handler/action invocation (bounded BFS, the same machinery as
       {!Sanitize}) under every generator [p] of the group and check
       [permute (handle (s, e)) = handle (permute s, permute e)] on
       [(state', sends)] fingerprints, plus [initial], [on_recover]
       and [enabled_actions] equivariance.  With an invariant, also
       check that its verdict is equivariant under the full action
       (identifiers rewritten, then slots permuted) on every reachable
       global tuple and on a bounded deterministic sample of
       cross-product combinations of per-node reachable states.  A
       group that passes is safe for {e global-state} reduction in
       [Mc_global.Bdfs].}}

    [Broken_symmetry] findings are emitted only for {e claimed} groups:
    an inferred candidate that fails its audit is silently demoted
    (that is the audit doing its job), but a claim that fails is a
    defect in the annotation and goes through the [Report]/allowlist
    pipeline.  A claimed-but-broken group poisons the claim entirely:
    the verdict falls back to identity, so B-DFS refuses to reduce. *)

module Make (P : Dsm.Protocol.S) : sig
  type config = {
    max_depth : int option;
    max_transitions : int;  (** handler-invocation budget for the BFS *)
    initial_net : P.message Dsm.Envelope.t list;
    claim : (P.state, P.message) Dsm.Symmetry.spec option;
        (** audit exactly this group (emitting findings on failure)
            instead of inferring candidates *)
    invariant : P.state Dsm.Invariant.t option;
        (** safety invariant whose verdict must be equivariant under
            the group; [None] audits the handlers only *)
    max_combo_samples : int;
        (** budget for sampled cross-product combinations in the
            invariant audit *)
  }

  val default_config : config

  type stats = {
    global_states : int;
    transitions : int;
    probes : int;  (** commutation and invariant re-executions *)
    elapsed : float;
  }

  (** What B-DFS is licensed to exploit. *)
  type verdict = {
    commutation : (P.state, P.message) Dsm.Symmetry.spec;
        (** largest audited group (with its mappers) under which every
            probed invocation commuted — safe for global-state
            canonicalization in B-DFS *)
    candidates : Dsm.Symmetry.group list;
        (** the groups inference proposed (strongest first), for logs *)
  }

  type result = {
    findings : Report.finding list;
    verdict : verdict;
    stats : stats;
    completed : bool;  (** false when [max_transitions] truncated *)
  }

  val run : ?config:config -> unit -> result
end
