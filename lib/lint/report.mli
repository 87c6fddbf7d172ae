(** Lint findings: the typed result record, the [lint.v1] JSONL
    stream, and the checked-in allowlist used by the CI gate.

    A finding is identified by [(protocol, kind, subject)]: [subject]
    is a stable, run-independent label (a message/action family, or
    ["state"] for whole-state audits), so the same defect reports the
    same identity on every run and the allowlist can name it.  The
    free-form [detail] carries the specifics of one occurrence. *)

type kind =
  | Nondeterministic_handler
      (** same [(state, input)] executed twice produced different
          [(state', sends)] fingerprints *)
  | Nondeterministic_actions
      (** [enabled_actions] returned different lists for one state *)
  | Noncanonical_state
      (** two structurally equal stored states have different digests
          (e.g. Marshal sharing divergence), breaking the fingerprint
          contract: equal states would be explored twice *)
  | Digest_collision
      (** two structurally distinct states share a digest: fingerprint
          dedup would silently merge them *)
  | Unmarshalable_state
      (** a state cannot be marshalled (contains functional values),
          so it cannot be fingerprinted at all *)
  | Dead_message
      (** a message family is produced and repeatedly delivered but no
          delivery ever changed state, sent anything, or asserted *)
  | Dead_action
      (** an action family is repeatedly enabled but no execution ever
          changed state or sent anything *)
  | Handler_exception
      (** a handler raised something other than [Local_assert] *)
  | Nondeterministic_recovery
      (** [on_recover] executed twice from one state produced different
          recovered-state fingerprints — crash exploration in the
          checkers would not be replayable *)
  | Store_digest_drift
      (** a fingerprint inserted into a disk-backed {!Store.Fp_set}
          did not read back bit-identical to its 64-bit folding — a
          corrupted persistence layer would silently skip unexplored
          states on resume *)
  | Broken_symmetry
      (** a claimed role-permutation failed the commutation audit:
          [permute (handle (s, e))] and [handle (permute s, permute e)]
          disagreed on [(state', sends)] fingerprints for some reachable
          invocation — exploiting the group in B-DFS would merge
          inequivalent global states *)

val kind_to_string : kind -> string
val kind_of_string : string -> (kind, string) result

(** All kinds, in report order. *)
val all_kinds : kind list

type finding = {
  kind : kind;
  protocol : string;
  subject : string;
  detail : string;
}

val pp_finding : Format.formatter -> finding -> unit

(** {2 The lint.v1 stream}

    Records are JSONL objects
    [{"ts":..,"event":"lint","schema":"lint.v1","seq":N,"ev":..,...}]
    with ["ev"] one of [run_start] (protocol, budget), [finding] (kind,
    protocol, subject, detail) and [run_end] (protocol, findings,
    transitions, states, elapsed_s).  [seq] is strictly increasing per
    stream; [bin/jsonl_check] validates all of this. *)

(** The schema tag carried by every record (["lint.v1"]). *)
val schema : string

type emitter

(** Drops everything. *)
val null : emitter

val to_sink : Obs.Sink.t -> emitter

val emit_start :
  emitter ->
  protocol:string ->
  max_depth:int option ->
  max_transitions:int ->
  unit

val emit_finding : emitter -> finding -> unit

val emit_end :
  emitter ->
  protocol:string ->
  findings:int ->
  transitions:int ->
  states:int ->
  elapsed_s:float ->
  unit

(** {2 Allowlist}

    One JSONL object per line:
    [{"protocol":"...","kind":"...","subject":"..."}].  Blank lines
    and lines starting with [#] are skipped. *)

type allow_entry = { a_protocol : string; a_kind : kind; a_subject : string }

val load_allowlist : string -> (allow_entry list, string) result

type reconciliation = {
  unexpected : finding list;  (** findings no allowlist entry covers *)
  stale : allow_entry list;
      (** entries (for the protocols actually linted) that matched no
          finding: the defect was fixed, so the allowlist must shrink *)
}

(** [reconcile ~allow ~linted findings] checks the run against the
    allowlist.  [linted] is the set of protocol names that actually
    ran: entries for other protocols are left alone rather than
    reported stale. *)
val reconcile :
  allow:allow_entry list ->
  linted:string list ->
  finding list ->
  reconciliation

(** {2 Label families}

    ["Prepare(1,2)"] and ["Prepare(2,0)"] are the same handler, and
    the synthetic protocols render payloads as ["m12"]: the family is
    the prefix before the first ['('] or [' '], with trailing digits
    stripped.  Coverage lints aggregate by family so a constructor is
    dead only when {e no} payload of it was ever consumed. *)
val family : string -> string
