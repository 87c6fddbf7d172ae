(* Tests for lib/lint: the protocol sanitizers (each planted fixture
   detected with its expected kind, every bundled correct protocol and a
   qcheck sweep of synthetic seeds lint clean, lint.v1 emission
   round-trips) and the symmetry audits. *)

let check = Alcotest.check
let fail = Alcotest.fail

module R = Lint.Report

(* Bundled instances come from the registry, never re-instantiated. *)
let subject name = Option.get (Protocols.Registry.find name)

let protocol name =
  let (module S) = subject name in
  (module S.P : Dsm.Protocol.S)

(* ------------------------------------------------------------------ *)
(* Sanitize: the planted fixtures                                      *)
(* ------------------------------------------------------------------ *)

let run_lint (module P : Dsm.Protocol.S) =
  let module S = Lint.Sanitize.Make (P) in
  let r = S.run () in
  if not r.S.completed then fail (P.name ^ ": lint budget exhausted");
  r.S.findings

let expect_fixture (module P : Dsm.Protocol.S) kind subject =
  match run_lint (module P) with
  | [ f ] ->
      check Alcotest.string "kind" (R.kind_to_string kind)
        (R.kind_to_string f.R.kind);
      check Alcotest.string "subject" subject f.R.subject
  | fs ->
      fail
        (Printf.sprintf "%s: expected exactly one finding, got %d" P.name
           (List.length fs))

let test_fixture_nondet () =
  expect_fixture
    (module Protocols.Lint_fixtures.Nondet)
    R.Nondeterministic_handler "Ping"

let test_fixture_noncanon () =
  expect_fixture
    (module Protocols.Lint_fixtures.Noncanon)
    R.Noncanonical_state "state"

let test_fixture_dead () =
  expect_fixture
    (module Protocols.Lint_fixtures.Dead_letter)
    R.Dead_message "Noise"

let test_fixture_flaky_recovery () =
  expect_fixture
    (module Protocols.Lint_fixtures.Flaky_recovery)
    R.Nondeterministic_recovery "on_recover(node 0)"

(* The crash-recovery pb-store variant must lint clean under
   message-only exploration (the defect is reachable only through a
   crash), and in particular its [on_recover] must pass the recovery
   audit: deterministic, and canonical — recovered states digest like
   their message-reachable twins. *)
let test_crash_variant_recovery_clean () =
  match run_lint (protocol "pb-store-crash") with
  | [] -> ()
  | f :: _ -> fail (Format.asprintf "unexpected finding: %a" R.pp_finding f)

(* The persistence audit's planted fixture: a tampering hook between
   the 64-bit folding and the insert stands in for a corrupting store
   layer, and must surface as a digest-drift finding.  The clean
   round-trip is exercised by every other lint in this file (the audit
   runs on each distinct state fingerprint). *)
let test_fixture_store_drift () =
  let module P = Protocols.Tree.Make (Protocols.Tree.Paper_config) in
  let module S = Lint.Sanitize.Make (P) in
  let r =
    S.run
      ~config:
        {
          S.default_config with
          store_tamper = Some (fun k -> Int64.logxor k 0x00ff_00ff_00ff_00ffL);
        }
      ()
  in
  if not r.S.completed then fail "lint budget exhausted";
  match
    List.filter (fun f -> f.R.kind = R.Store_digest_drift) r.S.findings
  with
  | _ :: _ -> ()
  | [] -> fail "tampered store produced no store_digest_drift finding"

(* ------------------------------------------------------------------ *)
(* Sanitize: bundled correct protocols lint clean                      *)
(* ------------------------------------------------------------------ *)

let clean_instances =
  [
    "tree"; "chain"; "ping"; "randtree"; "2pc"; "ring"; "mutex"; "abp";
    "pb-store";
  ]

let test_correct_protocols_clean () =
  List.iter
    (fun name ->
      match run_lint (protocol name) with
      | [] -> ()
      | f :: _ ->
          fail
            (Format.asprintf "%s: unexpected finding: %a" name R.pp_finding f))
    clean_instances

(* Synthetic protocols are pure by construction (every behavioural
   decision hashes the seed and the inputs), so a determinism,
   canonicality, purity, or exception finding on any seed is a
   sanitizer false positive.  The coverage lint is excluded: a
   hash-derived behaviour may legitimately make every delivery of some
   message family a no-op (e.g. seed 34379), which in a hand-written
   protocol would be dead code but here is just the dice.  The budget
   covers the whole seed range: every seed in 0..100_000 completes
   within it (the largest, 44017, needs 1_723_482 transitions), so
   [completed] is a real obligation, not a coin flip against the
   sanitizer's 20_000 default. *)
let synthetic_clean =
  QCheck.Test.make ~count:120 ~name:"synthetic seeds lint clean"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let module P = Protocols.Synthetic.Make (struct
        let seed = seed
        let num_nodes = 3
        let max_state = 4
        let kinds = 3
      end) in
      let module S = Lint.Sanitize.Make (P) in
      let r =
        S.run
          ~config:
            {
              S.default_config with
              min_deliveries = max_int;
              max_transitions = 2_000_000;
            }
          ()
      in
      r.S.completed && r.S.findings = [])

(* And under the default config, the only findings a synthetic seed
   may ever produce are coverage verdicts. *)
let synthetic_contract_only =
  QCheck.Test.make ~count:60 ~name:"synthetic findings are coverage-only"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let module P = Protocols.Synthetic.Make (struct
        let seed = seed
        let num_nodes = 3
        let max_state = 4
        let kinds = 3
      end) in
      let module S = Lint.Sanitize.Make (P) in
      let r = S.run () in
      List.for_all
        (fun (f : R.finding) ->
          match f.R.kind with
          | R.Dead_message | R.Dead_action -> true
          | _ -> false)
        r.S.findings)

(* ------------------------------------------------------------------ *)
(* Report: families, allowlists, and the lint.v1 stream                *)
(* ------------------------------------------------------------------ *)

let test_family () =
  let cases =
    [
      ("Prepare(1,2)", "Prepare");
      ("Pong 3", "Pong");
      ("m123", "m");
      ("42", "42");
      ("fail-over", "fail-over");
      ("GetReply(miss)", "GetReply");
    ]
  in
  List.iter
    (fun (label, want) -> check Alcotest.string label want (R.family label))
    cases

let with_temp_file contents f =
  let path = Filename.temp_file "lint_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let test_allowlist_reconcile () =
  let allow =
    with_temp_file
      "# a comment\n\
       {\"protocol\":\"p\",\"kind\":\"dead_message\",\"subject\":\"M\"}\n\
       {\"protocol\":\"q\",\"kind\":\"dead_action\",\"subject\":\"A\"}\n"
      (fun path ->
        match R.load_allowlist path with
        | Ok l -> l
        | Error e -> fail e)
  in
  check Alcotest.int "entries" 2 (List.length allow);
  let finding =
    { R.kind = R.Dead_message; protocol = "p"; subject = "M"; detail = "d" }
  in
  let novel = { finding with R.subject = "Other" } in
  (* the covered finding is absorbed; the novel one surfaces; the "q"
     entry is stale only once "q" is actually linted *)
  let r = R.reconcile ~allow ~linted:[ "p" ] [ finding; novel ] in
  check Alcotest.int "unexpected" 1 (List.length r.R.unexpected);
  check Alcotest.int "stale (q unlinted)" 0 (List.length r.R.stale);
  let r = R.reconcile ~allow ~linted:[ "p"; "q" ] [ finding ] in
  check Alcotest.int "stale (q linted)" 1 (List.length r.R.stale)

let test_allowlist_rejects_garbage () =
  let bad s =
    with_temp_file s (fun path ->
        match R.load_allowlist path with Ok _ -> false | Error _ -> true)
  in
  check Alcotest.bool "unknown kind" true
    (bad "{\"protocol\":\"p\",\"kind\":\"nope\",\"subject\":\"M\"}\n");
  check Alcotest.bool "missing field" true (bad "{\"protocol\":\"p\"}\n");
  check Alcotest.bool "not json" true (bad "hello\n")

(* Round-trip: emit a run through a jsonl_file sink, then re-parse the
   serialized lines and re-validate what bin/jsonl_check enforces —
   schema tag, per-ev required fields, strictly increasing seq. *)
let test_lint_v1_round_trip () =
  let path = Filename.temp_file "lint_stream" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Obs.Sink.jsonl_file path in
      let t = R.to_sink sink in
      R.emit_start t ~protocol:"demo" ~max_depth:None ~max_transitions:100;
      R.emit_finding t
        { R.kind = R.Dead_message; protocol = "demo"; subject = "M";
          detail = "d" };
      R.emit_end t ~protocol:"demo" ~findings:1 ~transitions:7 ~states:3
        ~elapsed_s:0.01;
      Obs.Sink.close sink;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      let lines = List.rev !lines in
      check Alcotest.int "records" 3 (List.length lines);
      let last_seq = ref (-1) in
      let evs =
        List.map
          (fun line ->
            match Dsm.Json.of_string line with
            | Error e -> fail e
            | Ok (Dsm.Json.Obj fields) ->
                let str name =
                  match List.assoc_opt name fields with
                  | Some (Dsm.Json.String s) -> s
                  | _ -> fail (Printf.sprintf "missing string field %S" name)
                in
                check Alcotest.string "schema" "lint.v1" (str "schema");
                (match List.assoc_opt "seq" fields with
                | Some (Dsm.Json.Int s) ->
                    if s <= !last_seq then fail "seq not increasing";
                    last_seq := s
                | _ -> fail "missing seq");
                (match str "ev" with
                | "finding" ->
                    check Alcotest.string "kind" "dead_message" (str "kind");
                    check Alcotest.string "subject" "M" (str "subject")
                | "run_start" | "run_end" -> ()
                | ev -> fail ("unknown ev " ^ ev));
                str "ev"
            | Ok _ -> fail "not an object")
          lines
      in
      check
        Alcotest.(list string)
        "ev order"
        [ "run_start"; "finding"; "run_end" ]
        evs)

(* ------------------------------------------------------------------ *)
(* Symmetry: inference and the commutation audit                       *)
(* ------------------------------------------------------------------ *)

module Sym = Dsm.Symmetry
module Y_broken = Lint.Symmetry.Make (Protocols.Lint_fixtures.Sym_broken)
module Y_flood = Lint.Symmetry.Make (Protocols.Lint_fixtures.Sym_flood)

(* The sym-flood subject, whose invariant is slot-symmetric (it never
   looks at node identifiers), so the audit should license the full
   group. *)
module Flood = (val subject "sym-flood")
module Y_gap = Lint.Symmetry.Make (Flood.P)

(* The planted claim defect: fixture-sym-broken claims [S_3] but its
   Ping handler special-cases node 0.  The audit must report exactly
   one [broken_symmetry] finding and poison the claim entirely —
   identity verdict, so B-DFS never reduces under the broken group. *)
let test_sym_broken_claim_caught () =
  let r =
    Y_broken.run
      ~config:
        {
          Y_broken.default_config with
          claim = Some (Sym.with_id_maps (Sym.full 3));
        }
      ()
  in
  if not r.Y_broken.completed then fail "audit budget exhausted";
  (match r.Y_broken.findings with
  | [ f ] ->
      check Alcotest.string "kind" "broken_symmetry"
        (R.kind_to_string f.R.kind);
      check Alcotest.string "subject" "Ping" f.R.subject
  | fs ->
      fail
        (Printf.sprintf "expected exactly one finding, got %d"
           (List.length fs)));
  check Alcotest.bool "commutation poisoned to identity" true
    (Sym.is_trivial r.Y_broken.verdict.Y_broken.commutation.Sym.group)

(* Same protocol, no claim: inference proposes candidates, the audit
   silently demotes them (that is the audit doing its job), and no
   finding reaches the report pipeline. *)
let test_sym_broken_inference_silent () =
  let r = Y_broken.run () in
  if not r.Y_broken.completed then fail "audit budget exhausted";
  check Alcotest.int "no findings" 0 (List.length r.Y_broken.findings);
  check Alcotest.bool "commutation demoted to identity" true
    (Sym.is_trivial r.Y_broken.verdict.Y_broken.commutation.Sym.group)

(* The positive control: the same flood without the special case is
   genuinely [S_3]-symmetric, so the claimed group passes the audit
   and the verdict licenses B-DFS reduction. *)
let test_sym_flood_claim_passes () =
  let r =
    Y_gap.run
      ~config:
        {
          Y_gap.default_config with
          claim = Some (Sym.with_id_maps (Sym.full 3));
          invariant = Some Flood.invariant;
        }
      ()
  in
  if not r.Y_gap.completed then fail "audit budget exhausted";
  check Alcotest.int "no findings" 0 (List.length r.Y_gap.findings);
  check Alcotest.string "commutation = full" "full"
    (Sym.name r.Y_gap.verdict.Y_gap.commutation.Sym.group)

(* And inference finds the same group without being told. *)
let test_sym_flood_inferred () =
  let r =
    Y_gap.run
      ~config:{ Y_gap.default_config with invariant = Some Flood.invariant }
      ()
  in
  check Alcotest.int "no findings" 0 (List.length r.Y_gap.findings);
  check Alcotest.string "commutation = full" "full"
    (Sym.name r.Y_gap.verdict.Y_gap.commutation.Sym.group)

(* A slot-asymmetric invariant on an identifier-free protocol is not
   equivariant (with identity mappers the full action IS slot
   permutation): one [broken_symmetry] finding, reduction refused. *)
let test_sym_asym_invariant_poisons_claim () =
  let asym =
    Dsm.Invariant.for_all_nodes ~name:"node0-even" (fun i s ->
        if i = 0 && s mod 2 = 1 then Some "node 0 odd" else None)
  in
  let r =
    Y_flood.run
      ~config:
        {
          Y_flood.default_config with
          claim = Some (Sym.with_id_maps (Sym.full 3));
          invariant = Some asym;
        }
      ()
  in
  (match r.Y_flood.findings with
  | [ f ] ->
      check Alcotest.string "kind" "broken_symmetry"
        (R.kind_to_string f.R.kind);
      check Alcotest.string "subject" "invariant" f.R.subject
  | fs ->
      fail
        (Printf.sprintf "expected exactly one finding, got %d"
           (List.length fs)));
  check Alcotest.bool "commutation refused" true
    (Sym.is_trivial r.Y_flood.verdict.Y_flood.commutation.Sym.group)

(* States that embed node identifiers, mapped by the spec: the
   invariant is equivariant under the full action (rewrite ids, then
   permute slots), so B-DFS reduction is licensed and nothing is
   reported, although a slot-only permutation, which moves states to
   other nodes untouched, would flip its verdict. *)
module Owner = struct
  let name = "test-owner"
  let num_nodes = 3

  type state = int  (* the node's own identifier, set at [initial] *)
  type message = Nop [@warning "-37"]  (* no sender exists; audit probes only *)
  type action = Never [@warning "-37"]

  let initial self = self
  let handle_message ~self:_ st (_ : message Dsm.Envelope.t) = (st, [])
  let enabled_actions ~self:_ _ = []
  let handle_action ~self:_ st (Never : action) = (st, [])
  let on_recover = Dsm.Protocol.default_on_recover
  let pp_state ppf s = Format.fprintf ppf "%d" s
  let pp_message ppf Nop = Format.fprintf ppf "Nop"
  let pp_action ppf Never = Format.fprintf ppf "Never"
end

let test_sym_identifier_mapped_invariant () =
  let module Y = Lint.Symmetry.Make (Owner) in
  let claim =
    {
      Sym.group = Sym.full 3;
      map_state = (fun rename s -> rename s);
      map_message = (fun _ m -> m);
    }
  in
  let owns_own_id =
    Dsm.Invariant.for_all_nodes ~name:"owns-own-id" (fun i s ->
        if s <> i then Some "identifier moved to another slot" else None)
  in
  let r =
    Y.run
      ~config:
        {
          Y.default_config with
          claim = Some claim;
          invariant = Some owns_own_id;
        }
      ()
  in
  check Alcotest.int "no findings" 0 (List.length r.Y.findings);
  check Alcotest.string "commutation = full" "full"
    (Sym.name r.Y.verdict.Y.commutation.Sym.group)

(* Every kind — including the symmetry kind — must round-trip
   through the string encoding the lint.v1 stream and the allowlists
   use. *)
let test_kind_round_trip () =
  check Alcotest.bool "broken_symmetry registered" true
    (List.mem R.Broken_symmetry R.all_kinds);
  List.iter
    (fun k ->
      let s = R.kind_to_string k in
      match R.kind_of_string s with
      | Ok k' ->
          check Alcotest.string ("round-trip " ^ s) s (R.kind_to_string k')
      | Error e -> fail (s ^ ": " ^ e))
    R.all_kinds;
  check Alcotest.bool "unknown kind rejected" true
    (match R.kind_of_string "no_such_kind" with
    | Error _ -> true
    | Ok _ -> false)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lint"
    [
      ( "sanitize-fixtures",
        [
          Alcotest.test_case "nondeterministic handler" `Quick
            test_fixture_nondet;
          Alcotest.test_case "noncanonical state" `Quick
            test_fixture_noncanon;
          Alcotest.test_case "dead message" `Quick test_fixture_dead;
          Alcotest.test_case "flaky recovery" `Quick
            test_fixture_flaky_recovery;
          Alcotest.test_case "crash variant recovers clean" `Quick
            test_crash_variant_recovery_clean;
          Alcotest.test_case "store digest drift" `Quick
            test_fixture_store_drift;
        ] );
      ( "sanitize-clean",
        Alcotest.test_case "bundled correct protocols" `Quick
          test_correct_protocols_clean
        :: List.map QCheck_alcotest.to_alcotest
             [ synthetic_clean; synthetic_contract_only ] );
      ( "report",
        [
          Alcotest.test_case "label families" `Quick test_family;
          Alcotest.test_case "allowlist reconcile" `Quick
            test_allowlist_reconcile;
          Alcotest.test_case "allowlist rejects garbage" `Quick
            test_allowlist_rejects_garbage;
          Alcotest.test_case "lint.v1 round-trip" `Quick
            test_lint_v1_round_trip;
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "broken claim caught" `Quick
            test_sym_broken_claim_caught;
          Alcotest.test_case "broken inference silent" `Quick
            test_sym_broken_inference_silent;
          Alcotest.test_case "flood claim passes" `Quick
            test_sym_flood_claim_passes;
          Alcotest.test_case "flood group inferred" `Quick
            test_sym_flood_inferred;
          Alcotest.test_case "asymmetric invariant poisons claim" `Quick
            test_sym_asym_invariant_poisons_claim;
          Alcotest.test_case "id-mapped invariant passes" `Quick
            test_sym_identifier_mapped_invariant;
          Alcotest.test_case "kind round-trip" `Quick test_kind_round_trip;
        ] );
    ]
