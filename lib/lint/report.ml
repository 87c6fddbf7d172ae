type kind =
  | Nondeterministic_handler
  | Nondeterministic_actions
  | Noncanonical_state
  | Digest_collision
  | Unmarshalable_state
  | Dead_message
  | Dead_action
  | Handler_exception
  | Nondeterministic_recovery
  | Store_digest_drift
  | Broken_symmetry

let all_kinds =
  [
    Nondeterministic_handler;
    Nondeterministic_actions;
    Noncanonical_state;
    Digest_collision;
    Unmarshalable_state;
    Dead_message;
    Dead_action;
    Handler_exception;
    Nondeterministic_recovery;
    Store_digest_drift;
    Broken_symmetry;
  ]

let kind_to_string = function
  | Nondeterministic_handler -> "nondeterministic_handler"
  | Nondeterministic_actions -> "nondeterministic_actions"
  | Noncanonical_state -> "noncanonical_state"
  | Digest_collision -> "digest_collision"
  | Unmarshalable_state -> "unmarshalable_state"
  | Dead_message -> "dead_message"
  | Dead_action -> "dead_action"
  | Handler_exception -> "handler_exception"
  | Nondeterministic_recovery -> "nondeterministic_recovery"
  | Store_digest_drift -> "store_digest_drift"
  | Broken_symmetry -> "broken_symmetry"

let kind_of_string s =
  match
    List.find_opt (fun k -> String.equal (kind_to_string k) s) all_kinds
  with
  | Some k -> Ok k
  | None -> Error (Printf.sprintf "unknown finding kind %S" s)

type finding = {
  kind : kind;
  protocol : string;
  subject : string;
  detail : string;
}

let pp_finding ppf f =
  Format.fprintf ppf "%s: %s: %s: %s" f.protocol (kind_to_string f.kind)
    f.subject f.detail

(* ----- label families -----

   "Prepare(1,2)" and "Prepare(2,0)" are one handler; synthetic
   protocols render payloads as "m12".  The family is the prefix
   before the first '(' or ' ', then minus any trailing digits, so
   coverage aggregates whole constructors, not individual payloads. *)

let family label =
  let stem =
    match String.index_opt label '(' with
    | Some i -> String.sub label 0 i
    | None -> (
        match String.index_opt label ' ' with
        | Some i -> String.sub label 0 i
        | None -> label)
  in
  let n = String.length stem in
  let rec first_digit i =
    if i > 0 && (match stem.[i - 1] with '0' .. '9' -> true | _ -> false)
    then first_digit (i - 1)
    else i
  in
  let cut = first_digit n in
  (* keep purely numeric labels whole rather than reducing to "" *)
  if cut = 0 then stem else String.sub stem 0 cut

(* ----- the lint.v1 stream ----- *)

let schema = "lint.v1"

type emitter = {
  sink : Obs.Sink.t option;
  mutable seq : int;
  clock0 : float;
}

let null = { sink = None; seq = 0; clock0 = 0. }

let to_sink sink =
  { sink = Some sink; seq = 0; clock0 = Unix.gettimeofday () }

let emit t ~ev fields =
  match t.sink with
  | None -> ()
  | Some sink ->
      let seq = t.seq in
      t.seq <- seq + 1;
      Obs.Sink.emit sink
        {
          Obs.Sink.ts = Unix.gettimeofday () -. t.clock0;
          name = "lint";
          fields =
            ("schema", Dsm.Json.String schema)
            :: ("seq", Dsm.Json.Int seq)
            :: ("ev", Dsm.Json.String ev)
            :: fields;
        }

let emit_start t ~protocol ~max_depth ~max_transitions =
  emit t ~ev:"run_start"
    [
      ("protocol", Dsm.Json.String protocol);
      ( "max_depth",
        match max_depth with Some d -> Dsm.Json.Int d | None -> Dsm.Json.Null
      );
      ("max_transitions", Dsm.Json.Int max_transitions);
    ]

let emit_finding t (f : finding) =
  emit t ~ev:"finding"
    [
      ("kind", Dsm.Json.String (kind_to_string f.kind));
      ("protocol", Dsm.Json.String f.protocol);
      ("subject", Dsm.Json.String f.subject);
      ("detail", Dsm.Json.String f.detail);
    ]

let emit_end t ~protocol ~findings ~transitions ~states ~elapsed_s =
  emit t ~ev:"run_end"
    [
      ("protocol", Dsm.Json.String protocol);
      ("findings", Dsm.Json.Int findings);
      ("transitions", Dsm.Json.Int transitions);
      ("states", Dsm.Json.Int states);
      ("elapsed_s", Dsm.Json.Float elapsed_s);
    ]

(* ----- allowlist ----- *)

type allow_entry = { a_protocol : string; a_kind : kind; a_subject : string }

let parse_entry line =
  match Dsm.Json.of_string line with
  | Error e -> Error e
  | Ok (Dsm.Json.Obj fields) -> (
      let str name =
        match List.assoc_opt name fields with
        | Some (Dsm.Json.String s) -> Ok s
        | Some _ -> Error (Printf.sprintf "field %S: expected string" name)
        | None -> Error (Printf.sprintf "missing field %S" name)
      in
      match (str "protocol", str "kind", str "subject") with
      | Ok p, Ok k, Ok s ->
          Result.map
            (fun a_kind -> { a_protocol = p; a_kind; a_subject = s })
            (kind_of_string k)
      | (Error e, _, _ | _, Error e, _ | _, _, Error e) -> Error e)
  | Ok _ -> Error "expected a JSON object"

let load_allowlist path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let entries = ref [] and err = ref None and lineno = ref 0 in
          (try
             while !err = None do
               let line = input_line ic in
               incr lineno;
               let line = String.trim line in
               if line <> "" && line.[0] <> '#' then
                 match parse_entry line with
                 | Ok e -> entries := e :: !entries
                 | Error e ->
                     err := Some (Printf.sprintf "line %d: %s" !lineno e)
             done
           with End_of_file -> ());
          match !err with
          | Some e -> Error e
          | None -> Ok (List.rev !entries))

type reconciliation = {
  unexpected : finding list;
  stale : allow_entry list;
}

let reconcile ~allow ~linted findings =
  let covers e (f : finding) =
    String.equal e.a_protocol f.protocol
    && e.a_kind = f.kind
    && String.equal e.a_subject f.subject
  in
  let unexpected =
    List.filter (fun f -> not (List.exists (fun e -> covers e f) allow))
      findings
  in
  let stale =
    List.filter
      (fun e ->
        List.exists (String.equal e.a_protocol) linted
        && not (List.exists (fun f -> covers e f) findings))
      allow
  in
  { unexpected; stale }
