(* Tests for the observability subsystem (lib/obs): histogram
   bucketing, sinks, the JSON parser, domain-safety of the registry,
   and the contract that the checker's [result] counters and the
   metrics registry tell the same story. *)

let check = Alcotest.check

(* ---------- histogram bucketing ---------- *)

let test_bucket_index () =
  let idx = Obs.Metrics.bucket_index in
  check Alcotest.int "0 -> bucket 0" 0 (idx 0);
  check Alcotest.int "negative -> bucket 0" 0 (idx (-5));
  check Alcotest.int "min_int -> bucket 0" 0 (idx min_int);
  check Alcotest.int "1 -> bucket 1" 1 (idx 1);
  check Alcotest.int "2 -> bucket 2" 2 (idx 2);
  check Alcotest.int "3 -> bucket 2" 2 (idx 3);
  check Alcotest.int "4 -> bucket 3" 3 (idx 4);
  check Alcotest.int "7 -> bucket 3" 3 (idx 7);
  check Alcotest.int "8 -> bucket 4" 4 (idx 8);
  (* the top bucket absorbs everything, including max_int *)
  check Alcotest.int "max_int -> last bucket" (Obs.Metrics.num_buckets - 1)
    (idx max_int);
  (* bounds are inclusive and consistent with the index *)
  check Alcotest.(pair int int) "bounds of bucket 1" (1, 1)
    (Obs.Metrics.bucket_bounds 1);
  check Alcotest.(pair int int) "bounds of bucket 3" (4, 7)
    (Obs.Metrics.bucket_bounds 3);
  for i = 1 to Obs.Metrics.num_buckets - 2 do
    let lo, hi = Obs.Metrics.bucket_bounds i in
    check Alcotest.int (Printf.sprintf "lo of bucket %d self-indexes" i) i
      (idx lo);
    check Alcotest.int (Printf.sprintf "hi of bucket %d self-indexes" i) i
      (idx hi)
  done

let test_histogram_snapshot () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "h" in
  List.iter (Obs.Metrics.observe h) [ 0; 1; 3; 8; -2; 100 ];
  let s = Obs.Metrics.histogram_snapshot h in
  check Alcotest.int "count" 6 s.Obs.Metrics.count;
  (* negative observations contribute 0 to the sum *)
  check Alcotest.int "sum" 112 s.Obs.Metrics.sum;
  check Alcotest.int "max" 100 s.Obs.Metrics.max;
  check
    Alcotest.(list (triple int int int))
    "non-empty buckets, ascending"
    [ (0, 0, 2); (1, 1, 1); (2, 3, 1); (8, 15, 1); (64, 127, 1) ]
    s.Obs.Metrics.buckets

let test_name_type_clash () =
  let m = Obs.Metrics.create () in
  ignore (Obs.Metrics.counter m "x");
  (* same name, same type: the same cell *)
  let c1 = Obs.Metrics.counter m "x" in
  Obs.Metrics.incr c1;
  check Alcotest.int "get-or-create" 1
    (Obs.Metrics.value (Obs.Metrics.counter m "x"));
  match Obs.Metrics.histogram m "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "registering x as a histogram should fail"

(* ---------- the JSON parser (Dsm.Json.of_string) ---------- *)

let test_json_parse_values () =
  let parse s =
    match Dsm.Json.of_string s with
    | Ok v -> v
    | Error e -> Alcotest.fail (Printf.sprintf "%S: %s" s e)
  in
  check Alcotest.bool "null" true (parse "null" = Dsm.Json.Null);
  check Alcotest.bool "int" true (parse "-42" = Dsm.Json.Int (-42));
  check Alcotest.bool "float" true (parse "2.5" = Dsm.Json.Float 2.5);
  check Alcotest.bool "exponent" true (parse "1e3" = Dsm.Json.Float 1000.);
  check Alcotest.bool "escapes" true
    (parse {|"a\"b\\c\n"|} = Dsm.Json.String "a\"b\\c\n");
  check Alcotest.bool "unicode escape" true
    (parse {|"café"|} = Dsm.Json.String "caf\xc3\xa9");
  check Alcotest.bool "nested" true
    (parse {|{"a":[1,true,null],"b":{"c":"d"}}|}
    = Dsm.Json.Obj
        [
          ("a", Dsm.Json.List [ Dsm.Json.Int 1; Dsm.Json.Bool true; Dsm.Json.Null ]);
          ("b", Dsm.Json.Obj [ ("c", Dsm.Json.String "d") ]);
        ]);
  let rejected s =
    match Dsm.Json.of_string s with Ok _ -> false | Error _ -> true
  in
  check Alcotest.bool "trailing garbage rejected" true (rejected "1 2");
  check Alcotest.bool "unterminated object rejected" true (rejected "{\"a\":");
  check Alcotest.bool "bare word rejected" true (rejected "nul")

let test_json_roundtrip () =
  let values =
    [
      Dsm.Json.Null;
      Dsm.Json.Bool false;
      Dsm.Json.Int max_int;
      Dsm.Json.Int min_int;
      Dsm.Json.Float 1.5e-9;
      Dsm.Json.String "line\nbreak \t \"quoted\" caf\xc3\xa9";
      Dsm.Json.List [ Dsm.Json.Int 1; Dsm.Json.List []; Dsm.Json.Obj [] ];
      Dsm.Json.Obj
        [
          ("empty", Dsm.Json.String "");
          ("nested", Dsm.Json.Obj [ ("k", Dsm.Json.List [ Dsm.Json.Null ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Dsm.Json.to_string v in
      match Dsm.Json.of_string s with
      | Ok v' -> check Alcotest.bool s true (v = v')
      | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" s e))
    values

(* ---------- sinks ---------- *)

let test_jsonl_sink_roundtrip () =
  let path = Filename.temp_file "test_obs" ".jsonl" in
  let sink = Obs.Sink.jsonl_file path in
  let emit name fields =
    Obs.Sink.emit sink { Obs.Sink.ts = 0.5; name; fields }
  in
  emit "first" [ ("n", Dsm.Json.Int 7) ];
  emit "second" [ ("s", Dsm.Json.String "with \"quotes\" and \n newline") ];
  Obs.Sink.close sink;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines = List.rev !lines in
  check Alcotest.int "two lines" 2 (List.length lines);
  let parsed =
    List.map
      (fun line ->
        match Dsm.Json.of_string line with
        | Ok (Dsm.Json.Obj fields) -> fields
        | Ok _ -> Alcotest.fail "event line is not an object"
        | Error e -> Alcotest.fail e)
      lines
  in
  let field name fields =
    match List.assoc_opt name fields with
    | Some v -> v
    | None -> Alcotest.fail ("missing field " ^ name)
  in
  (match parsed with
  | [ e1; e2 ] ->
      check Alcotest.bool "event name" true
        (field "event" e1 = Dsm.Json.String "first");
      check Alcotest.bool "int field" true (field "n" e1 = Dsm.Json.Int 7);
      check Alcotest.bool "string field round-trips" true
        (field "s" e2 = Dsm.Json.String "with \"quotes\" and \n newline");
      (match field "ts" e1 with
      | Dsm.Json.Float ts -> check Alcotest.bool "ts >= 0" true (ts >= 0.)
      | _ -> Alcotest.fail "ts is not a float")
  | _ -> assert false)

let test_memory_sink_two_domains () =
  let sink, events = Obs.Sink.memory () in
  let n = 500 in
  let emitter tag () =
    for i = 0 to n - 1 do
      Obs.Sink.emit sink
        { Obs.Sink.ts = 0.; name = tag; fields = [ ("i", Dsm.Json.Int i) ] }
    done
  in
  let d = Domain.spawn (emitter "d1") in
  emitter "d0" ();
  Domain.join d;
  let all = events () in
  check Alcotest.int "nothing lost" (2 * n) (List.length all);
  let seq tag =
    List.filter_map
      (fun e ->
        if e.Obs.Sink.name = tag then
          match e.Obs.Sink.fields with
          | [ ("i", Dsm.Json.Int i) ] -> Some i
          | _ -> None
        else None)
      all
  in
  let expect = List.init n (fun i -> i) in
  check Alcotest.(list int) "domain 0 in order" expect (seq "d0");
  check Alcotest.(list int) "domain 1 in order" expect (seq "d1")

(* ---------- scopes ---------- *)

let test_null_scope () =
  check Alcotest.bool "null is null" true (Obs.is_null Obs.null);
  check Alcotest.bool "created scope is not" false (Obs.is_null (Obs.create ()));
  check Alcotest.bool "null has no recorder" false
    (Obs.Trace.enabled (Obs.recorder Obs.null));
  (* heartbeats and frames on the disabled scope are no-ops *)
  Obs.heartbeat Obs.null (fun () -> Alcotest.fail "fields forced");
  check Alcotest.int "frame passes the value through" 41
    (Obs.frame Obs.null "f" (fun () -> 41))

(* Progress is time-gated, so it goes to stderr and never into the
   deterministic record stream. *)
let test_heartbeat () =
  let sink, events = Obs.Sink.memory () in
  let scope =
    Obs.create ~recorder:(Obs.Trace.of_sink sink) ~progress:0.0 ()
  in
  let beats = ref 0 in
  for i = 1 to 1024 do
    Obs.heartbeat scope (fun () ->
        incr beats;
        [ ("i", Dsm.Json.Int i) ])
  done;
  Obs.close scope;
  (* the clock is consulted every 256th call; with a zero interval each
     consultation reports *)
  check Alcotest.int "4 beats in 1024 calls" 4 !beats;
  check Alcotest.int "no progress records" 0 (List.length (events ()))

let test_metrics_jsonl_dump () =
  let scope = Obs.create () in
  Obs.Metrics.add (Obs.counter scope "a.count") 5;
  Obs.Metrics.observe (Obs.histogram scope "b.hist") 3;
  let path = Filename.temp_file "test_obs_metrics" ".jsonl" in
  Obs.write_metrics_jsonl scope path;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let parsed =
    List.map
      (fun l ->
        match Dsm.Json.of_string l with
        | Ok (Dsm.Json.Obj f) -> f
        | _ -> Alcotest.fail "metric line is not an object")
      (List.rev !lines)
  in
  check Alcotest.int "two metrics" 2 (List.length parsed);
  (* sorted by name: a.count first *)
  match parsed with
  | [ a; b ] ->
      check Alcotest.bool "counter name" true
        (List.assoc "metric" a = Dsm.Json.String "a.count");
      check Alcotest.bool "counter value" true
        (List.assoc "value" a = Dsm.Json.Int 5);
      check Alcotest.bool "histogram name" true
        (List.assoc "metric" b = Dsm.Json.String "b.hist")
  | _ -> assert false

(* ---------- lookup miss paths and quantile estimates ---------- *)

let test_find_miss_paths () =
  let m = Obs.Metrics.create () in
  ignore (Obs.Metrics.counter m "c");
  ignore (Obs.Metrics.gauge m "g");
  ignore (Obs.Metrics.histogram m "h");
  check Alcotest.bool "find_gauge: absent name" true
    (Obs.Metrics.find_gauge m "nope" = None);
  check Alcotest.bool "find_histogram: absent name" true
    (Obs.Metrics.find_histogram m "nope" = None);
  (* a name registered as a different type is a miss, not a crash *)
  check Alcotest.bool "find_gauge: counter name" true
    (Obs.Metrics.find_gauge m "c" = None);
  check Alcotest.bool "find_histogram: gauge name" true
    (Obs.Metrics.find_histogram m "g" = None);
  check Alcotest.bool "find_counter: histogram name" true
    (Obs.Metrics.find_counter m "h" = None);
  check Alcotest.bool "find_gauge: hit" true
    (Obs.Metrics.find_gauge m "g" <> None)

let test_quantile () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "h" in
  let q v = Obs.Metrics.quantile (Obs.Metrics.histogram_snapshot h) v in
  check Alcotest.bool "empty histogram" true (q 0.5 = None);
  Obs.Metrics.observe h 0;
  (* the zero bucket: every quantile collapses to 0 *)
  check Alcotest.(option int) "all-zero q=0" (Some 0) (q 0.);
  check Alcotest.(option int) "all-zero q=1" (Some 0) (q 1.);
  List.iter (Obs.Metrics.observe h) [ 1; 3; 100 ];
  (* 4 observations: 0 | 1 | 3 (bucket [2,3]) | 100 (bucket [64,127]) *)
  check Alcotest.(option int) "q=0 clamps to first" (Some 0) (q 0.);
  check Alcotest.(option int) "q<=0.25 -> first bucket" (Some 0) (q 0.25);
  check Alcotest.(option int) "median -> bucket hi" (Some 1) (q 0.5);
  check Alcotest.(option int) "q=0.75 -> [2,3]" (Some 3) (q 0.75);
  (* the top bucket's upper bound is capped by the observed max *)
  check Alcotest.(option int) "q=1 capped by max" (Some 100) (q 1.);
  check Alcotest.(option int) "q>1 clamps" (Some 100) (q 2.);
  check Alcotest.(option int) "q<0 clamps" (Some 0) (q (-1.))

(* ---------- the sampling profiler ---------- *)

let test_prof () =
  let p = Obs.Prof.create ~sample_every:1 () in
  Obs.Prof.enter p "outer";
  Obs.Prof.push p "inner";
  for _ = 1 to 100 do
    Obs.Prof.tick p
  done;
  Obs.Prof.pop p;
  Obs.Prof.leave p;
  let entries = Obs.Prof.snapshot p in
  check Alcotest.bool "some stacks" true (entries <> []);
  check Alcotest.bool "outer;inner sampled" true
    (List.exists
       (fun e -> e.Obs.Prof.stack = [ "outer"; "inner" ])
       entries);
  check Alcotest.bool "total covers the run" true (Obs.Prof.total_us p >= 0);
  let rec ordered = function
    | a :: (b :: _ as rest) ->
        a.Obs.Prof.total_us >= b.Obs.Prof.total_us && ordered rest
    | _ -> true
  in
  check Alcotest.bool "snapshot hottest first" true (ordered entries);
  (* the JSONL export is schema-tagged with its own seq space *)
  let records = Obs.Prof.jsonl_records p in
  (match records with
  | Dsm.Json.Obj header :: rest ->
      check Alcotest.bool "prof_run header" true
        (List.assoc_opt "ev" header = Some (Dsm.Json.String "prof_run"));
      check Alcotest.bool "header counts the stack records" true
        (List.assoc_opt "stacks" header
        = Some (Dsm.Json.Int (List.length rest)));
      List.iteri
        (fun i r ->
          match r with
          | Dsm.Json.Obj f ->
              check Alcotest.bool "schema tag" true
                (List.assoc_opt "schema" f
                = Some (Dsm.Json.String Obs.Prof.schema));
              check Alcotest.bool "seq increases" true
                (List.assoc_opt "seq" f = Some (Dsm.Json.Int (i + 1)))
          | _ -> Alcotest.fail "stack record is not an object")
        rest
  | _ -> Alcotest.fail "missing prof_run header");
  (* collapsed text: "frame;frame us" per line *)
  let collapsed = Filename.temp_file "test_prof" ".txt" in
  Obs.Prof.write_collapsed p collapsed;
  let ic = open_in collapsed in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove collapsed;
  check Alcotest.int "one line per stack" (List.length (Obs.Prof.snapshot p))
    (List.length !lines);
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.fail ("no weight on line: " ^ line)
      | Some i ->
          let us =
            int_of_string_opt
              (String.sub line (i + 1) (String.length line - i - 1))
          in
          check Alcotest.bool "weight is an int" true (us <> None))
    !lines;
  (* speedscope export parses as JSON *)
  let ss = Filename.temp_file "test_prof" ".json" in
  Obs.Prof.write_speedscope p ~name:"t" ss;
  let ic = open_in ss in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove ss;
  match Dsm.Json.of_string (String.trim contents) with
  | Ok (Dsm.Json.Obj fields) ->
      check Alcotest.bool "has profiles" true
        (List.mem_assoc "profiles" fields)
  | Ok _ -> Alcotest.fail "speedscope export is not an object"
  | Error e -> Alcotest.fail e

(* unbalanced pops must not underflow past the root *)
let test_prof_pop_underflow () =
  let p = Obs.Prof.create ~sample_every:1 () in
  Obs.Prof.pop p;
  Obs.Prof.pop p;
  Obs.Prof.push p "a";
  Obs.Prof.tick p;
  Obs.Prof.pop p;
  let entries = Obs.Prof.snapshot p in
  check Alcotest.bool "survives underflow" true
    (List.for_all
       (fun e ->
         e.Obs.Prof.stack = [ "a" ] || e.Obs.Prof.stack = [ "(idle)" ])
       entries)

(* ---------- the HTTP exporter ---------- *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let b = Bytes.create 4096 in
      let rec loop () =
        let n = Unix.read fd b 0 4096 in
        if n > 0 then begin
          Buffer.add_subbytes buf b 0 n;
          loop ()
        end
      in
      (try loop () with Unix.Unix_error _ -> ());
      Buffer.contents buf)

let body_of response =
  let sep = "\r\n\r\n" in
  let rl = String.length response in
  let rec find i =
    if i + 4 > rl then None
    else if String.sub response i 4 = sep then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> response
  | Some i -> String.sub response (i + 4) (rl - i - 4)

let test_exporter () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "lmc.system_states_created" in
  Obs.Metrics.add c 42;
  Obs.Metrics.set (Obs.Metrics.gauge m "online.tier") 1.;
  Obs.Metrics.observe (Obs.Metrics.histogram m "lmc.depth") 5;
  let e = Obs.Exporter.start ~metrics:m ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Obs.Exporter.stop e)
    (fun () ->
      let port = Obs.Exporter.port e in
      check Alcotest.bool "bound a real port" true (port > 0);
      let metrics = http_get port "/metrics" in
      check Alcotest.bool "200" true
        (String.length metrics >= 12
        && String.sub metrics 0 12 = "HTTP/1.0 200");
      let mbody = body_of metrics in
      let has needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      check Alcotest.bool "counter exposed with _total" true
        (has "lmc_system_states_created_total 42" mbody);
      check Alcotest.bool "gauge exposed" true (has "online_tier 1" mbody);
      check Alcotest.bool "histogram buckets" true
        (has "lmc_depth_bucket" mbody && has "le=\"+Inf\"" mbody);
      let health = http_get port "/healthz" in
      (match Dsm.Json.of_string (String.trim (body_of health)) with
      | Ok (Dsm.Json.Obj fields) ->
          check Alcotest.bool "status ok" true
            (List.assoc_opt "status" fields = Some (Dsm.Json.String "ok"));
          check Alcotest.bool "tier surfaced" true
            (List.assoc_opt "tier" fields = Some (Dsm.Json.Int 1));
          check Alcotest.bool "rss surfaced" true
            (List.mem_assoc "rss_mb" fields)
      | Ok _ -> Alcotest.fail "/healthz is not a JSON object"
      | Error err -> Alcotest.fail ("/healthz: " ^ err));
      let missing = http_get port "/nope" in
      check Alcotest.bool "404 elsewhere" true
        (String.length missing >= 12
        && String.sub missing 0 12 = "HTTP/1.0 404");
      check Alcotest.bool "requests counted" true (Obs.Exporter.requests e >= 3));
  (* stop is idempotent *)
  Obs.Exporter.stop e

(* ---------- the soak timeseries ring ---------- *)

let test_timeseries () =
  let path = Filename.temp_file "test_ts" ".jsonl" in
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "work.items" in
  let ts = Obs.Timeseries.create ~interval:0.0 ~capacity:2 ~metrics:m path in
  Obs.Metrics.add c 5;
  Obs.Timeseries.sample ts ~now:1.0;
  Obs.Metrics.add c 5;
  Obs.Timeseries.sample ts ~now:2.0;
  Obs.Timeseries.sample ts ~now:3.0;
  (* capacity 2 + the final sample taken by close: oldest dropped *)
  check Alcotest.bool "ring dropped" true (Obs.Timeseries.dropped ts > 0);
  Obs.Timeseries.close ts;
  Obs.Timeseries.close ts (* idempotent *);
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let records =
    List.rev_map
      (fun l ->
        match Dsm.Json.of_string l with
        | Ok (Dsm.Json.Obj f) -> f
        | _ -> Alcotest.fail ("bad line: " ^ l))
      !lines
  in
  let ev f =
    match List.assoc_opt "ev" f with
    | Some (Dsm.Json.String e) -> e
    | _ -> Alcotest.fail "record without ev"
  in
  (match records with
  | header :: _ -> check Alcotest.string "ts_run first" "ts_run" (ev header)
  | [] -> Alcotest.fail "empty timeseries file");
  let samples = List.filter (fun f -> ev f = "sample") records in
  check Alcotest.int "retention kept the ring bound" 2 (List.length samples);
  List.iter
    (fun f ->
      (match List.assoc_opt "counters" f with
      | Some (Dsm.Json.Obj counters) ->
          check Alcotest.bool "counter sampled" true
            (List.mem_assoc "work.items" counters)
      | _ -> Alcotest.fail "sample without counters object");
      match List.assoc_opt "gauges" f with
      | Some (Dsm.Json.Obj gauges) ->
          check Alcotest.bool "proc gauges sampled" true
            (List.mem_assoc "proc.rss_bytes" gauges)
      | _ -> Alcotest.fail "sample without gauges object")
    samples;
  (* every schema-tagged record numbers one strictly increasing seq *)
  let seqs =
    List.filter_map
      (fun f ->
        match List.assoc_opt "seq" f with
        | Some (Dsm.Json.Int s) -> Some s
        | _ -> None)
      records
  in
  check Alcotest.int "all records numbered" (List.length records)
    (List.length seqs);
  ignore
    (List.fold_left
       (fun last s ->
         check Alcotest.bool "seq strictly increasing" true (s > last);
         s)
       (-1) seqs);
  match List.rev records with
  | trailer :: _ ->
      check Alcotest.string "ts_meta last" "ts_meta" (ev trailer)
  | [] -> assert false

(* ---------- the checker's counters vs its result ---------- *)

module Buggy = Protocols.Paxos.Make (struct
  let num_nodes = 3
  let proposers = [ 0; 1; 2 ]
  let max_attempts = 2
  let max_index = 4
  let fresh_proposals = false
  let bug = Protocols.Paxos_core.Last_response_wins
end)

module L = Lmc.Checker.Make (Buggy)

let test_checker_counters_match_result () =
  let scope = Obs.create () in
  let snapshot = Protocols.Scenarios.wids_snapshot (module Buggy) in
  let cfg =
    {
      L.default_config with
      max_depth = Some 12;
      local_action_bound = Some 1;
      obs = scope;
    }
  in
  let r =
    L.run cfg
      ~strategy:
        (L.Invariant_specific
           { abstract = Buggy.abstraction; conflict = Buggy.conflicts })
      ~invariant:Buggy.safety snapshot
  in
  (* the run must exercise the interesting paths, or this test checks
     nothing *)
  check Alcotest.bool "some preliminary violations" true
    (r.preliminary_violations > 0);
  check Alcotest.bool "some soundness calls" true (r.soundness_calls > 0);
  let counter name =
    match Obs.Metrics.find_counter (Obs.metrics scope) name with
    | Some c -> Obs.Metrics.value c
    | None -> Alcotest.fail ("metric not registered: " ^ name)
  in
  check Alcotest.int "transitions" r.transitions (counter "lmc.transitions");
  check Alcotest.int "node states" r.total_node_states
    (counter "lmc.node_states");
  check Alcotest.int "net messages" r.net_messages
    (counter "lmc.net_messages");
  check Alcotest.int "system states" r.system_states_created
    (counter "lmc.system_states_created");
  check Alcotest.int "preliminary violations" r.preliminary_violations
    (counter "lmc.preliminary_violations");
  check Alcotest.int "soundness calls" r.soundness_calls
    (counter "lmc.soundness_calls");
  check Alcotest.int "soundness rejections" r.soundness_rejections
    (counter "lmc.soundness_rejections");
  check Alcotest.int "budget exhausted" r.soundness_budget_exhausted
    (counter "lmc.soundness_budget_exhausted");
  check Alcotest.int "local assert drops" r.local_assert_drops
    (counter "lmc.local_assert_drops")

(* The deferred configuration judges every preliminary violation in the
   final pass; the totals must still match. *)
let test_checker_counters_match_result_deferred () =
  let scope = Obs.create () in
  let snapshot = Protocols.Scenarios.wids_snapshot (module Buggy) in
  let cfg =
    {
      L.default_config with
      max_depth = Some 12;
      local_action_bound = Some 1;
      defer_soundness = true;
      obs = scope;
    }
  in
  let r =
    L.run cfg
      ~strategy:
        (L.Invariant_specific
           { abstract = Buggy.abstraction; conflict = Buggy.conflicts })
      ~invariant:Buggy.safety snapshot
  in
  let counter name =
    match Obs.Metrics.find_counter (Obs.metrics scope) name with
    | Some c -> Obs.Metrics.value c
    | None -> Alcotest.fail ("metric not registered: " ^ name)
  in
  check Alcotest.bool "some soundness calls" true (r.soundness_calls > 0);
  check Alcotest.int "soundness calls" r.soundness_calls
    (counter "lmc.soundness_calls");
  check Alcotest.int "transitions" r.transitions (counter "lmc.transitions");
  check Alcotest.int "preliminary violations" r.preliminary_violations
    (counter "lmc.preliminary_violations");
  check Alcotest.int "soundness rejections" r.soundness_rejections
    (counter "lmc.soundness_rejections")

(* Telemetry is a pure observer: a run with the profiler, timeseries
   and a live exporter attached must produce bit-identical tallies and
   the same violation verdict as a bare run. *)
let test_telemetry_is_pure_observer () =
  let snapshot = Protocols.Scenarios.wids_snapshot (module Buggy) in
  let run scope =
    L.run
      {
        L.default_config with
        max_depth = Some 12;
        local_action_bound = Some 1;
        obs = scope;
      }
      ~strategy:
        (L.Invariant_specific
           { abstract = Buggy.abstraction; conflict = Buggy.conflicts })
      ~invariant:Buggy.safety snapshot
  in
  let bare = run Obs.null in
  let ts_path = Filename.temp_file "test_tel" ".jsonl" in
  let metrics = Obs.Metrics.create () in
  let profiler = Obs.Prof.create ~sample_every:1 () in
  let timeseries =
    Obs.Timeseries.create ~interval:0.0 ~metrics ts_path
  in
  let exporter = Obs.Exporter.start ~metrics ~port:0 () in
  let scope = Obs.create ~metrics ~profiler ~timeseries () in
  let telemetered = run scope in
  ignore (http_get (Obs.Exporter.port exporter) "/metrics");
  Obs.Exporter.stop exporter;
  Obs.close scope;
  Sys.remove ts_path;
  check Alcotest.int "transitions" bare.L.transitions
    telemetered.L.transitions;
  check Alcotest.int "node states" bare.L.total_node_states
    telemetered.L.total_node_states;
  check Alcotest.int "system states" bare.L.system_states_created
    telemetered.L.system_states_created;
  check Alcotest.int "preliminary violations" bare.L.preliminary_violations
    telemetered.L.preliminary_violations;
  check Alcotest.int "soundness rejections" bare.L.soundness_rejections
    telemetered.L.soundness_rejections;
  check Alcotest.bool "same verdict" true
    ((bare.L.sound_violation = None)
    = (telemetered.L.sound_violation = None));
  (* the profiler actually saw the run *)
  check Alcotest.bool "profiler sampled frames" true
    (List.exists
       (fun e -> List.mem "combination" e.Obs.Prof.stack)
       (Obs.Prof.snapshot profiler))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "bucket index edges" `Quick test_bucket_index;
          Alcotest.test_case "histogram snapshot" `Quick
            test_histogram_snapshot;
          Alcotest.test_case "name/type clash" `Quick test_name_type_clash;
          Alcotest.test_case "jsonl dump" `Quick test_metrics_jsonl_dump;
          Alcotest.test_case "find miss paths" `Quick test_find_miss_paths;
          Alcotest.test_case "quantile estimates" `Quick test_quantile;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "profiler" `Quick test_prof;
          Alcotest.test_case "profiler pop underflow" `Quick
            test_prof_pop_underflow;
          Alcotest.test_case "http exporter" `Quick test_exporter;
          Alcotest.test_case "timeseries ring" `Quick test_timeseries;
          Alcotest.test_case "pure observer" `Quick
            test_telemetry_is_pure_observer;
        ] );
      ( "json",
        [
          Alcotest.test_case "parse values" `Quick test_json_parse_values;
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "jsonl round-trip" `Quick
            test_jsonl_sink_roundtrip;
          Alcotest.test_case "memory sink, two domains" `Quick
            test_memory_sink_two_domains;
        ] );
      ( "scopes",
        [
          Alcotest.test_case "null scope" `Quick test_null_scope;
          Alcotest.test_case "heartbeat gating" `Quick test_heartbeat;
        ] );
      ( "checker",
        [
          Alcotest.test_case "counters match result" `Quick
            test_checker_counters_match_result;
          Alcotest.test_case "counters match result (deferred)" `Quick
            test_checker_counters_match_result_deferred;
        ] );
    ]
