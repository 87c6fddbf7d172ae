(* Tests for lib/store: the mmap'd fingerprint set, checkpoint
   directories, crash-safety under truncation, and incremental
   (resumable) checking through the LMC, B-DFS and online layers. *)

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                 *)
(* ------------------------------------------------------------------ *)

let tmpdir () =
  let path = Filename.temp_file "lmc-store-test" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> rm_rf (Filename.concat path e))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let with_dir f =
  let dir = tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let fp_of_int i = Dsm.Fingerprint.of_value (`Store_test, i)

(* ------------------------------------------------------------------ *)
(* Fp_set                                                              *)
(* ------------------------------------------------------------------ *)

let test_fp_set_basics () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "s.fps" in
  let s = Store.Fp_set.create path in
  check Alcotest.int "empty" 0 (Store.Fp_set.length s);
  check Alcotest.bool "absent" false (Store.Fp_set.mem s (fp_of_int 1));
  check Alcotest.bool "fresh add" true (Store.Fp_set.add s (fp_of_int 1));
  check Alcotest.bool "duplicate add" false (Store.Fp_set.add s (fp_of_int 1));
  check Alcotest.bool "present" true (Store.Fp_set.mem s (fp_of_int 1));
  check Alcotest.int "one entry" 1 (Store.Fp_set.length s);
  Store.Fp_set.close s

let test_fp_set_persists () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "s.fps" in
  let s = Store.Fp_set.create path in
  for i = 0 to 99 do
    ignore (Store.Fp_set.add s (fp_of_int i))
  done;
  Store.Fp_set.flush s;
  Store.Fp_set.close s;
  match Store.Fp_set.load path with
  | Error e -> fail (Format.asprintf "load: %a" Store.Fp_set.pp_error e)
  | Ok s ->
      check Alcotest.int "count recovered" 100 (Store.Fp_set.length s);
      for i = 0 to 99 do
        if not (Store.Fp_set.mem s (fp_of_int i)) then
          fail (Printf.sprintf "entry %d lost across close/load" i)
      done;
      check Alcotest.bool "still absent" false
        (Store.Fp_set.mem s (fp_of_int 100));
      Store.Fp_set.close s

let test_fp_set_growth () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "s.fps" in
  let s = Store.Fp_set.create ~capacity:1024 path in
  let grow_events = ref [] in
  Store.Fp_set.on_compact s (fun ~old_capacity ~new_capacity ->
      grow_events := (old_capacity, new_capacity) :: !grow_events);
  let n = 2_000 in
  for i = 0 to n - 1 do
    ignore (Store.Fp_set.add s (fp_of_int i))
  done;
  check Alcotest.int "all inserted" n (Store.Fp_set.length s);
  check Alcotest.bool "grew at least once" true
    (Store.Fp_set.compactions s >= 1);
  check Alcotest.int "compaction callback fired per growth"
    (Store.Fp_set.compactions s)
    (List.length !grow_events);
  List.iter
    (fun (o, nw) ->
      if nw <> 2 * o then
        fail (Printf.sprintf "growth %d -> %d is not a doubling" o nw))
    !grow_events;
  check Alcotest.bool "below the 7/8 load factor" true
    (Store.Fp_set.occupancy s < 0.875);
  for i = 0 to n - 1 do
    if not (Store.Fp_set.mem s (fp_of_int i)) then
      fail (Printf.sprintf "entry %d lost across growth" i)
  done;
  Store.Fp_set.close s;
  (* the renamed file reloads with everything intact *)
  match Store.Fp_set.load path with
  | Error e -> fail (Format.asprintf "load: %a" Store.Fp_set.pp_error e)
  | Ok s ->
      check Alcotest.int "count after reload" n (Store.Fp_set.length s);
      Store.Fp_set.close s

(* A fingerprint folds to its documented on-disk key, and the folding
   round-trips through add/probe bit-identically (the same audit the
   lint sanitizer runs). *)
let test_fp_set_key_round_trip () =
  with_dir @@ fun dir ->
  let s = Store.Fp_set.create (Filename.concat dir "s.fps") in
  for i = 0 to 63 do
    let fp = fp_of_int i in
    ignore (Store.Fp_set.add s fp);
    match Store.Fp_set.probe s fp with
    | Some k ->
        check Alcotest.int64 "slot holds the folding" (Store.Fp_set.key fp) k
    | None -> fail "inserted fingerprint probes to an empty slot"
  done;
  (* and a tampered insert is visible as drift *)
  let fp = fp_of_int 1_000 in
  ignore
    (Store.Fp_set.add_key s (Int64.lognot (Store.Fp_set.key fp)));
  check Alcotest.bool "tampered entry does not satisfy mem" false
    (Store.Fp_set.mem s fp);
  Store.Fp_set.close s

(* ------------------------------------------------------------------ *)
(* Crash safety: truncations and bit flips are typed errors            *)
(* ------------------------------------------------------------------ *)

let build_store_file dir =
  let path = Filename.concat dir "s.fps" in
  let s = Store.Fp_set.create ~capacity:1024 path in
  for i = 0 to 49 do
    ignore (Store.Fp_set.add s (fp_of_int i))
  done;
  Store.Fp_set.flush s;
  Store.Fp_set.close s;
  path

let truncate_rejected =
  QCheck.Test.make ~count:60
    ~name:"truncated store file is a typed load error"
    QCheck.(float_range 0. 1.)
    (fun frac ->
      with_dir @@ fun dir ->
      let path = build_store_file dir in
      let size = (Unix.stat path).Unix.st_size in
      (* any proper prefix, header included, must be rejected *)
      let cut = int_of_float (frac *. float_of_int (size - 1)) in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd cut;
      Unix.close fd;
      match Store.Fp_set.load path with
      | Error (Store.Fp_set.Corrupt_store _) -> true
      | Ok s ->
          Store.Fp_set.close s;
          false)

let header_flip_rejected =
  QCheck.Test.make ~count:60
    ~name:"bit flip in the checksummed header prefix is a load error"
    (* cells 0-2 (magic, capacity, salt) are covered by the digest *)
    QCheck.(int_range 0 23)
    (fun off ->
      with_dir @@ fun dir ->
      let path = build_store_file dir in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x10));
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1);
      Unix.close fd;
      match Store.Fp_set.load path with
      | Error (Store.Fp_set.Corrupt_store _) -> true
      | Ok s ->
          Store.Fp_set.close s;
          false)

(* ------------------------------------------------------------------ *)
(* Checkpoint directories                                              *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_round_trip () =
  with_dir @@ fun dir ->
  let c =
    Store.Checkpoint.create ~dir ~protocol:"p" ~num_nodes:2 ~seed:42 ()
  in
  ignore (Store.Fp_set.add (Store.Checkpoint.combos c) (fp_of_int 0));
  ignore (Store.Fp_set.add (Store.Checkpoint.node_states c).(1) (fp_of_int 1));
  ignore (Store.Fp_set.add (Store.Checkpoint.iplus c) (fp_of_int 2));
  Store.Checkpoint.save c ~live_time:120. ~checks:3 ~states:17 ~hits:5
    ~found:false;
  Store.Checkpoint.close c;
  match Store.Checkpoint.load ~dir ~protocol:"p" ~num_nodes:2 ~seed:42 () with
  | Error e -> fail (Format.asprintf "load: %a" Store.Checkpoint.pp_error e)
  | Ok c ->
      let m = Store.Checkpoint.meta c in
      check (Alcotest.float 0.0) "live_time" 120. m.Store.Checkpoint.m_live_time;
      check Alcotest.int "checks" 3 m.Store.Checkpoint.m_checks;
      check Alcotest.int "states" 17 m.Store.Checkpoint.m_states;
      check Alcotest.int "hits" 5 m.Store.Checkpoint.m_hits;
      check Alcotest.bool "found" false m.Store.Checkpoint.m_found;
      check Alcotest.bool "combos survive" true
        (Store.Fp_set.mem (Store.Checkpoint.combos c) (fp_of_int 0));
      check Alcotest.bool "node stores survive" true
        (Store.Fp_set.mem (Store.Checkpoint.node_states c).(1) (fp_of_int 1));
      check Alcotest.bool "iplus survives" true
        (Store.Fp_set.mem (Store.Checkpoint.iplus c) (fp_of_int 2));
      Store.Checkpoint.close c

let expect_corrupt what = function
  | Error (Store.Checkpoint.Corrupt_checkpoint _) -> ()
  | Ok c ->
      Store.Checkpoint.close c;
      fail (what ^ ": corrupt checkpoint load unexpectedly succeeded")

let test_checkpoint_rejects_mismatch () =
  with_dir @@ fun dir ->
  let c =
    Store.Checkpoint.create ~dir ~protocol:"p" ~num_nodes:2 ~seed:42 ()
  in
  Store.Checkpoint.save c ~live_time:1. ~checks:1 ~states:1 ~hits:0
    ~found:false;
  Store.Checkpoint.close c;
  (* resuming a deterministic simulation under another identity would
     silently check the wrong system *)
  expect_corrupt "wrong seed"
    (Store.Checkpoint.load ~dir ~protocol:"p" ~num_nodes:2 ~seed:43 ());
  expect_corrupt "wrong protocol"
    (Store.Checkpoint.load ~dir ~protocol:"q" ~num_nodes:2 ~seed:42 ());
  (* a torn meta write must not be trusted *)
  let meta = Filename.concat dir "meta.bin" in
  let fd = Unix.openfile meta [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd 5;
  Unix.close fd;
  expect_corrupt "truncated meta"
    (Store.Checkpoint.load ~dir ~protocol:"p" ~num_nodes:2 ~seed:42 ())

let meta_truncate_rejected =
  QCheck.Test.make ~count:40
    ~name:"checkpoint truncated at any offset is rejected, typed"
    QCheck.(float_range 0. 1.)
    (fun frac ->
      with_dir @@ fun dir ->
      let c =
        Store.Checkpoint.create ~dir ~protocol:"p" ~num_nodes:1 ~seed:7 ()
      in
      ignore (Store.Fp_set.add (Store.Checkpoint.combos c) (fp_of_int 9));
      Store.Checkpoint.save c ~live_time:30. ~checks:1 ~states:4 ~hits:0
        ~found:false;
      Store.Checkpoint.close c;
      let meta = Filename.concat dir "meta.bin" in
      let size = (Unix.stat meta).Unix.st_size in
      let cut = int_of_float (frac *. float_of_int (size - 1)) in
      let fd = Unix.openfile meta [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd cut;
      Unix.close fd;
      match Store.Checkpoint.load ~dir ~protocol:"p" ~num_nodes:1 ~seed:7 () with
      | Error (Store.Checkpoint.Corrupt_checkpoint _) -> true
      | Ok c ->
          Store.Checkpoint.close c;
          false)

(* ------------------------------------------------------------------ *)
(* Incremental LMC: warm restarts skip proven-clean combinations       *)
(* ------------------------------------------------------------------ *)

module Tree = Protocols.Tree.Make (Protocols.Tree.Paper_config)
module L_tree = Lmc.Checker.Make (Tree)

module Ping2 = Protocols.Ping.Make (struct
  let num_servers = 2
end)

module L_ping = Lmc.Checker.Make (Ping2)

let persist_in dir num_nodes =
  {
    Lmc.Checker.p_combos =
      Store.Fp_set.create (Filename.concat dir "combos.fps");
    p_nodes =
      Array.init num_nodes (fun i ->
          Store.Fp_set.create
            (Filename.concat dir (Printf.sprintf "node%d.fps" i)));
    p_iplus = Store.Fp_set.create (Filename.concat dir "iplus.fps");
  }

let close_persist (p : Lmc.Checker.persist) =
  Store.Fp_set.close p.Lmc.Checker.p_combos;
  Array.iter Store.Fp_set.close p.Lmc.Checker.p_nodes;
  Store.Fp_set.close p.Lmc.Checker.p_iplus

let test_lmc_warm_skips () =
  with_dir @@ fun dir ->
  let p = persist_in dir Tree.num_nodes in
  Fun.protect ~finally:(fun () -> close_persist p) @@ fun () ->
  let cfg = { L_tree.default_config with persist = Some p } in
  let init = Dsm.Protocol.initial_system (module Tree) in
  let cold =
    L_tree.run cfg ~strategy:L_tree.General
      ~invariant:Tree.received_implies_sent init
  in
  check Alcotest.int "cold run sees the primer's system states" 4
    cold.system_states_created;
  check Alcotest.int "cold run has nothing to hit" 0 cold.store_hits;
  let warm =
    L_tree.run cfg ~strategy:L_tree.General
      ~invariant:Tree.received_implies_sent init
  in
  (* clean combinations are skipped; the preliminary violation is
     deliberately never stored, so it alone is re-created and
     re-judged (soundness depends on the snapshot) *)
  check Alcotest.bool "warm run creates strictly fewer states" true
    (warm.system_states_created < cold.system_states_created);
  check Alcotest.bool "warm run hits the store" true (warm.store_hits > 0);
  check Alcotest.int "every clean combination was skipped"
    cold.system_states_created
    (warm.system_states_created + warm.store_hits);
  check Alcotest.bool "verdict unchanged" true
    (warm.sound_violation = None && cold.sound_violation = None);
  check Alcotest.int "re-judged violations unchanged"
    cold.preliminary_violations warm.preliminary_violations

(* The store gate must not perturb determinism: from equal starting
   stores, two cold+warm sequences produce identical results. *)
let test_lmc_store_determinism () =
  let run_in dir =
    let p = persist_in dir Ping2.num_nodes in
    Fun.protect ~finally:(fun () -> close_persist p) @@ fun () ->
    let cfg = { L_ping.default_config with persist = Some p } in
    let init = Dsm.Protocol.initial_system (module Ping2) in
    let invariant = Ping2.no_excess_pongs in
    let cold = L_ping.run cfg ~strategy:L_ping.General ~invariant init in
    let warm = L_ping.run cfg ~strategy:L_ping.General ~invariant init in
    ( cold.system_states_created,
      cold.store_hits,
      warm.system_states_created,
      warm.store_hits,
      cold.transitions,
      warm.transitions )
  in
  let first = with_dir run_in in
  let second = with_dir run_in in
  if first <> second then fail "store-gated runs diverge from equal stores"

(* ------------------------------------------------------------------ *)
(* Incremental B-DFS: a disk-backed visited set                        *)
(* ------------------------------------------------------------------ *)

module G_ping = Mc_global.Bdfs.Make (Ping2)

(* The default DFS over the heap table and the layered frontier over
   the mmap'd set must reach the same states and the same verdict. *)
let test_bdfs_visited_store () =
  let init = Dsm.Protocol.initial_system (module Ping2) in
  let invariant = Ping2.no_excess_pongs in
  let ram = G_ping.run G_ping.default_config ~invariant init in
  with_dir @@ fun dir ->
  let set = Store.Fp_set.create (Filename.concat dir "visited.fps") in
  Fun.protect ~finally:(fun () -> Store.Fp_set.close set) @@ fun () ->
  let cfg = { G_ping.default_config with visited_store = Some set } in
  let cold = G_ping.run cfg ~invariant init in
  check Alcotest.int "mmap visited set explores the same space"
    ram.stats.global_states cold.stats.global_states;
  check Alcotest.bool "same verdict" (ram.violation = None)
    (cold.violation = None);
  check Alcotest.bool "both complete" true (ram.completed && cold.completed);
  check Alcotest.bool "visited set stays off the heap" true
    (cold.stats.retained_bytes < ram.stats.retained_bytes);
  (* a second run against the same completed store re-expands nothing *)
  let warm = G_ping.run cfg ~invariant init in
  check Alcotest.int "warm restart discovers no new states" 0
    warm.stats.global_states;
  check Alcotest.bool "warm restart hits the store" true
    (warm.stats.store_hits > 0);
  check Alcotest.bool "warm restart completes" true warm.completed

(* ------------------------------------------------------------------ *)
(* Online: kill-and-resume                                             *)
(* ------------------------------------------------------------------ *)

module Common = struct
  let num_nodes = 3
  let proposers = [ 0; 1; 2 ]
  let max_attempts = 2
  let max_index = 8
  let bug = Protocols.Paxos_core.Last_response_wins
end

module Live = Protocols.Paxos.Make (struct
  include Common

  let fresh_proposals = true
end)

module Check_p = Protocols.Paxos.Make (struct
  include Common

  let fresh_proposals = false
end)

module O = Online.Online_mc.Make (Live) (Check_p)
module Sim_p = Sim.Live_sim.Make (Live)

let lossy () =
  Net.Lossy_link.create ~drop_prob:0.3 ~latency_min:0.05 ~latency_max:0.3 ()

(* Seed 10 with a single widening bound: the first snapshot check
   (t = 30) explores a six-figure state count and finds nothing, the
   second (t = 60) reveals the injected bug — so a hunt killed after
   one check resumes into the revealing one. *)
let online_config ~max_live_time ~store =
  {
    O.sim =
      {
        Sim_p.seed = 10;
        link = lossy ();
        timer_min = 2.0;
        timer_max = 20.0;
        action_prob = None;
        faults = Fault.Plan.empty;
      };
    check_interval = 30.0;
    max_live_time;
    checker =
      {
        O.Checker.default_config with
        time_limit = Some 3.0;
        max_transitions = Some 30_000;
      };
    action_bounds = [ 1 ];
    steer = false;
    steer_scope = `Exact_action;
    supervisor = O.default_supervisor;
    store;
  }

let strategy = O.Checker.General

let test_online_resume () =
  with_dir @@ fun dir ->
  (* phase 1: a hunt killed after its first snapshot check *)
  let phase1 =
    O.run
      (online_config ~max_live_time:30.0
         ~store:(Some { O.dir; resume = false }))
      ~strategy ~invariant:Check_p.safety
  in
  check Alcotest.bool "phase 1 is cold" true (phase1.resumed_at = None);
  check Alcotest.bool "phase 1 checkpointed some exploration" true
    (phase1.states_explored > 0);
  check Alcotest.bool "phase 1 found nothing yet" true (phase1.report = None);
  (* phase 2: resume after the kill and finish the hunt *)
  let phase2 =
    O.run
      (online_config ~max_live_time:240.0
         ~store:(Some { O.dir; resume = true }))
      ~strategy ~invariant:Check_p.safety
  in
  (match phase2.resumed_at with
  | Some t ->
      check Alcotest.bool "fast-forwarded into phase 1's live time" true
        (t > 0. && t <= 30.0)
  | None -> fail "phase 2 did not resume from the checkpoint");
  check Alcotest.bool "no degradation on a clean resume" true
    (not (List.mem "corrupt_checkpoint" phase2.degradations));
  (match phase2.report with
  | None -> fail "resumed hunt missed the injected bug"
  | Some _ -> ());
  check Alcotest.bool "cumulative accounting inherited phase 1" true
    (phase2.states_explored > phase1.states_explored);
  (* the warm phase re-explores strictly less than a cold full hunt:
     its newly created states (cumulative minus inherited) stay below
     the cold run's total *)
  let cold =
    O.run
      (online_config ~max_live_time:240.0 ~store:None)
      ~strategy ~invariant:Check_p.safety
  in
  (match cold.report with
  | None -> fail "cold hunt missed the injected bug"
  | Some _ -> ());
  let phase2_new = phase2.states_explored - phase1.states_explored in
  check Alcotest.bool "warm phase re-explores strictly fewer states" true
    (phase2_new < cold.states_explored)

let test_online_corrupt_checkpoint_falls_back () =
  with_dir @@ fun dir ->
  let phase1 =
    O.run
      (online_config ~max_live_time:30.0
         ~store:(Some { O.dir; resume = false }))
      ~strategy ~invariant:Check_p.safety
  in
  check Alcotest.bool "phase 1 ran" true (phase1.total_checks > 0);
  (* tear the metadata mid-write *)
  let meta = Filename.concat dir "meta.bin" in
  let fd = Unix.openfile meta [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd 5;
  Unix.close fd;
  let phase2 =
    O.run
      (online_config ~max_live_time:30.0
         ~store:(Some { O.dir; resume = true }))
      ~strategy ~invariant:Check_p.safety
  in
  (* the supervisor records the corruption and cold-starts — no crash,
     no resume *)
  check Alcotest.bool "degradation recorded" true
    (List.mem "corrupt_checkpoint" phase2.degradations);
  check Alcotest.bool "fell back to a cold start" true
    (phase2.resumed_at = None);
  check Alcotest.bool "loop kept running" true (phase2.total_checks > 0)

(* A checkpoint directory written under the previous store version
   holds keys of another fingerprint kernel: each set file (magic
   [store.v1], header checksum intact) is a typed load error, and the
   resume degrades to a logged cold start instead of trusting stale
   keys. *)
let test_online_v1_store_falls_back () =
  with_dir @@ fun dir ->
  let phase1 =
    O.run
      (online_config ~max_live_time:30.0
         ~store:(Some { O.dir; resume = false }))
      ~strategy ~invariant:Check_p.safety
  in
  check Alcotest.bool "phase 1 ran" true (phase1.total_checks > 0);
  let v1_header path =
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
    let cells =
      Bigarray.array1_of_genarray
        (Unix.map_file fd Bigarray.int64 Bigarray.c_layout true [| 8 |])
    in
    let prefix = Bytes.create 24 in
    Bytes.blit_string "store.v1" 0 prefix 0 8;
    Bigarray.Array1.set cells 0 (Bytes.get_int64_ne prefix 0);
    Bytes.set_int64_ne prefix 8 (Bigarray.Array1.get cells 1);
    Bytes.set_int64_ne prefix 16 (Bigarray.Array1.get cells 2);
    let d = Bytes.of_string (Digest.bytes prefix) in
    Bigarray.Array1.set cells 4 (Bytes.get_int64_ne d 0);
    Bigarray.Array1.set cells 5 (Bytes.get_int64_ne d 8);
    Unix.close fd
  in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".fps" then begin
        let path = Filename.concat dir f in
        v1_header path;
        match Store.Fp_set.load path with
        | Error (Store.Fp_set.Corrupt_store _) -> ()
        | Ok _ -> fail (f ^ ": a store.v1 file loaded")
      end)
    (Sys.readdir dir);
  let phase2 =
    O.run
      (online_config ~max_live_time:30.0
         ~store:(Some { O.dir; resume = true }))
      ~strategy ~invariant:Check_p.safety
  in
  check Alcotest.bool "degradation recorded" true
    (List.mem "corrupt_checkpoint" phase2.degradations);
  check Alcotest.bool "fell back to a cold start" true
    (phase2.resumed_at = None)

(* A hunt killed between churn events must restore the checkpointed
   membership on resume — Store.Checkpoint carries the fleet map and
   Online_mc audits it against what Fault.Plan.membership_at says the
   resume instant should look like.  A bug-free protocol keeps both
   the resumed and the unkilled hunt running out the full plan, so
   their final fleets are comparable regardless of discovery timing. *)
module Live_ok = Protocols.Paxos.Make (struct
  include Common

  let bug = Protocols.Paxos_core.No_bug
  let fresh_proposals = true
end)

module Check_ok = Protocols.Paxos.Make (struct
  include Common

  let bug = Protocols.Paxos_core.No_bug
  let fresh_proposals = false
end)

module O_ok = Online.Online_mc.Make (Live_ok) (Check_ok)
module Sim_ok = Sim.Live_sim.Make (Live_ok)

let churn_plan = "leave:node=2,at=12;join:node=2,at=70;leave:node=1,at=100"

let churn_config ~max_live_time ~store ~plan =
  let faults =
    match Fault.Plan.of_string plan with
    | Ok p -> p
    | Error e -> failwith e
  in
  {
    O_ok.sim =
      {
        Sim_ok.seed = 10;
        link = lossy ();
        timer_min = 2.0;
        timer_max = 20.0;
        action_prob = None;
        faults;
      };
    check_interval = 30.0;
    max_live_time;
    checker =
      {
        O_ok.Checker.default_config with
        time_limit = Some 3.0;
        max_transitions = Some 30_000;
      };
    action_bounds = [ 1 ];
    steer = false;
    steer_scope = `Exact_action;
    supervisor = O_ok.default_supervisor;
    store;
  }

let test_online_churn_resume () =
  with_dir @@ fun dir ->
  (* phase 1: killed at t = 30, after the leave but before the rejoin *)
  let phase1 =
    O_ok.run
      (churn_config ~max_live_time:30.0
         ~store:(Some { O_ok.dir; resume = false })
         ~plan:churn_plan)
      ~strategy:O_ok.Checker.General ~invariant:Check_ok.safety
  in
  check Alcotest.bool "phase 1 stays clean" true (phase1.report = None);
  check
    Alcotest.(array bool)
    "phase 1 checkpointed mid-churn: node 2 departed"
    [| true; true; false |]
    phase1.membership;
  (* phase 2: resume inside the churn window and run out the plan *)
  let phase2 =
    O_ok.run
      (churn_config ~max_live_time:240.0
         ~store:(Some { O_ok.dir; resume = true })
         ~plan:churn_plan)
      ~strategy:O_ok.Checker.General ~invariant:Check_ok.safety
  in
  (match phase2.resumed_at with
  | Some t ->
      check Alcotest.bool "resumed inside the churn window" true
        (t > 12.0 && t <= 30.0)
  | None -> fail "phase 2 did not resume from the checkpoint");
  check Alcotest.bool "checkpointed membership passed the plan audit" true
    (not (List.mem "membership_mismatch" phase2.degradations));
  (* the restored fleet must end exactly where an unkilled hunt ends:
     node 2 rejoined at t = 70, node 1 left at t = 100 *)
  let unkilled =
    O_ok.run
      (churn_config ~max_live_time:240.0 ~store:None ~plan:churn_plan)
      ~strategy:O_ok.Checker.General ~invariant:Check_ok.safety
  in
  check
    Alcotest.(array bool)
    "unkilled run ends with the post-churn fleet"
    [| true; false; true |]
    unkilled.membership;
  check
    Alcotest.(array bool)
    "restored membership matches the unkilled run" unkilled.membership
    phase2.membership

let test_online_churn_plan_mismatch () =
  with_dir @@ fun dir ->
  let phase1 =
    O_ok.run
      (churn_config ~max_live_time:30.0
         ~store:(Some { O_ok.dir; resume = false })
         ~plan:churn_plan)
      ~strategy:O_ok.Checker.General ~invariant:Check_ok.safety
  in
  check Alcotest.bool "phase 1 ran" true (phase1.total_checks > 0);
  (* resuming under a different plan: the checkpoint's fleet map no
     longer matches what the new plan says t = 30 should look like,
     so the supervisor records the mismatch and cold-starts *)
  let phase2 =
    O_ok.run
      (churn_config ~max_live_time:30.0
         ~store:(Some { O_ok.dir; resume = true })
         ~plan:"")
      ~strategy:O_ok.Checker.General ~invariant:Check_ok.safety
  in
  check Alcotest.bool "membership mismatch degradation recorded" true
    (List.mem "membership_mismatch" phase2.degradations);
  check Alcotest.bool "fell back to a cold start" true
    (phase2.resumed_at = None)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "store"
    [
      ( "fp_set",
        [
          Alcotest.test_case "basics" `Quick test_fp_set_basics;
          Alcotest.test_case "persists across close/load" `Quick
            test_fp_set_persists;
          Alcotest.test_case "crash-safe growth" `Quick test_fp_set_growth;
          Alcotest.test_case "key folding round-trips" `Quick
            test_fp_set_key_round_trip;
        ] );
      ( "corruption",
        List.map QCheck_alcotest.to_alcotest
          [ truncate_rejected; header_flip_rejected; meta_truncate_rejected ]
      );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip" `Quick test_checkpoint_round_trip;
          Alcotest.test_case "rejects mismatch and torn meta" `Quick
            test_checkpoint_rejects_mismatch;
        ] );
      ( "incremental-lmc",
        [
          Alcotest.test_case "warm restart skips clean combinations" `Quick
            test_lmc_warm_skips;
          Alcotest.test_case "deterministic across runs" `Quick
            test_lmc_store_determinism;
        ] );
      ( "incremental-bdfs",
        [
          Alcotest.test_case "mmap visited set" `Quick
            test_bdfs_visited_store;
        ] );
      ( "online-resume",
        [
          Alcotest.test_case "kill and resume" `Quick test_online_resume;
          Alcotest.test_case "corrupt checkpoint falls back cold" `Quick
            test_online_corrupt_checkpoint_falls_back;
          Alcotest.test_case "store.v1 directory falls back cold" `Quick
            test_online_v1_store_falls_back;
          Alcotest.test_case "churn survives kill and resume" `Quick
            test_online_churn_resume;
          Alcotest.test_case "plan mismatch on resume cold-starts" `Quick
            test_online_churn_plan_mismatch;
        ] );
    ]
