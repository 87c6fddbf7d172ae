(* Tests for the a-posteriori soundness-verification engine. *)

let check = Alcotest.check
let fail = Alcotest.fail

let fp s = Dsm.Fingerprint.of_string s

(* Shorthand event builder. *)
let ev ?requires ?(produces = []) node label =
  {
    Lmc.Soundness.node;
    label = fp label;
    requires = Option.map fp requires;
    produces = List.map fp produces;
  }

let is_valid = function Lmc.Soundness.Valid _ -> true | _ -> false
let is_invalid = function Lmc.Soundness.Invalid -> true | _ -> false

(* ---------- sequence checker ---------- *)

let test_empty_sequences () =
  check Alcotest.bool "trivially valid" true
    (is_valid (Lmc.Soundness.check ~initial_net:[] [| []; []; [] |]))

let test_local_only () =
  let seqs = [| [ ev 0 "a"; ev 0 "b" ]; [ ev 1 "c" ] |] in
  check Alcotest.bool "local events always schedulable" true
    (is_valid (Lmc.Soundness.check ~initial_net:[] seqs))

let test_simple_send_receive () =
  let seqs =
    [| [ ev 0 "send" ~produces:[ "m" ] ]; [ ev 1 "recv" ~requires:"m" ] |]
  in
  check Alcotest.bool "producer before consumer" true
    (is_valid (Lmc.Soundness.check ~initial_net:[] seqs))

let test_missing_producer () =
  let seqs = [| []; [ ev 1 "recv" ~requires:"ghost" ] |] in
  check Alcotest.bool "unproduced message rejected" true
    (is_invalid (Lmc.Soundness.check ~initial_net:[] seqs))

let test_initial_net_supplies () =
  let seqs = [| []; [ ev 1 "recv" ~requires:"m" ] |] in
  check Alcotest.bool "initial net satisfies" true
    (is_valid (Lmc.Soundness.check ~initial_net:[ fp "m" ] seqs))

let test_multiplicity () =
  (* one production, two consumptions: invalid *)
  let seqs =
    [|
      [ ev 0 "send" ~produces:[ "m" ] ];
      [ ev 1 "r1" ~requires:"m" ];
      [ ev 2 "r2" ~requires:"m" ];
    |]
  in
  check Alcotest.bool "multiplicity respected" true
    (is_invalid (Lmc.Soundness.check ~initial_net:[] seqs));
  (* two productions satisfy both *)
  let seqs2 =
    [|
      [ ev 0 "send" ~produces:[ "m"; "m" ] ];
      [ ev 1 "r1" ~requires:"m" ];
      [ ev 2 "r2" ~requires:"m" ];
    |]
  in
  check Alcotest.bool "two copies two consumers" true
    (is_valid (Lmc.Soundness.check ~initial_net:[] seqs2))

let test_loopback () =
  (* a node consumes a message it produced itself earlier *)
  let seqs =
    [| [ ev 0 "send" ~produces:[ "self" ]; ev 0 "recv" ~requires:"self" ] |]
  in
  check Alcotest.bool "loopback valid" true
    (is_valid (Lmc.Soundness.check ~initial_net:[] seqs))

let test_ordering_constraint () =
  (* node 0's sequence consumes before it produces: only valid if some
     other node supplies the message — here nobody does. *)
  let seqs =
    [| [ ev 0 "recv" ~requires:"m"; ev 0 "send" ~produces:[ "m" ] ] |]
  in
  check Alcotest.bool "cannot consume before producing" true
    (is_invalid (Lmc.Soundness.check ~initial_net:[] seqs))

let test_cross_dependency () =
  (* classic handshake: 0 sends req, 1 replies, 0 consumes reply *)
  let seqs =
    [|
      [ ev 0 "send" ~produces:[ "req" ]; ev 0 "recv" ~requires:"resp" ];
      [ ev 1 "serve" ~requires:"req" ~produces:[ "resp" ] ];
    |]
  in
  match Lmc.Soundness.check ~initial_net:[] seqs with
  | Lmc.Soundness.Valid order ->
      check Alcotest.int "all events scheduled" 3 (List.length order);
      (* the witness must be causally ordered *)
      let labels = List.map (fun (e : Lmc.Soundness.event) -> e.label) order in
      let pos l =
        let rec go i = function
          | [] -> -1
          | x :: rest -> if Dsm.Fingerprint.equal x l then i else go (i + 1) rest
        in
        go 0 labels
      in
      check Alcotest.bool "send before serve" true
        (pos (fp "send") < pos (fp "serve"));
      check Alcotest.bool "serve before recv" true
        (pos (fp "serve") < pos (fp "recv"))
  | _ -> fail "handshake should be valid"

let test_deadlock_cycle () =
  (* 0 waits for 1's message and vice versa: deadlocked, invalid *)
  let seqs =
    [|
      [ ev 0 "r0" ~requires:"m1"; ev 0 "s0" ~produces:[ "m0" ] ];
      [ ev 1 "r1" ~requires:"m0"; ev 1 "s1" ~produces:[ "m1" ] ];
    |]
  in
  check Alcotest.bool "circular wait invalid" true
    (is_invalid (Lmc.Soundness.check ~initial_net:[] seqs))

let test_budget () =
  (* Many independent local events explode the interleaving count; with
     budget 1 the verdict must be Budget_exhausted, not a wrong answer.
     (Budget 1 cannot even finish scheduling one event chain.) *)
  let seqs =
    Array.init 4 (fun n -> List.init 5 (fun i -> ev n (Printf.sprintf "l%d_%d" n i)))
  in
  match Lmc.Soundness.check ~budget:1 ~initial_net:[] seqs with
  | Lmc.Soundness.Budget_exhausted -> ()
  | Lmc.Soundness.Valid _ -> fail "budget 1 cannot complete"
  | Lmc.Soundness.Invalid -> fail "must not prove invalidity under budget"

(* ---------- the primer example (§2) ---------- *)

let test_primer_invalid_state () =
  (* "----r": node 4 received the token, nobody sent anything. *)
  let seqs = [| []; []; []; []; [ ev 4 "recv" ~requires:"m14" ] |] in
  check Alcotest.bool "----r rejected" true
    (is_invalid (Lmc.Soundness.check ~initial_net:[] seqs))

let test_primer_valid_state () =
  (* "s---r" with the forwarding chain present in the sequences. *)
  let seqs =
    [|
      [ ev 0 "start" ~produces:[ "m01"; "m02" ] ];
      [ ev 1 "fwd" ~requires:"m01" ~produces:[ "m13"; "m14" ] ];
      [];
      [];
      [ ev 4 "recv" ~requires:"m14" ];
    |]
  in
  check Alcotest.bool "s---r valid" true
    (is_valid (Lmc.Soundness.check ~initial_net:[] seqs))

(* ---------- DAG checker ---------- *)

let graph ~root ~target edges = { Lmc.Soundness.root; target; edges }

let test_dag_trivial () =
  let graphs = [| graph ~root:0 ~target:0 [] |] in
  check Alcotest.bool "root=target valid" true
    (is_valid (Lmc.Soundness.check_dag ~initial_net:[] graphs))

let test_dag_linear () =
  let graphs =
    [|
      graph ~root:0 ~target:2
        [ (0, ev 0 "a" ~produces:[ "m" ], 1); (1, ev 0 "b", 2) ];
      graph ~root:0 ~target:1 [ (0, ev 1 "c" ~requires:"m", 1) ];
    |]
  in
  check Alcotest.bool "linear chain valid" true
    (is_valid (Lmc.Soundness.check_dag ~initial_net:[] graphs))

let test_dag_branch_selection () =
  (* Two paths to the target; only the one producing "m" lets node 1
     proceed.  The search must find the producing branch. *)
  let graphs =
    [|
      graph ~root:0 ~target:2
        [
          (0, ev 0 "silent", 1);
          (1, ev 0 "silent2", 2);
          (0, ev 0 "noisy" ~produces:[ "m" ], 3);
          (3, ev 0 "noisy2", 2);
        ];
      graph ~root:0 ~target:1 [ (0, ev 1 "recv" ~requires:"m", 1) ];
    |]
  in
  check Alcotest.bool "finds producing branch" true
    (is_valid (Lmc.Soundness.check_dag ~initial_net:[] graphs))

let test_dag_unreachable_target () =
  (* target 5 has no incoming path from root *)
  let graphs = [| graph ~root:0 ~target:5 [ (0, ev 0 "a", 1) ] |] in
  check Alcotest.bool "unreachable target invalid" true
    (is_invalid (Lmc.Soundness.check_dag ~initial_net:[] graphs))

let test_dag_must_consume_filter () =
  (* Every path to the target consumes "ghost"; nobody produces it.
     The feasibility filter must reject without search. *)
  let graphs =
    [|
      graph ~root:0 ~target:2
        [
          (0, ev 0 "a" ~requires:"ghost", 1);
          (1, ev 0 "b", 2);
          (0, ev 0 "c", 3);
          (3, ev 0 "d" ~requires:"ghost", 2);
        ];
    |]
  in
  check Alcotest.bool "must-consume filter rejects" true
    (is_invalid (Lmc.Soundness.check_dag ~initial_net:[] graphs))

let test_dag_optional_consume_not_filtered () =
  (* One path avoids "ghost": must stay valid. *)
  let graphs =
    [|
      graph ~root:0 ~target:2
        [
          (0, ev 0 "a" ~requires:"ghost", 1);
          (1, ev 0 "b", 2);
          (0, ev 0 "c", 3);
          (3, ev 0 "d", 2);
        ];
    |]
  in
  check Alcotest.bool "alternative path found" true
    (is_valid (Lmc.Soundness.check_dag ~initial_net:[] graphs))

let test_dag_cycle_tolerated () =
  (* A cycle 1 <-> 2 plus a proper path to the target. *)
  let graphs =
    [|
      graph ~root:0 ~target:3
        [
          (0, ev 0 "a", 1);
          (1, ev 0 "b", 2);
          (2, ev 0 "back", 1);
          (2, ev 0 "done", 3);
        ];
    |]
  in
  check Alcotest.bool "cycle does not loop forever" true
    (is_valid (Lmc.Soundness.check_dag ~initial_net:[] graphs))

let test_dag_initial_net () =
  let graphs =
    [| graph ~root:0 ~target:1 [ (0, ev 0 "r" ~requires:"m", 1) ] |]
  in
  check Alcotest.bool "without net invalid" true
    (is_invalid (Lmc.Soundness.check_dag ~initial_net:[] graphs));
  check Alcotest.bool "with net valid" true
    (is_valid (Lmc.Soundness.check_dag ~initial_net:[ fp "m" ] graphs))

(* A vertex first reached inside a cycle: b is entered from the root
   and from a, a only from b.  [0 -> b -> a -> t] is executable; only
   the other edge into t needs the unproducible "m".  A must-consume
   set memoised under an on-path cut saw a as unreachable (its only
   predecessor b was on the path) and rejected t. *)
let test_dag_cycle_first_reach () =
  let b = 1 and a = 2 and t = 3 in
  let edges =
    [
      (0, ev 0 "enter", b);
      (a, ev 0 "a-b", b);
      (b, ev 0 "b-a", a);
      (a, ev 0 "a-t", t);
      (b, ev 0 "b-t" ~requires:"m", t);
    ]
  in
  check Alcotest.bool "schedulable through the cycle" true
    (is_valid
       (Lmc.Soundness.check_dag ~initial_net:[]
          [| graph ~root:0 ~target:t edges |]));
  check Alcotest.bool "without the consuming edge" true
    (is_valid
       (Lmc.Soundness.check_dag ~initial_net:[]
          [| graph ~root:0 ~target:t (List.filteri (fun i _ -> i < 4) edges) |]))

let test_bits_words () =
  let open Lmc.Soundness.Bits in
  let ids = [ 0; 62; 63; 64; 130 ] in
  let s = of_list ids in
  check Alcotest.(list int) "elements across words" ids (elements s);
  check Alcotest.bool "subset" true (subset (of_list [ 63; 130 ]) s);
  check Alcotest.bool "not subset" false (subset (of_list [ 129 ]) s);
  check Alcotest.(list int) "inter" [ 63; 130 ]
    (elements (inter s (of_list [ 1; 63; 130; 200 ])));
  check Alcotest.(list int) "union" [ 0; 1; 62; 63; 64; 130; 200 ]
    (elements (union s (of_list [ 1; 200 ])));
  check Alcotest.bool "equal ignores trailing zero words" true
    (equal (inter s (of_list [ 0; 200 ])) (of_list [ 0 ]))

(* ---------- property: the feasibility filter ---------- *)

(* Random components: up to six vertices, root 0, edges with cycles and
   self-edges, each edge consuming at most one of three message kinds
   and producing up to two. *)
type rgraph = {
  nv : int;
  target : int;
  redges : (int * int option * int list * int) list;  (* u, req, made, v *)
}

let gen_rgraph =
  let open QCheck.Gen in
  let* nv = int_range 1 6 in
  let* target = int_range 0 (nv - 1) in
  let* ne = int_range 0 8 in
  let* redges =
    list_repeat ne
      (let* u = int_range 0 (nv - 1) in
       let* v = int_range 0 (nv - 1) in
       let* req = opt ~ratio:0.5 (int_range 0 2) in
       let* made = list_size (int_range 0 2) (int_range 0 2) in
       return (u, req, made, v))
  in
  return { nv; target; redges }

let gen_components =
  let open QCheck.Gen in
  let* n = int_range 1 3 in
  let* comps = list_repeat n gen_rgraph in
  let* initial = list_size (int_range 0 1) (int_range 0 2) in
  return (Array.of_list comps, initial)

let print_components (comps, initial) =
  let edge (u, req, made, v) =
    Printf.sprintf "%d-%s/%s->%d" u
      (match req with Some m -> string_of_int m | None -> "")
      (String.concat "," (List.map string_of_int made))
      v
  in
  Printf.sprintf "initial [%s]; %s"
    (String.concat "," (List.map string_of_int initial))
    (String.concat " | "
       (Array.to_list
          (Array.map
             (fun g ->
               Printf.sprintf "nv=%d target=%d: %s" g.nv g.target
                 (String.concat " " (List.map edge g.redges)))
             comps)))

let kind m = "m" ^ string_of_int m

let to_graph c g =
  {
    Lmc.Soundness.root = 0;
    target = g.target;
    edges =
      List.mapi
        (fun i (u, req, made, v) ->
          ( u,
            ev c (Printf.sprintf "c%de%d" c i) ?requires:(Option.map kind req)
              ~produces:(List.map kind made),
            v ))
        g.redges;
  }

(* Edge-simple root->target paths (as event lists), vertices never
   repeated; the empty path when the target is the root. *)
let simple_paths c g =
  let graph = to_graph c g in
  let rec walk v visited acc =
    if v = g.target then [ List.rev acc ]
    else
      List.concat_map
        (fun (u, e, w) ->
          if u = v && not (List.mem w visited) then
            walk w (w :: visited) (e :: acc)
          else [])
        graph.Lmc.Soundness.edges
  in
  walk 0 [ 0 ] []

let prop_feasible_rejections_unschedulable =
  QCheck.Test.make ~count:500
    ~name:"feasible rejects only tuples no simple-path combination schedules"
    (QCheck.make ~print:print_components gen_components)
    (fun (comps, initial) ->
      let graphs = Array.mapi to_graph comps in
      let initial_net = List.map (fun m -> fp (kind m)) initial in
      Lmc.Soundness.feasible ~initial_net graphs
      ||
      let paths =
        Array.mapi (fun c g -> Array.of_list (simple_paths c g)) comps
      in
      Lmc.Combination.iter paths (fun seqs ->
          match Lmc.Soundness.check ~initial_net seqs with
          | Lmc.Soundness.Invalid -> `Continue
          | Lmc.Soundness.Valid _ | Lmc.Soundness.Budget_exhausted -> `Stop)
      = `Done)

(* Brute force over simple paths: the messages every root->v path
   consumes ([None] without a path), and the productions of every edge
   whose head reaches v. *)
let brute_must g v =
  let rec walk u visited req =
    if u = v then [ req ]
    else
      List.concat_map
        (fun (a, r, _, b) ->
          if a = u && not (List.mem b visited) then
            walk b (b :: visited)
              (match r with
              | Some m -> List.sort_uniq compare (m :: req)
              | None -> req)
          else [])
        g.redges
  in
  match walk 0 [ 0 ] [] with
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun acc s -> List.filter (fun m -> List.mem m s) acc)
           first rest)

let brute_prod g v =
  let rec reaches seen = function
    | [] -> seen
    | w :: rest ->
        let preds =
          List.filter_map
            (fun (a, _, _, b) ->
              if b = w && not (List.mem a seen) then Some a else None)
            g.redges
        in
        let preds = List.sort_uniq compare preds in
        reaches (seen @ preds) (rest @ preds)
  in
  let closure = reaches [ v ] [ v ] in
  List.sort_uniq compare
    (List.concat_map
       (fun (_, _, made, b) -> if List.mem b closure then made else [])
       g.redges)

(* Message kinds spread across words, so multi-word sets are exercised. *)
let msg_id m = m * 70

let prop_summaries_match_brute_force =
  QCheck.Test.make ~count:500
    ~name:"bitset summaries = brute-force must/prod, pinned or not"
    (QCheck.make ~print:(fun g -> print_components ([| g |], [])) gen_rgraph)
    (fun g ->
      let module S = Lmc.Soundness in
      let incoming = Array.make g.nv [] in
      List.iter
        (fun (u, req, made, v) ->
          incoming.(v) <-
            {
              S.src = u;
              req = (match req with Some m -> msg_id m | None -> -1);
              made = S.Bits.of_list (List.map msg_id made);
            }
            :: incoming.(v))
        g.redges;
      let solve pinned = S.summarise ~root:0 ~pinned incoming in
      let full = solve (Array.make g.nv None) in
      (* re-solving with some vertices pinned to their exact summaries,
         as the checker does with entries still fresh, agrees too *)
      let partial =
        solve
          (Array.init g.nv (fun v ->
               if v mod 2 = 1 then Some full.(v) else None))
      in
      let ids l = List.map msg_id l in
      let agrees (s : S.summary) v =
        Option.map S.Bits.elements s.must = Option.map ids (brute_must g v)
        && S.Bits.elements s.prod = ids (brute_prod g v)
      in
      List.for_all
        (fun v -> agrees full.(v) v && agrees partial.(v) v)
        (List.init g.nv Fun.id))

(* ---------- property: projections of real runs are valid ---------- *)

(* Generate a random valid run: a sequence of events where each event
   either is local or consumes a previously produced, not yet consumed
   message addressed to its node; some events produce messages to
   random nodes.  The per-node projections must always check Valid. *)
let gen_valid_run =
  let open QCheck.Gen in
  let num_nodes = 3 in
  let* steps = int_range 1 14 in
  let rec build i pending acc seed =
    if i >= steps then return (List.rev acc)
    else
      let* node = int_range 0 (num_nodes - 1) in
      let* produce_count = int_range 0 2 in
      let label = Printf.sprintf "e%d" i in
      let* produced_dsts =
        flatten_l (List.init produce_count (fun _ -> int_range 0 (num_nodes - 1)))
      in
      let produced =
        List.mapi (fun j dst -> (dst, Printf.sprintf "m%d_%d_%d" seed i j)) produced_dsts
      in
      let deliverable = List.filter (fun (dst, _) -> dst = node) pending in
      let* consume =
        match deliverable with
        | [] -> return None
        | l ->
            let* flip = bool in
            if flip then
              let* k = int_range 0 (List.length l - 1) in
              return (Some (List.nth l k))
            else return None
      in
      let event =
        ev node label
          ?requires:(Option.map snd consume)
          ~produces:(List.map snd produced)
      in
      let pending =
        let without =
          match consume with
          | Some c -> List.filter (fun x -> x != c) pending
          | None -> pending
        in
        produced @ without
      in
      build (i + 1) pending (event :: acc) seed
  in
  let* seed = int_range 0 10_000 in
  build 0 [] [] seed

let prop_valid_run_projections =
  QCheck.Test.make ~count:300 ~name:"per-node projections of a real run verify"
    (QCheck.make gen_valid_run)
    (fun events ->
      let seqs =
        Array.init 3 (fun n ->
            List.filter (fun (e : Lmc.Soundness.event) -> e.node = n) events)
      in
      is_valid (Lmc.Soundness.check ~initial_net:[] seqs))

let prop_valid_run_projections_dag =
  QCheck.Test.make ~count:300
    ~name:"linearised DAGs of a real run verify (check_dag)"
    (QCheck.make gen_valid_run)
    (fun events ->
      let graphs =
        Array.init 3 (fun n ->
            let seq =
              List.filter (fun (e : Lmc.Soundness.event) -> e.node = n) events
            in
            let arr = Array.of_list seq in
            {
              Lmc.Soundness.root = 0;
              target = Array.length arr;
              edges = List.init (Array.length arr) (fun i -> (i, arr.(i), i + 1));
            })
      in
      is_valid (Lmc.Soundness.check_dag ~initial_net:[] graphs))

let prop_ghost_requirement_invalid =
  QCheck.Test.make ~count:300 ~name:"appending a ghost consumption invalidates"
    (QCheck.make gen_valid_run)
    (fun events ->
      let poisoned =
        events @ [ ev 0 "ghost-recv" ~requires:"never-produced-anywhere" ]
      in
      let seqs =
        Array.init 3 (fun n ->
            List.filter (fun (e : Lmc.Soundness.event) -> e.node = n) poisoned)
      in
      is_invalid (Lmc.Soundness.check ~initial_net:[] seqs))

(* ---------- Combination ---------- *)

let test_combination_product () =
  let seen = ref [] in
  let r =
    Lmc.Combination.iter
      [| [| 1; 2 |]; [| 10 |]; [| 100; 200 |] |]
      (fun tuple ->
        seen := Array.to_list tuple :: !seen;
        `Continue)
  in
  check Alcotest.bool "completed" true (r = `Done);
  check
    Alcotest.(list (list int))
    "all tuples in order"
    [ [ 1; 10; 100 ]; [ 1; 10; 200 ]; [ 2; 10; 100 ]; [ 2; 10; 200 ] ]
    (List.rev !seen)

let test_combination_stop () =
  let count = ref 0 in
  let r =
    Lmc.Combination.iter
      [| [| 1; 2; 3 |]; [| 1; 2; 3 |] |]
      (fun _ ->
        incr count;
        if !count = 4 then `Stop else `Continue)
  in
  check Alcotest.bool "stopped" true (r = `Stopped);
  check Alcotest.int "early exit" 4 !count

let test_combination_empty () =
  let count = ref 0 in
  let r =
    Lmc.Combination.iter
      [| [| 1 |]; [||]; [| 2 |] |]
      (fun _ ->
        incr count;
        `Continue)
  in
  check Alcotest.bool "empty axis yields nothing" true (r = `Done);
  check Alcotest.int "no tuples" 0 !count;
  let r0 = Lmc.Combination.iter [||] (fun _ -> `Continue) in
  check Alcotest.bool "no axes yields nothing" true (r0 = `Done)

let test_combination_cardinal () =
  check Alcotest.int "2*1*3" 6
    (Lmc.Combination.cardinal [| [| 1; 2 |]; [| 0 |]; [| 1; 2; 3 |] |]);
  check Alcotest.int "with empty axis" 0
    (Lmc.Combination.cardinal [| [| 1; 2 |]; [||] |])

let test_combination_buffer_reuse () =
  (* the callback tuple is reused: retained copies must be explicit *)
  let first = ref None in
  ignore
    (Lmc.Combination.iter
       [| [| 1; 2 |] |]
       (fun tuple ->
         (match !first with
         | None -> first := Some tuple
         | Some t ->
             check Alcotest.bool "same buffer" true (t == tuple))
         ;
         `Continue))

let () =
  Alcotest.run "soundness"
    [
      ( "sequences",
        [
          Alcotest.test_case "empty" `Quick test_empty_sequences;
          Alcotest.test_case "local only" `Quick test_local_only;
          Alcotest.test_case "send/receive" `Quick test_simple_send_receive;
          Alcotest.test_case "missing producer" `Quick test_missing_producer;
          Alcotest.test_case "initial net" `Quick test_initial_net_supplies;
          Alcotest.test_case "multiplicity" `Quick test_multiplicity;
          Alcotest.test_case "loopback" `Quick test_loopback;
          Alcotest.test_case "ordering" `Quick test_ordering_constraint;
          Alcotest.test_case "cross dependency" `Quick test_cross_dependency;
          Alcotest.test_case "deadlock" `Quick test_deadlock_cycle;
          Alcotest.test_case "budget" `Quick test_budget;
        ] );
      ( "primer",
        [
          Alcotest.test_case "----r invalid" `Quick test_primer_invalid_state;
          Alcotest.test_case "s---r valid" `Quick test_primer_valid_state;
        ] );
      ( "dag",
        [
          Alcotest.test_case "trivial" `Quick test_dag_trivial;
          Alcotest.test_case "linear" `Quick test_dag_linear;
          Alcotest.test_case "branch selection" `Quick test_dag_branch_selection;
          Alcotest.test_case "unreachable target" `Quick
            test_dag_unreachable_target;
          Alcotest.test_case "must-consume filter" `Quick
            test_dag_must_consume_filter;
          Alcotest.test_case "optional consume" `Quick
            test_dag_optional_consume_not_filtered;
          Alcotest.test_case "cycle" `Quick test_dag_cycle_tolerated;
          Alcotest.test_case "initial net" `Quick test_dag_initial_net;
          Alcotest.test_case "cycle reached first" `Quick
            test_dag_cycle_first_reach;
          Alcotest.test_case "bitsets span words" `Quick test_bits_words;
        ] );
      ( "combination",
        [
          Alcotest.test_case "product" `Quick test_combination_product;
          Alcotest.test_case "stop" `Quick test_combination_stop;
          Alcotest.test_case "empty" `Quick test_combination_empty;
          Alcotest.test_case "cardinal" `Quick test_combination_cardinal;
          Alcotest.test_case "buffer reuse" `Quick
            test_combination_buffer_reuse;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_valid_run_projections;
            prop_valid_run_projections_dag;
            prop_ghost_requirement_invalid;
            prop_feasible_rejections_unschedulable;
            prop_summaries_match_brute_force;
          ] );
    ]
