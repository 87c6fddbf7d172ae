(* Unit tests for the distributed-system model substrate. *)

let check = Alcotest.check
let fail = Alcotest.fail

(* ---------- Node_id ---------- *)

let test_node_id_of_int () =
  check Alcotest.int "roundtrip" 3 (Dsm.Node_id.to_int (Dsm.Node_id.of_int 3));
  (match Dsm.Node_id.of_int (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> fail "negative id accepted");
  check Alcotest.(list int) "all" [ 0; 1; 2 ] (Dsm.Node_id.all 3);
  check Alcotest.(list int) "all 0" [] (Dsm.Node_id.all 0)

let test_node_id_pp () =
  check Alcotest.string "pp" "N7" (Format.asprintf "%a" Dsm.Node_id.pp 7)

(* ---------- Envelope ---------- *)

let test_envelope_basic () =
  let e = Dsm.Envelope.make ~src:1 ~dst:2 "hello" in
  check Alcotest.int "src" 1 e.Dsm.Envelope.src;
  check Alcotest.int "dst" 2 e.Dsm.Envelope.dst;
  check Alcotest.string "payload" "hello" e.Dsm.Envelope.payload;
  check Alcotest.bool "not loopback" false (Dsm.Envelope.is_loopback e);
  let l = Dsm.Envelope.make ~src:2 ~dst:2 "x" in
  check Alcotest.bool "loopback" true (Dsm.Envelope.is_loopback l)

let test_envelope_compare () =
  let e1 = Dsm.Envelope.make ~src:0 ~dst:1 "a" in
  let e2 = Dsm.Envelope.make ~src:0 ~dst:2 "a" in
  let e3 = Dsm.Envelope.make ~src:1 ~dst:1 "a" in
  let e4 = Dsm.Envelope.make ~src:0 ~dst:1 "b" in
  let cmp = Dsm.Envelope.compare String.compare in
  check Alcotest.bool "dst first" true (cmp e1 e2 < 0);
  check Alcotest.bool "src second" true (cmp e1 e3 < 0);
  check Alcotest.bool "payload third" true (cmp e1 e4 < 0);
  check Alcotest.int "equal" 0 (cmp e1 e1);
  check Alcotest.bool "equal fn" true
    (Dsm.Envelope.equal String.equal e1 e1);
  check Alcotest.bool "not equal fn" false
    (Dsm.Envelope.equal String.equal e1 e4)

let test_envelope_map () =
  let e = Dsm.Envelope.make ~src:3 ~dst:4 5 in
  let e' = Dsm.Envelope.map string_of_int e in
  check Alcotest.int "src preserved" 3 e'.Dsm.Envelope.src;
  check Alcotest.int "dst preserved" 4 e'.Dsm.Envelope.dst;
  check Alcotest.string "payload mapped" "5" e'.Dsm.Envelope.payload

(* ---------- Fingerprint ---------- *)

let test_fingerprint_stable () =
  let a = Dsm.Fingerprint.of_value (1, [ "x"; "y" ]) in
  let b = Dsm.Fingerprint.of_value (1, [ "x"; "y" ]) in
  check Alcotest.bool "equal values equal fps" true (Dsm.Fingerprint.equal a b);
  let c = Dsm.Fingerprint.of_value (1, [ "x"; "z" ]) in
  check Alcotest.bool "distinct values distinct fps" false
    (Dsm.Fingerprint.equal a c)

let test_fingerprint_size () =
  let fp = Dsm.Fingerprint.of_value 42 in
  check Alcotest.int "16 bytes" Dsm.Fingerprint.size (String.length fp);
  check Alcotest.int "hex is 32 chars" 32
    (String.length (Dsm.Fingerprint.to_hex fp))

let test_fingerprint_combine () =
  let a = Dsm.Fingerprint.of_value 1 and b = Dsm.Fingerprint.of_value 2 in
  let ab = Dsm.Fingerprint.combine [ a; b ] in
  let ba = Dsm.Fingerprint.combine [ b; a ] in
  check Alcotest.bool "order matters" false (Dsm.Fingerprint.equal ab ba);
  check Alcotest.bool "deterministic" true
    (Dsm.Fingerprint.equal ab (Dsm.Fingerprint.combine [ a; b ]))

let test_fingerprint_serialized_size () =
  check Alcotest.bool "positive" true (Dsm.Fingerprint.serialized_size 1 > 0);
  check Alcotest.bool "bigger value bigger size" true
    (Dsm.Fingerprint.serialized_size (Array.make 100 7)
    > Dsm.Fingerprint.serialized_size 1)

let test_fingerprint_set_map () =
  let a = Dsm.Fingerprint.of_value "a" and b = Dsm.Fingerprint.of_value "b" in
  let s = Dsm.Fingerprint.Set.of_list [ a; b; a ] in
  check Alcotest.int "set dedups" 2 (Dsm.Fingerprint.Set.cardinal s);
  let m = Dsm.Fingerprint.Map.singleton a 1 in
  check Alcotest.(option int) "map find" (Some 1)
    (Dsm.Fingerprint.Map.find_opt a m)

(* ---------- Fingerprint kernel vs Marshal ----------

   The kernel must distinguish exactly what the marshaller does: for
   any two values, equal [Marshal.to_string] digests iff equal
   fingerprints.  The reference is MD5 over the marshalled bytes. *)

let reference v = Digest.string (Marshal.to_string v [])

type sample = {
  label : string;
  ref_fp : string;
  fp : Dsm.Fingerprint.t;
  recompute : unit -> Dsm.Fingerprint.t;
}

let sample label v =
  {
    label;
    ref_fp = reference v;
    fp = Dsm.Fingerprint.of_value v;
    recompute = (fun () -> Dsm.Fingerprint.of_value v);
  }

(* A seeded random walk of [P] under global semantics: every node
   state, sent envelope and fired [(node, action)] label it meets, and
   the global [(nodes, in-flight)] pair after each step, whose parts
   share structure across nodes. *)
let walk_samples (module P : Dsm.Protocol.S) ~seed ~steps =
  let rng = Random.State.make [| seed |] in
  let sys = Dsm.Protocol.initial_system (module P) in
  let net = ref [] and out = ref [] in
  let keep kind v = out := sample (P.name ^ " " ^ kind) v :: !out in
  Array.iter (keep "state") sys;
  (try
     for _ = 1 to steps do
       let actions =
         List.concat_map
           (fun n -> List.map (fun a -> (n, a)) (P.enabled_actions ~self:n sys.(n)))
           (List.init P.num_nodes Fun.id)
       in
       let na = List.length actions and nd = List.length !net in
       if na + nd = 0 then raise Exit;
       let k = Random.State.int rng (na + nd) in
       let n, step =
         if k < na then begin
           let ((n, a) as label) = List.nth actions k in
           keep "label" label;
           (n, fun () -> P.handle_action ~self:n sys.(n) a)
         end
         else begin
           let env = List.nth !net (k - na) in
           net := List.filteri (fun i _ -> i <> k - na) !net;
           let n = env.Dsm.Envelope.dst in
           (n, fun () -> P.handle_message ~self:n sys.(n) env)
         end
       in
       match step () with
       | s', sent ->
           sys.(n) <- s';
           net := sent @ !net;
           keep "state" s';
           List.iter (keep "envelope") sent;
           keep "global" (Array.copy sys, !net)
       | exception Dsm.Protocol.Local_assert _ -> ()
     done
   with Exit -> ());
  !out

(* The [fixture-noncanon] pair: node 1's states after each of node 0's
   actions is delivered, equal as values but shared differently; with
   whether they are structurally equal. *)
let noncanon_pair () =
  let (module S) =
    List.find
      (fun s -> Protocols.Registry.name s = "fixture-noncanon")
      Protocols.Registry.fixtures
  in
  let module P = S.P in
  let init = Dsm.Protocol.initial_system (module P) in
  let states =
    List.concat_map
      (fun a ->
        let _, sent = P.handle_action ~self:0 init.(0) a in
        List.map
          (fun (env : P.message Dsm.Envelope.t) ->
            fst (P.handle_message ~self:env.dst init.(env.dst) env))
          sent)
      (P.enabled_actions ~self:0 init.(0))
  in
  match states with
  | [ a; b ] -> (sample "noncanon shared" a, sample "noncanon split" b, a = b)
  | _ -> fail "fixture-noncanon: expected two states"

(* Nested through the first field, so each level leaves one field
   pending on the walk's stack. *)
type left = Leaf | Left of left * int

(* Hand-picked edge cases: string lengths around word boundaries,
   float bit patterns, atoms, custom blocks (the marshalled fallback),
   explicit sharing, cycles, and values too big or too deep for the
   walk. *)
let edge_samples () =
  let n = Sys.opaque_identity 7 in
  let shared = let l = [ n ] in (l, l) and split = ([ n ], [ n ]) in
  let twice v = (v, v) and apart f = (f (), f ()) in
  let str () = String.make n 'a' and flt () = Sys.opaque_identity (float n) in
  let flts () = [| float n; 0.5 |] in
  let rec cycle = 1 :: 2 :: cycle in
  let rec cycle' = 1 :: 2 :: 1 :: 2 :: cycle' in
  let rec deep d acc = if d = 0 then acc else deep (d - 1) (Left (acc, d)) in
  List.concat
    [
      List.init 18 (fun len ->
          sample "string" (String.init len (fun i -> Char.chr (97 + i))));
      List.init 18 (fun len -> sample "string" (String.make len '\000'));
      List.map (sample "float") [ 0.; -0.; nan; -.nan; infinity; 1.5 ];
      List.map (sample "float array")
        [ [| 0. |]; [| -0. |]; [| nan; 1. |]; [| 1.; nan |] ];
      List.map (sample "int64") [ 1L; 2L; Int64.min_int ];
      [ sample "int64 pair" (1L, "x"); sample "int64 pair" (1L, "y") ];
      [
        sample "atom" [||];
        sample "atom" ([||], [||]);
        sample "atom" ([||] : float array);
        sample "shared" shared;
        sample "split" split;
        sample "shared string" (twice (str ()));
        sample "split string" (apart str);
        sample "shared float" (twice (flt ()));
        sample "split float" (apart flt);
        sample "shared float array" (twice (flts ()));
        sample "split float array" (apart flts);
        sample "cycle" cycle;
        sample "cycle" cycle';
        sample "long list" (List.init 200_000 Fun.id);
        sample "long list" (List.init 200_000 (fun i -> i land 0xFFFF));
        sample "deep" (deep 5_000 Leaf);
        sample "deep" (deep 5_001 Leaf);
      ];
    ]

let all_samples () =
  List.concat
    [
      List.concat_map
        (fun (module S : Protocols.Registry.SUBJECT) ->
          List.concat_map
            (fun seed -> walk_samples (module S.P) ~seed ~steps:60)
            [ 1; 2; 3; 4 ])
        (Protocols.Registry.subjects @ Protocols.Registry.fixtures);
      (let a, b, _ = noncanon_pair () in
       [ a; b ]);
      edge_samples ();
    ]

let test_fingerprint_kernel_equivalence () =
  let samples = all_samples () in
  (* reference-equal <=> kernel-equal over every pair: both maps are
     functions, so distinct references and distinct fingerprints are
     in bijection *)
  let functional key value name =
    let seen = Hashtbl.create 4096 in
    List.iter
      (fun s ->
        match Hashtbl.find_opt seen (key s) with
        | None -> Hashtbl.add seen (key s) s
        | Some s' when value s' = value s -> ()
        | Some s' ->
            fail
              (Printf.sprintf "%s: %s and %s agree on one digest only" name
                 s'.label s.label))
      samples
  in
  functional (fun s -> s.ref_fp) (fun s -> s.fp) "marshal-equal";
  functional (fun s -> s.fp) (fun s -> s.ref_fp) "kernel-equal";
  let distinct =
    List.length (List.sort_uniq String.compare (List.map (fun s -> s.fp) samples))
  in
  check Alcotest.bool "over 2,000 distinct values" true (distinct > 2_000);
  let a, b, equal = noncanon_pair () in
  check Alcotest.bool "the noncanon pair is structurally equal" true equal;
  check Alcotest.bool "but fingerprints apart" false
    (Dsm.Fingerprint.equal a.fp b.fp)

let test_fingerprint_closure () =
  match Dsm.Fingerprint.of_value (Sys.opaque_identity (fun x -> x + 1)) with
  | exception Invalid_argument _ -> ()
  | _ -> fail "closure fingerprinted"

(* Two domains fingerprint the same samples at once; each must see the
   sequential results (the walk's address table is per thread). *)
let test_fingerprint_domains () =
  let samples = Array.of_list (all_samples ()) in
  let run () = Array.map (fun s -> s.recompute ()) samples in
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Array.iteri
    (fun i s ->
      if not (String.equal r1.(i) s.fp && String.equal r2.(i) s.fp) then
        fail (s.label ^ ": a domain disagrees with the sequential result"))
    samples

(* ---------- Vec ---------- *)

let test_vec_push_get () =
  let v = Dsm.Vec.create () in
  check Alcotest.bool "empty" true (Dsm.Vec.is_empty v);
  check Alcotest.int "idx 0" 0 (Dsm.Vec.push v "a");
  check Alcotest.int "idx 1" 1 (Dsm.Vec.push v "b");
  check Alcotest.int "length" 2 (Dsm.Vec.length v);
  check Alcotest.string "get 0" "a" (Dsm.Vec.get v 0);
  check Alcotest.string "get 1" "b" (Dsm.Vec.get v 1);
  check Alcotest.string "last" "b" (Dsm.Vec.last v);
  Dsm.Vec.set v 0 "z";
  check Alcotest.string "set" "z" (Dsm.Vec.get v 0)

let test_vec_bounds () =
  let v = Dsm.Vec.create () in
  ignore (Dsm.Vec.push v 1);
  (match Dsm.Vec.get v 1 with
  | exception Invalid_argument _ -> ()
  | _ -> fail "out of bounds get accepted");
  (match Dsm.Vec.get v (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> fail "negative get accepted");
  match Dsm.Vec.last (Dsm.Vec.create ()) with
  | exception Invalid_argument _ -> ()
  | _ -> fail "last of empty accepted"

let test_vec_growth () =
  let v = Dsm.Vec.create () in
  for i = 0 to 999 do
    check Alcotest.int "push idx" i (Dsm.Vec.push v i)
  done;
  check Alcotest.int "length" 1000 (Dsm.Vec.length v);
  for i = 0 to 999 do
    if Dsm.Vec.get v i <> i then fail "content lost while growing"
  done

let test_vec_iter_range () =
  let v = Dsm.Vec.create () in
  List.iter (fun x -> ignore (Dsm.Vec.push v x)) [ 10; 20; 30; 40 ];
  let seen = ref [] in
  Dsm.Vec.iter_range v ~from:1 ~until:3 (fun i x -> seen := (i, x) :: !seen);
  check
    Alcotest.(list (pair int int))
    "range" [ (1, 20); (2, 30) ] (List.rev !seen);
  (* [until] beyond the end is clipped *)
  let seen = ref 0 in
  Dsm.Vec.iter_range v ~from:2 ~until:100 (fun _ _ -> incr seen);
  check Alcotest.int "clipped" 2 !seen

let test_vec_conversions () =
  let v = Dsm.Vec.create () in
  List.iter (fun x -> ignore (Dsm.Vec.push v x)) [ 1; 2; 3 ];
  check Alcotest.(list int) "to_list" [ 1; 2; 3 ] (Dsm.Vec.to_list v);
  check Alcotest.(array int) "to_array" [| 1; 2; 3 |] (Dsm.Vec.to_array v);
  check Alcotest.int "fold" 6 (Dsm.Vec.fold_left ( + ) 0 v);
  Dsm.Vec.clear v;
  check Alcotest.int "cleared" 0 (Dsm.Vec.length v)

(* ---------- Flat_table ---------- *)

(* Against a stdlib Hashtbl over the same pairs, through several
   growths.  Keys share a lane with other keys (small ids, one lane
   fixed, swapped lanes) so a table that compared one lane only would
   merge them; extremes and negatives are keys too. *)
let test_flat_table_model () =
  let t = Dsm.Flat_table.create () in
  let model = Hashtbl.create 64 in
  let rng = Random.State.make [| 7 |] in
  let keys =
    List.concat
      [
        List.init 3000 (fun i -> (i / 50, i mod 50));
        List.init 2000 (fun i -> (42, i));
        List.init 2000 (fun i -> (i, 42));
        List.init 2000 (fun i -> (i mod 50, i / 50));
        List.init 5000 (fun _ ->
            (Random.State.bits rng lsl 32 lxor Random.State.bits rng,
             - Random.State.bits rng));
        [ (0, 0); (max_int, min_int); (min_int, max_int); (-1, -1) ];
      ]
  in
  List.iteri
    (fun i (a, b) ->
      let expected =
        match Hashtbl.find_opt model (a, b) with
        | Some p -> p
        | None ->
            Hashtbl.add model (a, b) i;
            -1
      in
      check Alcotest.int "find_or_add" expected
        (Dsm.Flat_table.find_or_add t a b i))
    keys;
  check Alcotest.int "length" (Hashtbl.length model) (Dsm.Flat_table.length t);
  Hashtbl.iter
    (fun (a, b) p -> check Alcotest.int "find" p (Dsm.Flat_table.find t a b))
    model;
  List.iter
    (fun (a, b) ->
      if not (Hashtbl.mem model (a, b)) then
        check Alcotest.int "absent" (-1) (Dsm.Flat_table.find t a b))
    [ (42, -1); (-1, 42); (3000, 0); (1, min_int) ]

let test_flat_table_basics () =
  let t = Dsm.Flat_table.create () in
  let empty_bytes = Dsm.Flat_table.bytes t in
  check Alcotest.int "absent" (-1) (Dsm.Flat_table.find t 1 2);
  check Alcotest.int "insert" (-1) (Dsm.Flat_table.find_or_add t 1 2 0);
  check Alcotest.int "present" 0 (Dsm.Flat_table.find_or_add t 1 2 9);
  check Alcotest.int "payload kept" 0 (Dsm.Flat_table.find t 1 2);
  check Alcotest.int "other lane b" (-1) (Dsm.Flat_table.find t 1 3);
  check Alcotest.int "other lane a" (-1) (Dsm.Flat_table.find t 2 2);
  for i = 0 to 99 do
    ignore (Dsm.Flat_table.find_or_add t i (-i) i)
  done;
  check Alcotest.bool "grew" true (Dsm.Flat_table.bytes t > empty_bytes);
  check Alcotest.bool "load at most 3/4" true
    (4 * 8 * 3 * Dsm.Flat_table.length t <= 3 * Dsm.Flat_table.bytes t);
  match Dsm.Flat_table.find_or_add t 5 5 (-1) with
  | _ -> fail "negative payload accepted"
  | exception Invalid_argument _ -> ()

(* ---------- Id_table ---------- *)

(* Interns [keys] in order, the [n]-th new key taking id [fresh n], and
   checks each lookup against a Hashtbl model; then every key once
   more.  [eq] reads a key back from its id the way a checker reads its
   store, so an id the table never held raises [Not_found]. *)
let id_table_agrees ~hash ~fresh keys =
  let t = Dsm.Id_table.create () in
  let model = Hashtbl.create 64 and key_of = Hashtbl.create 64 in
  let find k =
    Dsm.Id_table.find t (hash k) (fun id -> Hashtbl.find key_of id = k)
  in
  List.for_all
    (fun k ->
      let got = find k in
      match Hashtbl.find_opt model k with
      | Some id -> got = id
      | None ->
          let id = fresh (Hashtbl.length model) in
          Hashtbl.add model k id;
          Hashtbl.add key_of id k;
          Dsm.Id_table.add t (hash k) id;
          got = -1)
    keys
  && Dsm.Id_table.length t = Hashtbl.length model
  && Hashtbl.fold (fun k id ok -> ok && find k = id) model true
  && find (-1) = -1

(* Key sequences with many repeats, long enough to grow the table from
   16 slots to 2048. *)
let id_table_keys range =
  QCheck.(list_of_size Gen.(int_range 0 1500) (int_range 0 range))

let prop_id_table_model =
  QCheck.Test.make ~name:"Id_table agrees with Hashtbl" ~count:100
    (id_table_keys 999)
    (id_table_agrees ~hash:Hashtbl.hash ~fresh:Fun.id)

(* Every key has the same tag and home slot: [eq] alone tells keys
   apart, across every resize. *)
let prop_id_table_degenerate =
  QCheck.Test.make ~name:"Id_table with one hash for all keys" ~count:30
    (id_table_keys 299)
    (id_table_agrees ~hash:(fun _ -> 0) ~fresh:Fun.id)

(* Four hash classes: long runs of equal tags between other tags. *)
let prop_id_table_classes =
  QCheck.Test.make ~name:"Id_table with four hash classes" ~count:30
    (id_table_keys 299)
    (id_table_agrees ~hash:(fun k -> k land 3) ~fresh:Fun.id)

let test_id_table_limits () =
  let max_id = Dsm.Id_table.max_id in
  check Alcotest.int "31-bit ids" ((1 lsl 31) - 1) max_id;
  check Alcotest.bool "ids counting down from the limit" true
    (id_table_agrees ~hash:Hashtbl.hash
       ~fresh:(fun n -> max_id - n)
       (List.init 300 (fun i -> i mod 200)));
  check Alcotest.bool "limit ids under one hash" true
    (id_table_agrees ~hash:(fun _ -> 7)
       ~fresh:(fun n -> max_id - n)
       (List.init 100 (fun i -> i mod 60)));
  let t = Dsm.Id_table.create () in
  List.iter
    (fun id ->
      match Dsm.Id_table.add t 0 id with
      | () -> Alcotest.failf "id %d accepted" id
      | exception Invalid_argument _ -> ())
    [ max_id + 1; -1; max_int; min_int ];
  check Alcotest.int "nothing added" 0 (Dsm.Id_table.length t)

(* ---------- Invariant ---------- *)

let test_invariant_make () =
  let inv =
    Dsm.Invariant.make ~name:"sum-small" (fun sys ->
        if Array.fold_left ( + ) 0 sys > 10 then Some "sum too big" else None)
  in
  check Alcotest.string "name" "sum-small" (Dsm.Invariant.name inv);
  check Alcotest.bool "holds" true (Dsm.Invariant.check inv [| 1; 2 |] = None);
  match Dsm.Invariant.check inv [| 9; 9 |] with
  | Some v ->
      check Alcotest.string "violation name" "sum-small" v.Dsm.Invariant.invariant
  | None -> fail "expected violation"

let test_invariant_conj () =
  let pos =
    Dsm.Invariant.make ~name:"pos" (fun sys ->
        if Array.exists (fun x -> x < 0) sys then Some "negative" else None)
  in
  let small =
    Dsm.Invariant.make ~name:"small" (fun sys ->
        if Array.exists (fun x -> x > 5) sys then Some "big" else None)
  in
  let both = Dsm.Invariant.conj [ pos; small ] in
  check Alcotest.bool "both hold" true
    (Dsm.Invariant.check both [| 1; 2 |] = None);
  check Alcotest.bool "first fails" true
    (Dsm.Invariant.check both [| -1; 2 |] <> None);
  check Alcotest.bool "second fails" true
    (Dsm.Invariant.check both [| 1; 7 |] <> None)

let test_invariant_for_all_nodes () =
  let inv =
    Dsm.Invariant.for_all_nodes ~name:"even" (fun _ s ->
        if s mod 2 = 0 then None else Some "odd")
  in
  check Alcotest.bool "holds" true (Dsm.Invariant.check inv [| 2; 4 |] = None);
  match Dsm.Invariant.check inv [| 2; 3 |] with
  | Some v ->
      check Alcotest.bool "names node" true
        (String.length v.Dsm.Invariant.detail > 0)
  | None -> fail "expected violation"

let test_invariant_for_all_pairs () =
  let inv =
    Dsm.Invariant.for_all_pairs ~name:"agree" (fun _ a _ b ->
        if a <> b then Some "disagree" else None)
  in
  check Alcotest.bool "agreeing" true
    (Dsm.Invariant.check inv [| 5; 5; 5 |] = None);
  check Alcotest.bool "disagreeing" true
    (Dsm.Invariant.check inv [| 5; 5; 6 |] <> None);
  check Alcotest.bool "single node trivially holds" true
    (Dsm.Invariant.check inv [| 5 |] = None)

(* ---------- Trace ---------- *)

let test_trace_step_node () =
  let d = Dsm.Trace.Deliver (Dsm.Envelope.make ~src:0 ~dst:3 "m") in
  let x = Dsm.Trace.Execute (1, "a") in
  check Alcotest.int "deliver node is dst" 3 (Dsm.Trace.step_node d);
  check Alcotest.int "execute node" 1 (Dsm.Trace.step_node x)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  scan 0

let test_trace_pp () =
  let pp_message ppf m = Format.pp_print_string ppf m in
  let pp_action = pp_message in
  let steps =
    [
      Dsm.Trace.Execute (0, "start");
      Dsm.Trace.Deliver (Dsm.Envelope.make ~src:0 ~dst:1 "tok");
    ]
  in
  let out = Format.asprintf "%a" (Dsm.Trace.pp ~pp_message ~pp_action) steps in
  check Alcotest.bool "mentions the action" true (contains out "start");
  check Alcotest.bool "mentions the delivery" true (contains out "N0->N1");
  check Alcotest.bool "numbered" true (contains out "1.")

let test_invariant_introspection () =
  let local =
    Dsm.Invariant.for_all_nodes ~name:"even" (fun _ s ->
        if s mod 2 = 0 then None else Some "odd")
  in
  (match Dsm.Invariant.nodewise_witness local with
  | Some w ->
      check Alcotest.bool "witness fires" true (w 0 3);
      check Alcotest.bool "witness holds" false (w 0 2)
  | None -> fail "for_all_nodes must expose a nodewise witness");
  check Alcotest.bool "no pairwise shape" true
    (Dsm.Invariant.pairwise_witness local = None);
  let pair =
    Dsm.Invariant.for_all_pairs ~name:"lt" (fun _ a _ b ->
        if a > b then Some "decreasing" else None)
  in
  (match Dsm.Invariant.pairwise_witness pair with
  | Some w ->
      (* the witness judges the pair as [check] does: lower node first *)
      check Alcotest.bool "fires in check's order" true (w 0 5 1 3);
      check Alcotest.bool "same pair, roles swapped" true (w 1 3 0 5);
      check Alcotest.bool "quiet against check's order" false (w 0 3 1 5);
      check Alcotest.bool "quiet, roles swapped" false (w 1 5 0 3);
      check Alcotest.bool "quiet on equals" false (w 0 3 1 3)
  | None -> fail "for_all_pairs must expose a pairwise witness");
  let opaque = Dsm.Invariant.make ~name:"opaque" (fun _ -> None) in
  check Alcotest.bool "opaque has no shape" true
    (Dsm.Invariant.nodewise_witness opaque = None
    && Dsm.Invariant.pairwise_witness opaque = None)

(* A true pair witness for (i, a, j, b) means [check] fails on every
   system holding [a] at [i] and [b] at [j], whatever the other nodes
   hold; on a two-node system the two agree exactly.  Random pairs and
   fillers, under a symmetric predicate and two asymmetric ones (one
   also reads the node ids). *)
let test_pair_witness_implies_check () =
  let preds =
    [
      ("lt", fun _ a _ b -> if a > b then Some "decreasing" else None);
      ("equal", fun _ a _ b -> if a = b then Some "equal" else None);
      ( "gap",
        fun i a j b -> if a - b > j - i then Some "gap too wide" else None );
    ]
  in
  let rng = Random.State.make [| 27 |] in
  List.iter
    (fun (name, f) ->
      let inv = Dsm.Invariant.for_all_pairs ~name f in
      let w = Option.get (Dsm.Invariant.pairwise_witness inv) in
      for _ = 1 to 2_000 do
        let n = 2 + Random.State.int rng 4 in
        let i = Random.State.int rng n in
        let j = (i + 1 + Random.State.int rng (n - 1)) mod n in
        let a = Random.State.int rng 5 and b = Random.State.int rng 5 in
        let system = Array.init n (fun _ -> Random.State.int rng 5) in
        system.(i) <- a;
        system.(j) <- b;
        let fails = Dsm.Invariant.check inv system <> None in
        let ctx = Printf.sprintf "%s: N%d=%d N%d=%d of %d" name i a j b n in
        if w i a j b then check Alcotest.bool ctx true fails;
        if n = 2 then check Alcotest.bool (ctx ^ " (exact)") (w i a j b) fails
      done)
    preds

(* ---------- Json ---------- *)

let test_json_scalars () =
  check Alcotest.string "null" "null" (Dsm.Json.to_string Dsm.Json.Null);
  check Alcotest.string "true" "true" (Dsm.Json.to_string (Dsm.Json.Bool true));
  check Alcotest.string "int" "-42" (Dsm.Json.to_string (Dsm.Json.Int (-42)));
  check Alcotest.string "integral float" "3.0"
    (Dsm.Json.to_string (Dsm.Json.Float 3.0));
  check Alcotest.string "string" "\"hi\""
    (Dsm.Json.to_string (Dsm.Json.String "hi"))

let test_json_escaping () =
  check Alcotest.string "quotes and backslash" "\"a\\\"b\\\\c\""
    (Dsm.Json.to_string (Dsm.Json.String "a\"b\\c"));
  check Alcotest.string "newline/tab" "\"l1\\nl2\\tend\""
    (Dsm.Json.to_string (Dsm.Json.String "l1\nl2\tend"));
  check Alcotest.string "control char" "\"\\u0001\""
    (Dsm.Json.to_string (Dsm.Json.String "\001"))

let test_json_structures () =
  let v =
    Dsm.Json.Obj
      [
        ("xs", Dsm.Json.List [ Dsm.Json.Int 1; Dsm.Json.Int 2 ]);
        ("nested", Dsm.Json.Obj [ ("ok", Dsm.Json.Bool false) ]);
        ("empty", Dsm.Json.List []);
      ]
  in
  check Alcotest.string "nested"
    "{\"xs\":[1,2],\"nested\":{\"ok\":false},\"empty\":[]}"
    (Dsm.Json.to_string v)

(* ---------- Protocol helpers ---------- *)

module Tree = Protocols.Tree.Make (Protocols.Tree.Paper_config)

let test_initial_system () =
  let sys = Dsm.Protocol.initial_system (module Tree) in
  check Alcotest.int "5 nodes" 5 (Array.length sys);
  Array.iter
    (fun s -> if s <> Protocols.Tree.Waiting then fail "non-waiting initial")
    sys

let () =
  Alcotest.run "dsm"
    [
      ( "node_id",
        [
          Alcotest.test_case "of_int/all" `Quick test_node_id_of_int;
          Alcotest.test_case "pp" `Quick test_node_id_pp;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "basic" `Quick test_envelope_basic;
          Alcotest.test_case "compare" `Quick test_envelope_compare;
          Alcotest.test_case "map" `Quick test_envelope_map;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "stable" `Quick test_fingerprint_stable;
          Alcotest.test_case "size" `Quick test_fingerprint_size;
          Alcotest.test_case "combine" `Quick test_fingerprint_combine;
          Alcotest.test_case "serialized_size" `Quick
            test_fingerprint_serialized_size;
          Alcotest.test_case "set/map" `Quick test_fingerprint_set_map;
          Alcotest.test_case "kernel equals marshal" `Quick
            test_fingerprint_kernel_equivalence;
          Alcotest.test_case "closures raise" `Quick test_fingerprint_closure;
          Alcotest.test_case "two domains" `Quick test_fingerprint_domains;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "growth" `Quick test_vec_growth;
          Alcotest.test_case "iter_range" `Quick test_vec_iter_range;
          Alcotest.test_case "conversions" `Quick test_vec_conversions;
        ] );
      ( "flat_table",
        [
          Alcotest.test_case "agrees with Hashtbl" `Quick test_flat_table_model;
          Alcotest.test_case "basics" `Quick test_flat_table_basics;
        ] );
      ( "id_table",
        [
          QCheck_alcotest.to_alcotest prop_id_table_model;
          QCheck_alcotest.to_alcotest prop_id_table_degenerate;
          QCheck_alcotest.to_alcotest prop_id_table_classes;
          Alcotest.test_case "31-bit ids" `Quick test_id_table_limits;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "make" `Quick test_invariant_make;
          Alcotest.test_case "conj" `Quick test_invariant_conj;
          Alcotest.test_case "for_all_nodes" `Quick test_invariant_for_all_nodes;
          Alcotest.test_case "for_all_pairs" `Quick test_invariant_for_all_pairs;
          Alcotest.test_case "introspection" `Quick
            test_invariant_introspection;
          Alcotest.test_case "pair witness implies check" `Quick
            test_pair_witness_implies_check;
        ] );
      ( "trace",
        [
          Alcotest.test_case "step_node" `Quick test_trace_step_node;
          Alcotest.test_case "pp" `Quick test_trace_pp;
        ] );
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "structures" `Quick test_json_structures;
        ] );
      ( "protocol",
        [ Alcotest.test_case "initial_system" `Quick test_initial_system ] );
    ]
