(* Fingerprint cost on the workload's own values.  The digests run
   inside the checkers, where the benchmark cannot wrap them, so they
   are timed here on values of the same shape: node states, B-DFS
   global states [(nodes, in-flight bindings)] and combination tuples,
   all taken from seeded random walks of the workload's protocol under
   global semantics (every value is reachable). *)

module Make (P : Dsm.Protocol.S) = struct
  type global = P.state array * (P.message Dsm.Envelope.t * int) list

  let rec remove_nth n = function
    | [] -> []
    | x :: rest -> if n = 0 then rest else x :: remove_nth (n - 1) rest

  (* [walks] walks of at most [steps] events from [init]; returns the
     node state each event produced and the global state after it. *)
  let walk ~seed ~walks ~steps init =
    let rng = Random.State.make [| seed |] in
    let states = ref [] and globals = ref [] in
    for _ = 1 to walks do
      let sys = Array.copy init and net = ref [] in
      let fire n f =
        match f () with
        | s', out ->
            sys.(n) <- s';
            net := out @ !net;
            states := s' :: !states;
            globals :=
              ( Array.copy sys,
                Net.Multiset.bindings (Net.Multiset.of_list !net) )
              :: !globals
        | exception Dsm.Protocol.Local_assert _ -> ()
      in
      try
        for _ = 1 to steps do
          let actions =
            List.concat
              (List.init (Array.length sys) (fun n ->
                   List.map (fun a -> (n, a)) (P.enabled_actions ~self:n sys.(n))))
          in
          let na = List.length actions and nd = List.length !net in
          if na + nd = 0 then raise Exit;
          let k = Random.State.int rng (na + nd) in
          if k < na then begin
            let n, a = List.nth actions k in
            fire n (fun () -> P.handle_action ~self:n sys.(n) a)
          end
          else begin
            let env = List.nth !net (k - na) in
            net := remove_nth (k - na) !net;
            let n = env.Dsm.Envelope.dst in
            fire n (fun () -> P.handle_message ~self:n sys.(n) env)
          end
        done
      with Exit -> ()
    done;
    (Array.of_list !states, (Array.of_list !globals : global array))

  (* Mean nanoseconds of [f] over [xs], cycling until at least 20 ms
     have been spent. *)
  let ns_per_call f xs =
    let n = Array.length xs in
    if n = 0 then 0.
    else begin
      let calls = ref 0 and t0 = Shim.now () in
      while !calls = 0 || Shim.now () -. t0 < 0.02 do
        Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
        calls := !calls + n
      done;
      (Shim.now () -. t0) *. 1e9 /. float_of_int !calls
    end

  (* [(node-state of_value ns, global-state of_value ns, combine ns)]. *)
  let fingerprint_ns ~seed init =
    let states, globals = walk ~seed ~walks:16 ~steps:40 init in
    let tuples =
      Array.map
        (fun (nodes, _) ->
          Array.to_list (Array.map Dsm.Fingerprint.of_value nodes))
        globals
    in
    ( ns_per_call Dsm.Fingerprint.of_value states,
      ns_per_call Dsm.Fingerprint.of_value globals,
      ns_per_call Dsm.Fingerprint.combine tuples )
end
