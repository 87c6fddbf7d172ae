type violation = { invariant : string; detail : string }

type 'state t = {
  name : string;
  check : 'state array -> string option;
  (* Shape introspection for automatic system-state pruning (the
     paper's future-work idea): populated by the combinators below. *)
  nodewise : (Node_id.t -> 'state -> bool) option;
  pairwise : (Node_id.t -> 'state -> Node_id.t -> 'state -> bool) option;
}

let name t = t.name

let check t system =
  match t.check system with
  | None -> None
  | Some detail -> Some { invariant = t.name; detail }

let make ~name check = { name; check; nodewise = None; pairwise = None }

let conj ts =
  let name = String.concat " & " (List.map (fun t -> t.name) ts) in
  let check system =
    let rec first = function
      | [] -> None
      | t :: rest -> (
          match t.check system with
          | Some detail -> Some (Printf.sprintf "[%s] %s" t.name detail)
          | None -> first rest)
    in
    first ts
  in
  { name; check; nodewise = None; pairwise = None }

let for_all_nodes ~name f =
  let check system =
    let n = Array.length system in
    let rec loop i =
      if i >= n then None
      else
        match f i system.(i) with
        | Some detail -> Some (Printf.sprintf "at N%d: %s" i detail)
        | None -> loop (i + 1)
    in
    loop 0
  in
  {
    name;
    check;
    nodewise = Some (fun n s -> f n s <> None);
    pairwise = None;
  }

let for_all_pairs ~name f =
  let check system =
    let n = Array.length system in
    let result = ref None in
    (try
       for i = 0 to n - 1 do
         for j = i + 1 to n - 1 do
           match f i system.(i) j system.(j) with
           | Some detail ->
               result :=
                 Some (Printf.sprintf "between N%d and N%d: %s" i j detail);
               raise Exit
           | None -> ()
         done
       done
     with Exit -> ());
    !result
  in
  {
    name;
    check;
    nodewise = None;
    (* [check]'s orientation: the lower node id comes first *)
    pairwise =
      Some
        (fun i a j b -> if i < j then f i a j b <> None else f j b i a <> None);
  }

let nodewise_witness t = t.nodewise

let pairwise_witness t = t.pairwise

let pp_violation ppf v =
  Format.fprintf ppf "invariant %S violated: %s" v.invariant v.detail
