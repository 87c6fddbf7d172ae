(* Role-permutation groups and their action on global states.  See the
   mli for the soundness contract: groups built here are *candidates*;
   only [Lint.Symmetry]'s audit decides what B-DFS may exploit. *)

type perm = int array

type kind = Id | Rot | Full

type group = {
  kind : kind;
  degree : int;
  elements : perm list;
  generators : perm list;
}

let identity n = Array.init n (fun i -> i)

let is_identity p =
  let ok = ref true in
  Array.iteri (fun i x -> if x <> i then ok := false) p;
  !ok

let apply p (i : Node_id.t) : Node_id.t = p.(i)

let equal_perm (a : perm) (b : perm) = a = b

let pp_perm ppf p =
  Format.fprintf ppf "(%s)"
    (String.concat " "
       (Array.to_list (Array.map string_of_int p)))

let identity_group n =
  { kind = Id; degree = n; elements = [ identity n ]; generators = [] }

let rotation n k = Array.init n (fun i -> (i + k) mod n)

let rotations n =
  if n <= 1 then identity_group n
  else
    {
      kind = Rot;
      degree = n;
      elements = List.init n (rotation n);
      generators = [ rotation n 1 ];
    }

(* All of S_n by inserting element [n-1] into every permutation of
   [n-1]; eager, so cap the degree before the list explodes. *)
let all_perms n =
  let rec go k =
    if k = 0 then [ [] ]
    else
      List.concat_map
        (fun rest ->
          List.init k (fun pos ->
              let rec insert i = function
                | [] -> [ k - 1 ]
                | x :: xs ->
                    if i = 0 then (k - 1) :: x :: xs
                    else x :: insert (i - 1) xs
              in
              insert pos rest))
        (go (k - 1))
  in
  List.map Array.of_list (go n)

let transposition n i j =
  let p = identity n in
  p.(i) <- j;
  p.(j) <- i;
  p

let full n =
  if n > 8 then
    invalid_arg "Symmetry.full: degree > 8 (too many elements)"
  else if n <= 1 then identity_group n
  else
    {
      kind = Full;
      degree = n;
      elements = all_perms n;
      generators =
        (* adjacent transpositions generate S_n *)
        List.init (n - 1) (fun i -> transposition n i (i + 1));
    }

let is_trivial g = g.kind = Id || g.degree <= 1

let name g =
  if is_trivial g then "id"
  else match g.kind with Id -> "id" | Rot -> "rot" | Full -> "full"

let of_name s ~degree =
  match String.lowercase_ascii s with
  | "off" | "id" | "identity" -> Some (identity_group degree)
  | "rot" | "rotations" | "ring" -> Some (rotations degree)
  | "full" | "sym" -> Some (full degree)
  | _ -> None

let permute_slots p arr =
  let out = Array.make (Array.length arr) arr.(0) in
  Array.iteri (fun i x -> out.(p.(i)) <- x) arr;
  out

type ('s, 'm) spec = {
  group : group;
  map_state : (Node_id.t -> Node_id.t) -> 's -> 's;
  map_message : (Node_id.t -> Node_id.t) -> 'm -> 'm;
}

let with_id_maps group =
  { group; map_state = (fun _ s -> s); map_message = (fun _ m -> m) }

let id_spec ~degree = with_id_maps (identity_group degree)

let permute_global spec p nodes envs =
  let rename = apply p in
  let nodes' =
    permute_slots p (Array.map (spec.map_state rename) nodes)
  in
  let envs' =
    List.map
      (fun (e : _ Envelope.t) ->
        {
          Envelope.src = rename e.Envelope.src;
          dst = rename e.Envelope.dst;
          payload = spec.map_message rename e.Envelope.payload;
        })
      envs
  in
  (nodes', envs')
