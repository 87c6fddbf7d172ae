type event = {
  node : Dsm.Node_id.t;
  label : Dsm.Fingerprint.t;
  requires : Dsm.Fingerprint.t option;
  produces : Dsm.Fingerprint.t list;
}

type sequence = event list

type verdict = Valid of event list | Invalid | Budget_exhausted

(* Multiset of fingerprints as a hash table of counts. *)
module Net = struct
  let create fps =
    let t = Hashtbl.create 64 in
    List.iter
      (fun fp ->
        Hashtbl.replace t fp (1 + Option.value ~default:0 (Hashtbl.find_opt t fp)))
      fps;
    t

  let available t fp =
    match Hashtbl.find_opt t fp with Some c -> c > 0 | None -> false

  let consume t fp =
    match Hashtbl.find_opt t fp with
    | Some c when c > 0 -> Hashtbl.replace t fp (c - 1)
    | _ -> invalid_arg "Soundness.Net.consume: message not available"

  let produce t fp =
    Hashtbl.replace t fp (1 + Option.value ~default:0 (Hashtbl.find_opt t fp))
end

exception Out_of_budget

(* Per-call observability: search-step histograms separate the cheap
   prefilter rejections (0 steps) from the searches that actually
   backtrack, and the verdict counters make "how often does soundness
   save us" a first-class number.  The scope's recorder also gets one
   [ev = "soundness"] record per search, with its effort and outcome.
   Only the DAG search records ([kind] "dag"): [check] is the
   brute-force reference, called by no checker.

   The metric handles are resolved once per run, each on its first
   use: a registry lookup takes a lock, and a metric still appears in
   the registry only once something is recorded into it. *)
type handles = {
  scope : Obs.scope;
  h_steps : Obs.Metrics.histogram Lazy.t;
  c_dag : Obs.Metrics.counter Lazy.t;
  c_valid : Obs.Metrics.counter Lazy.t;
  c_invalid : Obs.Metrics.counter Lazy.t;
  c_exhausted : Obs.Metrics.counter Lazy.t;
}

let handles scope =
  {
    scope;
    h_steps = lazy (Obs.histogram scope "soundness.steps");
    c_dag = lazy (Obs.counter scope "soundness.checks.dag");
    c_valid = lazy (Obs.counter scope "soundness.valid");
    c_invalid = lazy (Obs.counter scope "soundness.invalid");
    c_exhausted = lazy (Obs.counter scope "soundness.budget_exhausted");
  }

let unobserved = handles Obs.null

let record h ~steps verdict =
  if not (Obs.is_null h.scope) then begin
    Obs.Metrics.observe (Lazy.force h.h_steps) steps;
    Obs.Metrics.incr (Lazy.force h.c_dag);
    Obs.Metrics.incr
      (Lazy.force
         (match verdict with
         | Valid _ -> h.c_valid
         | Invalid -> h.c_invalid
         | Budget_exhausted -> h.c_exhausted));
    let tr = Obs.recorder h.scope in
    if Obs.Trace.enabled tr then
      ignore
        (Obs.Trace.emit tr ~ev:"soundness"
           [
             ("kind", Dsm.Json.String "dag");
             ("steps", Dsm.Json.Int steps);
             ( "verdict",
               Dsm.Json.String
                 (match verdict with
                 | Valid _ -> "valid"
                 | Invalid -> "invalid"
                 | Budget_exhausted -> "budget_exhausted") );
             ( "witness_events",
               match verdict with
               | Valid order -> Dsm.Json.Int (List.length order)
               | Invalid | Budget_exhausted -> Dsm.Json.Null );
           ])
  end

(* Necessary condition checked before any search: every consumed
   message must be produced somewhere (by another event or the initial
   net), with multiplicity.  Most invalid combinations of node states
   fail here, in time linear in the number of events. *)
let balanced ~initial_net sequences =
  let counts = Hashtbl.create 64 in
  let bump fp d =
    Hashtbl.replace counts fp (d + Option.value ~default:0 (Hashtbl.find_opt counts fp))
  in
  List.iter (fun fp -> bump fp 1) initial_net;
  Array.iter
    (List.iter (fun ev ->
         List.iter (fun fp -> bump fp 1) ev.produces;
         match ev.requires with Some fp -> bump fp (-1) | None -> ()))
    sequences;
  Hashtbl.fold (fun _ c ok -> ok && c >= 0) counts true

let check ?(budget = 200_000) ~initial_net sequences =
  let n = Array.length sequences in
  let remaining = Array.map (fun s -> s) sequences in
  let net = Net.create initial_net in
  let steps = ref 0 in
  (* Positions identify a configuration: remaining lengths per node
     determine the whole search state (the net is a function of the
     executed prefix).  Failed configurations are memoised. *)
  let failed = Hashtbl.create 256 in
  let config_key () =
    let b = Buffer.create (4 * n) in
    Array.iter (fun s -> Buffer.add_string b (string_of_int (List.length s)); Buffer.add_char b ',') remaining;
    Buffer.contents b
  in
  let enabled ev =
    match ev.requires with None -> true | Some fp -> Net.available net fp
  in
  let apply ev rest i =
    remaining.(i) <- rest;
    (match ev.requires with Some fp -> Net.consume net fp | None -> ());
    List.iter (Net.produce net) ev.produces
  in
  let undo ev seq i =
    List.iter
      (fun fp ->
        match Hashtbl.find_opt net fp with
        | Some c when c > 0 -> Hashtbl.replace net fp (c - 1)
        | _ -> assert false)
      ev.produces;
    (match ev.requires with Some fp -> Net.produce net fp | None -> ());
    remaining.(i) <- seq
  in
  let rec dfs order =
    incr steps;
    if !steps > budget then raise Out_of_budget;
    let all_done = Array.for_all (fun s -> s = []) remaining in
    if all_done then Some (List.rev order)
    else begin
      let key = config_key () in
      if Hashtbl.mem failed key then None
      else begin
        let result = ref None in
        let i = ref 0 in
        while !result = None && !i < n do
          (match remaining.(!i) with
          | ev :: rest when enabled ev ->
              let saved = remaining.(!i) in
              apply ev rest !i;
              (match dfs (ev :: order) with
              | Some _ as ok -> result := ok
              | None -> undo ev saved !i)
          | _ -> ());
          incr i
        done;
        if !result = None then Hashtbl.replace failed key ();
        !result
      end
    end
  in
  if not (balanced ~initial_net sequences) then Invalid
  else
    match dfs [] with
    | Some order -> Valid order
    | None -> Invalid
    | exception Out_of_budget -> Budget_exhausted

type node_graph = {
  root : int;
  target : int;
  edges : (int * event * int) list;
}

(* ----- feasibility summaries ----- *)

module Bits = struct
  (* Little-endian words of [Sys.int_size] bits; a word past the end
     reads as zero, so a set never needs resizing as the message
     universe grows. *)
  type t = int array

  let width = Sys.int_size
  let empty : t = [||]
  let word (a : t) w = if w < Array.length a then Array.unsafe_get a w else 0

  let subset (a : t) (b : t) =
    let rec go w =
      w >= Array.length a || (a.(w) land lnot (word b w) = 0 && go (w + 1))
    in
    go 0

  let equal a b = subset a b && subset b a

  let add i (a : t) =
    let w = i / width and bit = 1 lsl (i mod width) in
    if word a w land bit <> 0 then a
    else begin
      let r = Array.make (max (Array.length a) (w + 1)) 0 in
      Array.blit a 0 r 0 (Array.length a);
      r.(w) <- r.(w) lor bit;
      r
    end

  (* [union]/[inter] return an argument unchanged when it already is
     the answer, so a converged fixpoint pass allocates nothing. *)
  let union a b =
    if subset b a then a
    else if subset a b then b
    else
      Array.init (max (Array.length a) (Array.length b)) (fun w ->
          word a w lor word b w)

  let inter a b =
    if subset a b then a
    else if subset b a then b
    else
      Array.init (min (Array.length a) (Array.length b)) (fun w ->
          a.(w) land b.(w))

  let mem i (a : t) = word a (i / width) land (1 lsl (i mod width)) <> 0
  let words = Array.length
  let of_list l = List.fold_left (fun a i -> add i a) empty l

  let elements (a : t) =
    let acc = ref [] in
    for i = (Array.length a * width) - 1 downto 0 do
      if a.(i / width) land (1 lsl (i mod width)) <> 0 then acc := i :: !acc
    done;
    !acc
end

type summary = { must : Bits.t option; prod : Bits.t }
type edge = { src : int; req : int; made : Bits.t }

let unreachable = { must = None; prod = Bits.empty }

(* must(v): the messages consumed on every root->v path, as the
   meet-over-paths dataflow fixpoint — root = {}, every other vertex =
   the intersection over its incoming edges u->v of must(u) + {req},
   iterated down from "unreachable" (top).  The transfer distributes
   over intersection, so the fixpoint is the meet over all paths, and
   a path with a cycle consumes a superset of the cycle-free path
   inside it: the meet over simple paths.  prod(v) is the union of the
   productions of every edge into v's backward closure, iterated up
   from {}.  Gauss-Seidel sweeps in index order converge in a couple
   of passes when predecessors mostly carry smaller indices. *)
let summarise ~root ~pinned incoming =
  let n = Array.length incoming in
  let s =
    Array.init n (fun v ->
        match pinned.(v) with
        | Some x -> x
        | None when v = root -> { must = Some Bits.empty; prod = Bits.empty }
        | None -> unreachable)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for v = 0 to n - 1 do
      if pinned.(v) = None then begin
        let old = s.(v) in
        let must, prod =
          List.fold_left
            (fun (must, prod) e ->
              let u = s.(e.src) in
              let must =
                match u.must with
                | None -> must
                | Some m -> (
                    let m = if e.req >= 0 then Bits.add e.req m else m in
                    match must with
                    | None -> Some m
                    | Some acc -> Some (Bits.inter acc m))
              in
              (must, Bits.union prod (Bits.union u.prod e.made)))
            ((if v = root then Some Bits.empty else None), old.prod)
            incoming.(v)
        in
        let same_must =
          match (must, old.must) with
          | None, None -> true
          | Some a, Some b -> Bits.equal a b
          | _ -> false
        in
        if not (same_must && Bits.equal prod old.prod) then begin
          s.(v) <- { must; prod };
          changed := true
        end
      end
    done
  done;
  s

type infeasible = Unreachable of int | Missing of int * int

(* The tuple-level necessary condition: every component's target is
   reachable, and every message it must consume is produced by some
   edge of some component's closure or by the initial net. *)
let screen ~initial sums =
  let n = Array.length sums in
  let may w =
    let x = ref (Bits.word initial w) in
    for i = 0 to n - 1 do
      x := !x lor Bits.word sums.(i).prod w
    done;
    !x
  in
  let rec component i =
    if i = n then None
    else
      match sums.(i).must with
      | None -> Some (Unreachable i)
      | Some must ->
          let rec words w =
            if w = Array.length must then component (i + 1)
            else
              let missing = must.(w) land lnot (may w) in
              if missing = 0 then words (w + 1)
              else
                let rec low b =
                  if missing land (1 lsl b) <> 0 then b else low (b + 1)
                in
                Some (Missing (i, (w * Bits.width) + low 0))
          in
          words 0
  in
  component 0

(* The dense id of [x] in [tbl], the next free one on first sight. *)
let dense tbl x =
  match Hashtbl.find_opt tbl x with
  | Some i -> i
  | None ->
      let i = Hashtbl.length tbl in
      Hashtbl.add tbl x i;
      i

(* The same screen over explicit graphs: vertices and messages are
   numbered densely, then each target is summarised by [summarise]. *)
let feasible ~initial_net graphs =
  let msgs = Hashtbl.create 64 in
  let target_summary g =
    let ids = Hashtbl.create 64 in
    let root = dense ids g.root and target = dense ids g.target in
    let edges =
      List.map
        (fun (u, ev, v) ->
          ( dense ids v,
            {
              src = dense ids u;
              req = Option.fold ~none:(-1) ~some:(dense msgs) ev.requires;
              made = Bits.of_list (List.map (dense msgs) ev.produces);
            } ))
        g.edges
    in
    let incoming = Array.make (Hashtbl.length ids) [] in
    List.iter (fun (v, e) -> incoming.(v) <- e :: incoming.(v)) edges;
    let pinned = Array.make (Array.length incoming) None in
    (summarise ~root ~pinned incoming).(target)
  in
  let sums = Array.map target_summary graphs in
  let initial = Bits.of_list (List.map (dense msgs) initial_net) in
  screen ~initial sums = None

(* A call the cached screen rejected records what [check_dag] records
   when [feasible] rejects: a 0-step dag search with verdict Invalid. *)
let record_infeasible h = record h ~steps:0 Invalid

let check_dag ?(handles = unobserved) ?(budget = 200_000) ~initial_net graphs =
  let n = Array.length graphs in
  (* Adjacency: per node, state index -> outgoing (event, next). *)
  let adj =
    Array.map
      (fun g ->
        let t = Hashtbl.create 64 in
        List.iter
          (fun (from_, ev, to_) ->
            Hashtbl.replace t from_
              ((ev, to_)
              :: Option.value ~default:[] (Hashtbl.find_opt t from_)))
          g.edges;
        t)
      graphs
  in
  let positions = Array.map (fun g -> g.root) graphs in
  let net = Net.create initial_net in
  let steps = ref 0 in
  let failed = Hashtbl.create 256 in
  (* Self-edges and cycles allow walks that return to an earlier
     configuration before it is memoised as failed; an on-path set cuts
     them. *)
  let on_path = Hashtbl.create 64 in
  let config_key () =
    let b = Buffer.create 64 in
    Array.iter
      (fun p ->
        Buffer.add_string b (string_of_int p);
        Buffer.add_char b ',')
      positions;
    (* The net is NOT a function of positions in a DAG (different paths
       to the same vertex produce different message multisets), so it
       is part of the memo key — in canonical order. *)
    let entries =
      Hashtbl.fold (fun fp c acc -> if c > 0 then (fp, c) :: acc else acc) net []
    in
    List.iter
      (fun (fp, c) -> Buffer.add_string b (Printf.sprintf "%s:%d;" fp c))
      (List.sort compare entries);
    Digest.string (Buffer.contents b)
  in
  let enabled ev =
    match ev.requires with None -> true | Some fp -> Net.available net fp
  in
  let apply ev =
    (match ev.requires with Some fp -> Net.consume net fp | None -> ());
    List.iter (Net.produce net) ev.produces
  in
  let undo ev =
    List.iter
      (fun fp ->
        match Hashtbl.find_opt net fp with
        | Some c when c > 0 -> Hashtbl.replace net fp (c - 1)
        | _ -> assert false)
      ev.produces;
    match ev.requires with Some fp -> Net.produce net fp | None -> ()
  in
  (* Returns (result, clean): [clean] is false when the subtree was cut
     by the on-path guard somewhere, in which case the failure must not
     be cached — the same configuration reached along another path
     could still succeed. *)
  let rec dfs order =
    incr steps;
    if !steps > budget then raise Out_of_budget;
    let rec arrived i =
      i >= n || (positions.(i) = graphs.(i).target && arrived (i + 1))
    in
    if arrived 0 then (Some (List.rev order), true)
    else begin
      let key = config_key () in
      if Hashtbl.mem failed key then (None, true)
      else if Hashtbl.mem on_path key then (None, false)
      else begin
        Hashtbl.replace on_path key ();
        let result = ref None in
        let clean = ref true in
        let i = ref 0 in
        while !result = None && !i < n do
          let here = positions.(!i) in
          let moves =
            Option.value ~default:[] (Hashtbl.find_opt adj.(!i) here)
          in
          (* a self-edge whose net effect is neutral is a no-op move *)
          let neutral (ev, next) =
            next = here
            &&
            match ev.requires with
            | None -> ev.produces = []
            | Some r -> ev.produces = [ r ]
          in
          let rec try_moves = function
            | [] -> ()
            | ((ev, next) as move) :: rest ->
                if !result = None && (not (neutral move)) && enabled ev
                then begin
                  positions.(!i) <- next;
                  apply ev;
                  (match dfs (ev :: order) with
                  | (Some _ as ok), _ -> result := ok
                  | None, sub_clean ->
                      if not sub_clean then clean := false;
                      undo ev;
                      positions.(!i) <- here);
                  if !result = None then try_moves rest
                end
                else if !result = None then try_moves rest
          in
          try_moves moves;
          incr i
        done;
        Hashtbl.remove on_path key;
        if !result = None && !clean then Hashtbl.replace failed key ();
        (!result, !clean)
      end
    end
  in
  let verdict =
    if not (feasible ~initial_net graphs) then Invalid
    else
      match dfs [] with
      | Some order, _ -> Valid order
      | None, _ -> Invalid
      | exception Out_of_budget -> Budget_exhausted
  in
  record handles ~steps:!steps verdict;
  verdict
