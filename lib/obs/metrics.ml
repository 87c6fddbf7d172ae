type counter = { c_name : string; c_cell : int Atomic.t }

type gauge = { g_name : string; g_cell : float Atomic.t }

(* Log-scale (base-2) histogram: bucket 0 holds non-positive values,
   bucket i (i >= 1) holds [2^(i-1), 2^i).  63 buckets cover the whole
   non-negative [int] range on a 64-bit platform.  Every cell is an
   [Atomic.t], so concurrent observations from several domains merge
   without locking. *)
type histogram = {
  h_name : string;
  h_buckets : int Atomic.t array;
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
  h_max : int Atomic.t;
}

type histogram_snapshot = {
  count : int;
  sum : int;
  max : int;
  buckets : (int * int * int) list;  (** (lo, hi, count), non-empty only *)
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = { lock : Mutex.t; tbl : (string, metric) Hashtbl.t }

let create () = { lock = Mutex.create (); tbl = Hashtbl.create 32 }

let num_buckets = 63

let bucket_index v =
  if v <= 0 then 0
  else begin
    let i = ref 0 and v = ref v in
    while !v > 0 do
      incr i;
      v := !v lsr 1
    done;
    min !i (num_buckets - 1)
  end

(* Inclusive value range of bucket [i]; bucket 0 is reported as [0, 0]
   even though it also absorbs negative observations. *)
let bucket_bounds i =
  if i <= 0 then (0, 0) else (1 lsl (i - 1), (1 lsl i) - 1)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let get_or_create t name build use =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some m -> use m
      | None ->
          let m = build () in
          Hashtbl.replace t.tbl name m;
          use m)

let type_mismatch name =
  invalid_arg
    (Printf.sprintf "Obs.Metrics: %S already registered with another type"
       name)

let counter t name =
  get_or_create t name
    (fun () -> Counter { c_name = name; c_cell = Atomic.make 0 })
    (function Counter c -> c | _ -> type_mismatch name)

let gauge t name =
  get_or_create t name
    (fun () -> Gauge { g_name = name; g_cell = Atomic.make 0. })
    (function Gauge g -> g | _ -> type_mismatch name)

let histogram t name =
  get_or_create t name
    (fun () ->
      Histogram
        {
          h_name = name;
          h_buckets = Array.init num_buckets (fun _ -> Atomic.make 0);
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0;
          h_max = Atomic.make 0;
        })
    (function Histogram h -> h | _ -> type_mismatch name)

let incr c = Atomic.incr c.c_cell

let add c n = ignore (Atomic.fetch_and_add c.c_cell n)

let value c = Atomic.get c.c_cell

let set g v = Atomic.set g.g_cell v

let gauge_value g = Atomic.get g.g_cell

let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then
    atomic_max cell v

let observe_n h v n =
  if n > 0 then begin
    ignore (Atomic.fetch_and_add h.h_buckets.(bucket_index v) n);
    ignore (Atomic.fetch_and_add h.h_count n);
    ignore (Atomic.fetch_and_add h.h_sum (n * max v 0));
    atomic_max h.h_max v
  end

let observe h v =
  ignore (Atomic.fetch_and_add h.h_buckets.(bucket_index v) 1);
  ignore (Atomic.fetch_and_add h.h_count 1);
  ignore (Atomic.fetch_and_add h.h_sum (max v 0));
  atomic_max h.h_max v

let histogram_snapshot h =
  let buckets = ref [] in
  for i = num_buckets - 1 downto 0 do
    let n = Atomic.get h.h_buckets.(i) in
    if n > 0 then
      let lo, hi = bucket_bounds i in
      buckets := (lo, hi, n) :: !buckets
  done;
  {
    count = Atomic.get h.h_count;
    sum = Atomic.get h.h_sum;
    max = Atomic.get h.h_max;
    buckets = !buckets;
  }

(* Estimate the [q]-quantile from the bucket counts.  The estimate is
   the upper bound of the bucket holding the rank-[ceil(q*count)]
   observation, clamped by the observed max (the last bucket absorbs
   everything above its lower bound, so its nominal [hi] can be far
   beyond anything seen). *)
let quantile (s : histogram_snapshot) q =
  if s.count <= 0 then None
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int s.count))) in
    let rec walk cum = function
      | [] -> Some s.max
      | (_, hi, n) :: rest ->
          let cum = cum + n in
          if cum >= rank then Some (min hi s.max) else walk cum rest
    in
    walk 0 s.buckets
  end

type view =
  | Counter_view of string * int
  | Gauge_view of string * float
  | Histogram_view of string * histogram_snapshot

(* One consistent, name-sorted pass over the registry under the
   registration mutex — safe to call from a scraping thread while the
   run keeps registering metrics. *)
let snapshot_all t =
  let metrics =
    locked t (fun () ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.tbl [])
  in
  let metrics =
    List.sort (fun (a, _) (b, _) -> String.compare a b) metrics
  in
  List.map
    (fun (_, m) ->
      match m with
      | Counter c -> Counter_view (c.c_name, value c)
      | Gauge g -> Gauge_view (g.g_name, gauge_value g)
      | Histogram h -> Histogram_view (h.h_name, histogram_snapshot h))
    metrics

let metric_to_json = function
  | Counter c ->
      Dsm.Json.Obj
        [
          ("metric", Dsm.Json.String c.c_name);
          ("type", Dsm.Json.String "counter");
          ("value", Dsm.Json.Int (value c));
        ]
  | Gauge g ->
      Dsm.Json.Obj
        [
          ("metric", Dsm.Json.String g.g_name);
          ("type", Dsm.Json.String "gauge");
          ("value", Dsm.Json.Float (gauge_value g));
        ]
  | Histogram h ->
      let s = histogram_snapshot h in
      Dsm.Json.Obj
        [
          ("metric", Dsm.Json.String h.h_name);
          ("type", Dsm.Json.String "histogram");
          ("count", Dsm.Json.Int s.count);
          ("sum", Dsm.Json.Int s.sum);
          ("max", Dsm.Json.Int s.max);
          ( "buckets",
            Dsm.Json.List
              (List.map
                 (fun (lo, hi, n) ->
                   Dsm.Json.List
                     [ Dsm.Json.Int lo; Dsm.Json.Int hi; Dsm.Json.Int n ])
                 s.buckets) );
        ]

let to_json_lines t =
  let metrics =
    locked t (fun () ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.tbl [])
  in
  let metrics =
    List.sort (fun (a, _) (b, _) -> String.compare a b) metrics
  in
  List.map (fun (_, m) -> metric_to_json m) metrics

let find_counter t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Counter c) -> Some c
      | _ -> None)

let find_gauge t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Gauge g) -> Some g
      | _ -> None)

let find_histogram t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Histogram h) -> Some h
      | _ -> None)
