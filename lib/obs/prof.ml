(* Sampling wall-clock profiler over an explicit frame stack.

   Checkers push/pop named frames around their phases ("lmc",
   "combination", "soundness") and around each applied transition
   ("deliver:Accept", "action:Propose"); [tick] is called from the
   same per-transition path as the progress heartbeat.  Every
   [sample_mask + 1]-th tick — and at every slow-frame boundary — the
   clock is read once and the time since the previous reading is
   attributed to the collapsed stack current at that moment.  The
   result is a statistical flamegraph with exact phase boundaries:
   hot frames cost one branch + one store per push, slow frames pin
   their entry/exit so neighbouring phases never bleed into each
   other.

   Single-domain by design: ticks and frames come from the sequential
   exploration loop only (the same discipline as the flight recorder),
   which is also what keeps telemetry off the determinism contract. *)

type cell = { mutable us : int; mutable samples : int }

type t = {
  mutable stack : string array;
  mutable depth : int;
  tbl : (string, cell) Hashtbl.t;
  mutable tick_count : int;
  sample_mask : int;
  clock0 : float;
  mutable last_us : int;
  (* Collapsed key of the current stack, invalidated by push/pop.
     Most boundaries fire between stack changes (deep inside
     combination loops), so the join is usually amortised away. *)
  mutable key_cache : string;
}

let now_us t = int_of_float (1e6 *. (Unix.gettimeofday () -. t.clock0))

(* Round up to a power of two so the gate stays a single [land]. *)
let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let create ?(sample_every = 256) () =
  let t =
    {
      stack = Array.make 16 "";
      depth = 0;
      tbl = Hashtbl.create 64;
      tick_count = 0;
      sample_mask = pow2 (max 1 sample_every) 1 - 1;
      clock0 = Unix.gettimeofday ();
      last_us = 0;
      key_cache = "(idle)";
    }
  in
  t.last_us <- now_us t;
  t

let rebuild_key t =
  let key =
    if t.depth = 0 then "(idle)"
    else begin
      let b = Buffer.create 64 in
      for i = 0 to t.depth - 1 do
        if i > 0 then Buffer.add_char b ';';
        Buffer.add_string b t.stack.(i)
      done;
      Buffer.contents b
    end
  in
  t.key_cache <- key;
  key

(* A real key is never the empty string ("(idle)" stands in for an
   empty stack), so "" doubles as the invalidation sentinel. *)
let stack_key t =
  if String.length t.key_cache = 0 then rebuild_key t else t.key_cache

(* Read the clock and attribute the elapsed interval to the current
   stack.  Called at the sampling gate and at slow-frame boundaries. *)
let boundary t =
  let u = now_us t in
  let dt = u - t.last_us in
  t.last_us <- u;
  if dt > 0 then begin
    let key = stack_key t in
    let cell =
      match Hashtbl.find_opt t.tbl key with
      | Some c -> c
      | None ->
          let c = { us = 0; samples = 0 } in
          Hashtbl.add t.tbl key c;
          c
    in
    cell.us <- cell.us + dt;
    cell.samples <- cell.samples + 1
  end

let tick t =
  t.tick_count <- t.tick_count + 1;
  if t.tick_count land t.sample_mask = 0 then boundary t

let push t name =
  if t.depth >= Array.length t.stack then begin
    let bigger = Array.make (2 * Array.length t.stack) "" in
    Array.blit t.stack 0 bigger 0 t.depth;
    t.stack <- bigger
  end;
  t.stack.(t.depth) <- name;
  t.depth <- t.depth + 1;
  t.key_cache <- ""

let pop t =
  if t.depth > 0 then begin
    t.depth <- t.depth - 1;
    t.key_cache <- ""
  end

let enter t name =
  boundary t;
  push t name

let leave t =
  boundary t;
  pop t

type entry = { stack : string list; total_us : int; samples : int }

let snapshot t =
  boundary t;
  let entries =
    Hashtbl.fold
      (fun key c acc ->
        { stack = String.split_on_char ';' key; total_us = c.us;
          samples = c.samples }
        :: acc)
      t.tbl []
  in
  List.sort (fun a b -> compare b.total_us a.total_us) entries

let total_us t =
  Hashtbl.fold (fun _ c acc -> acc + c.us) t.tbl 0

(* Collapsed-stack flamegraph text: "frame;frame count" per line, the
   input format of flamegraph.pl / inferno / speedscope import. *)
let write_collapsed t path =
  let entries = snapshot t in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun e ->
          output_string oc (String.concat ";" e.stack);
          Printf.fprintf oc " %d\n" e.total_us)
        entries)

(* speedscope "sampled" profile: one sample per distinct stack,
   weighted by its attributed microseconds. *)
let speedscope_json t ~name =
  let entries = snapshot t in
  let frames = Hashtbl.create 64 in
  let frame_order = ref [] in
  let frame_index f =
    match Hashtbl.find_opt frames f with
    | Some i -> i
    | None ->
        let i = Hashtbl.length frames in
        Hashtbl.add frames f i;
        frame_order := f :: !frame_order;
        i
  in
  let samples =
    List.map
      (fun e ->
        Dsm.Json.List
          (List.map (fun f -> Dsm.Json.Int (frame_index f)) e.stack))
      entries
  in
  let weights =
    List.map (fun e -> Dsm.Json.Int e.total_us) entries
  in
  let total = List.fold_left (fun a e -> a + e.total_us) 0 entries in
  Dsm.Json.Obj
    [
      ( "$schema",
        Dsm.Json.String "https://www.speedscope.app/file-format-schema.json"
      );
      ( "shared",
        Dsm.Json.Obj
          [
            ( "frames",
              Dsm.Json.List
                (List.rev_map
                   (fun f -> Dsm.Json.Obj [ ("name", Dsm.Json.String f) ])
                   !frame_order) );
          ] );
      ( "profiles",
        Dsm.Json.List
          [
            Dsm.Json.Obj
              [
                ("type", Dsm.Json.String "sampled");
                ("name", Dsm.Json.String name);
                ("unit", Dsm.Json.String "microseconds");
                ("startValue", Dsm.Json.Int 0);
                ("endValue", Dsm.Json.Int total);
                ("samples", Dsm.Json.List samples);
                ("weights", Dsm.Json.List weights);
              ];
          ] );
      ("exporter", Dsm.Json.String "lmc-prof");
      ("name", Dsm.Json.String name);
    ]

let write_speedscope t ~name path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Dsm.Json.to_string (speedscope_json t ~name));
      output_char oc '\n')

(* profile.v1 JSONL: a [prof_run] header, one [stack] record per
   distinct collapsed stack (hottest first), its own strictly
   increasing [seq] space — interleavable with trace.v1 in one
   recording file. *)
let schema = "profile.v1"

let jsonl_records t =
  let entries = snapshot t in
  let seq = ref (-1) in
  let record ev fields =
    incr seq;
    Dsm.Json.Obj
      (("schema", Dsm.Json.String schema)
      :: ("seq", Dsm.Json.Int !seq)
      :: ("ev", Dsm.Json.String ev)
      :: fields)
  in
  let header =
    record "prof_run"
      [
        ("clock_us", Dsm.Json.Int (total_us t));
        ("stacks", Dsm.Json.Int (List.length entries));
        ("sample_every", Dsm.Json.Int (t.sample_mask + 1));
      ]
  in
  header
  :: List.map
       (fun e ->
         record "stack"
           [
             ( "stack",
               Dsm.Json.List
                 (List.map (fun f -> Dsm.Json.String f) e.stack) );
             ("us", Dsm.Json.Int e.total_us);
             ("samples", Dsm.Json.Int e.samples);
           ])
       entries

let append_jsonl t path =
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun json ->
          output_string oc (Dsm.Json.to_string json);
          output_char oc '\n')
        (jsonl_records t))
