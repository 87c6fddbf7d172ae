let schema = "trace.v1"

(* ----- hex transport encoding -----

   Witness records carry marshalled protocol values (states, message
   payloads, actions); hex keeps them printable inside JSON strings
   without escaping surprises. *)

let hex_of_string s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let string_of_hex h =
  let n = String.length h in
  if n mod 2 <> 0 then Error "odd-length hex string"
  else
    let digit c =
      match c with
      | '0' .. '9' -> Ok (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Ok (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Ok (Char.code c - Char.code 'A' + 10)
      | _ -> Error (Printf.sprintf "invalid hex digit %C" c)
    in
    let b = Bytes.create (n / 2) in
    let rec fill i =
      if i >= n / 2 then Ok (Bytes.to_string b)
      else
        match (digit h.[2 * i], digit h.[(2 * i) + 1]) with
        | Ok hi, Ok lo ->
            Bytes.set b i (Char.chr ((hi lsl 4) lor lo));
            fill (i + 1)
        | Error e, _ | _, Error e -> Error e
    in
    fill 0

(* ----- the typed step record -----

   One record per explored transition.  Fingerprints travel as full
   hex; [consumed] names the message the handler consumed together
   with the [seq] of the step that first injected it into I+ (-1 when
   it predates the recording, e.g. an initial in-flight message). *)

type step_kind = Deliver | Action | Crash

type step = {
  node : int;
  kind : step_kind;
  src : int;  (* sender for deliveries; -1 for internal actions *)
  label : string;
  fp_before : string;
  fp_after : string;
  consumed : (string * int) option;  (* (message fp, injected_by seq) *)
  produced : string list;
  depth : int;
  dom : int;
}

let kind_to_string = function
  | Deliver -> "deliver"
  | Action -> "action"
  | Crash -> "crash"

let kind_of_string = function
  | "deliver" -> Ok Deliver
  | "action" -> Ok Action
  | "crash" -> Ok Crash
  | s -> Error (Printf.sprintf "unknown step kind %S" s)

let step_fields (s : step) =
  [
    ("node", Dsm.Json.Int s.node);
    ("kind", Dsm.Json.String (kind_to_string s.kind));
    ("src", Dsm.Json.Int s.src);
    ("label", Dsm.Json.String s.label);
    ("fp_before", Dsm.Json.String s.fp_before);
    ("fp_after", Dsm.Json.String s.fp_after);
    ( "consumed",
      match s.consumed with
      | None -> Dsm.Json.Null
      | Some (fp, by) ->
          Dsm.Json.Obj
            [ ("fp", Dsm.Json.String fp); ("injected_by", Dsm.Json.Int by) ]
    );
    ( "produced",
      Dsm.Json.List (List.map (fun fp -> Dsm.Json.String fp) s.produced) );
    ("depth", Dsm.Json.Int s.depth);
    ("dom", Dsm.Json.Int s.dom);
  ]

let step_to_json s = Dsm.Json.Obj (step_fields s)

let field name fields =
  match List.assoc_opt name fields with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_int name = function
  | Dsm.Json.Int i -> Ok i
  | _ -> Error (Printf.sprintf "field %S: expected int" name)

let as_string name = function
  | Dsm.Json.String s -> Ok s
  | _ -> Error (Printf.sprintf "field %S: expected string" name)

let ( let* ) = Result.bind

let int_field fields name =
  let* v = field name fields in
  as_int name v

let string_field fields name =
  let* v = field name fields in
  as_string name v

let step_of_json = function
  | Dsm.Json.Obj fields ->
      let* node = int_field fields "node" in
      let* kind_s = string_field fields "kind" in
      let* kind = kind_of_string kind_s in
      let* src = int_field fields "src" in
      let* label = string_field fields "label" in
      let* fp_before = string_field fields "fp_before" in
      let* fp_after = string_field fields "fp_after" in
      let* consumed =
        match List.assoc_opt "consumed" fields with
        | None | Some Dsm.Json.Null -> Ok None
        | Some (Dsm.Json.Obj c) ->
            let* fp = string_field c "fp" in
            let* by = int_field c "injected_by" in
            Ok (Some (fp, by))
        | Some _ -> Error "field \"consumed\": expected object or null"
      in
      let* produced =
        let* v = field "produced" fields in
        match v with
        | Dsm.Json.List items ->
            List.fold_left
              (fun acc item ->
                let* acc = acc in
                let* fp = as_string "produced" item in
                Ok (fp :: acc))
              (Ok []) items
            |> Result.map List.rev
        | _ -> Error "field \"produced\": expected list"
      in
      let* depth = int_field fields "depth" in
      let* dom = int_field fields "dom" in
      Ok { node; kind; src; label; fp_before; fp_after; consumed;
           produced; depth; dom }
  | _ -> Error "step: expected object"

(* ----- the recorder ----- *)

(* Ring entries keep the caller's field thunk unforced: the hot path
   stores four words and the expensive work — label formatting, hex
   conversion, JSON rendering — happens at {!close}, at most
   [capacity] times no matter how long the run was. *)
type rentry = {
  r_ts : float;
  r_seq : int;
  r_ev : string;
  r_fields : unit -> (string * Dsm.Json.t) list;
}

type mode =
  | Stream of {
      sink : Sink.t;
      raw : (Buffer.t -> unit) option;
          (* the sink's raw byte writer (jsonl sinks): step records —
             the overwhelming bulk of a trace — are serialised by
             {!write_step_into} instead of the generic Json walker *)
      buf : Buffer.t;
          (* batch of serialised lines awaiting [raw], guarded by
             [t.lock].  Drained before any record takes the generic
             [Sink.emit] path, so file order always equals seq order. *)
    }
  | Ring of {
      oc : out_channel;  (* opened eagerly so bad paths fail up front *)
      mutable header : rentry option;
          (* the stream's leading [run] record, kept outside the ring
             so a recording that overflows still says what it replays *)
      buf : rentry option array;
      mutable total : int;  (* records that entered the ring *)
    }

type t = {
  mode : mode option;  (* [None] only for {!null} *)
  lock : Mutex.t;
  mutable seq : int;
  clock0 : float;
  mutable closed : bool;
}

let make mode =
  {
    mode;
    lock = Mutex.create ();
    seq = 0;
    clock0 = Unix.gettimeofday ();
    closed = false;
  }

let null = make None

let enabled t = t.mode <> None

let of_sink sink =
  make
    (Some
       (Stream
          {
            sink;
            raw = Sink.raw sink;
            buf = Buffer.create 512;
          }))

let to_file path = of_sink (Sink.jsonl_file path)

let sink t =
  match t.mode with
  | Some (Stream { sink; _ }) -> Some sink
  | Some (Ring _) | None -> None

let default_ring_capacity = 65_536

let ring ?(capacity = default_ring_capacity) path =
  if capacity < 1 then invalid_arg "Obs.Trace.ring: capacity must be >= 1";
  make
    (Some
       (Ring
          {
            oc = open_out path;
            header = None;
            buf = Array.make capacity None;
            total = 0;
          }))

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Serialised step lines accumulate in the stream batch buffer and hit
   the channel in ~32 KiB writes: the per-record cost is a few
   [Buffer] appends, and the sink lock plus channel write are paid
   once per batch. *)
let batch_bytes = 32_768

(* Caller holds [t.lock]. *)
let drain_batch ~write ~buf = if Buffer.length buf > 0 then begin
    write buf;
    Buffer.clear buf
  end

(* Every record carries the schema tag, a monotonically increasing
   [seq] (the file-order identity other records reference) and its
   record kind [ev]; the sequence number is returned so callers can
   index provenance tables by it. *)
let emit_lazy t ~ev fields =
  match t.mode with
  | None -> -1
  | Some (Ring r) ->
      (* The always-on path: no [Fun.protect] (nothing below can
         raise — the thunk stays unforced) and no per-record field
         consing; four words land in the ring and the caller is back
         on the apply loop. *)
      Mutex.lock t.lock;
      let seq = t.seq in
      t.seq <- seq + 1;
      let e =
        Some
          {
            r_ts = Unix.gettimeofday () -. t.clock0;
            r_seq = seq;
            r_ev = ev;
            r_fields = fields;
          }
      in
      if seq = 0 && ev = "run" then r.header <- e
      else begin
        r.buf.(r.total mod Array.length r.buf) <- e;
        r.total <- r.total + 1
      end;
      Mutex.unlock t.lock;
      seq
  | Some (Stream { sink; raw; buf }) ->
      with_lock t (fun () ->
          (match raw with
          | Some write -> drain_batch ~write ~buf
          | None -> ());
          let seq = t.seq in
          t.seq <- seq + 1;
          Sink.emit sink
            {
              Sink.ts = Unix.gettimeofday () -. t.clock0;
              name = "trace";
              fields =
                ("schema", Dsm.Json.String schema)
                :: ("seq", Dsm.Json.Int seq)
                :: ("ev", Dsm.Json.String ev)
                :: fields ();
            };
          seq)

let emit t ~ev fields = emit_lazy t ~ev (fun () -> fields)

(* Serialise one step record straight into [b] — the same fields in
   the same order as the generic path ({!Sink.event_to_json} over
   {!step_fields}), without building the tree.  The only textual
   difference is [ts], rendered as fixed-point microseconds instead of
   %.12g — same information (the clock has microsecond resolution),
   a quarter of the cost.  Steps are the overwhelming bulk of a trace,
   and the generic walker is the single most expensive part of
   file-sink recording. *)
(* Digits straight into the buffer — [string_of_int] allocates, and a
   step record carries six integers. *)
let rec add_uint b v =
  if v >= 10 then add_uint b (v / 10);
  Buffer.add_char b (Char.chr (Char.code '0' + (v mod 10)))

let add_int b v =
  if v < 0 then begin
    Buffer.add_char b '-';
    add_uint b (-v)
  end
  else add_uint b v

(* Fingerprints are lowercase hex by construction (see the [step]
   doc), so they can skip the escape scan entirely. *)
let add_hex_field b s =
  Buffer.add_char b '"';
  Buffer.add_string b s;
  Buffer.add_char b '"'

(* Seconds with exactly six decimals: "3.022337".  [string_of_float]
   runs the C printf machinery and allocates; this is digit pushes. *)
let add_ts b ts =
  let us = int_of_float ((ts *. 1e6) +. 0.5) in
  add_uint b (us / 1_000_000);
  Buffer.add_char b '.';
  let frac = us mod 1_000_000 in
  let d = ref 100_000 in
  while !d > 0 do
    Buffer.add_char b (Char.chr (Char.code '0' + (frac / !d mod 10)));
    d := !d / 10
  done

let write_step_into b ~ts ~seq (s : step) =
  let str = add_hex_field b in
  let int v = add_int b v in
  Buffer.add_string b "{\"ts\":";
  add_ts b ts;
  Buffer.add_string b ",\"event\":\"trace\",\"schema\":\"";
  Buffer.add_string b schema;
  Buffer.add_string b "\",\"seq\":";
  int seq;
  Buffer.add_string b ",\"ev\":\"step\",\"node\":";
  int s.node;
  Buffer.add_string b ",\"kind\":";
  str (kind_to_string s.kind);
  Buffer.add_string b ",\"src\":";
  int s.src;
  Buffer.add_string b ",\"label\":";
  Dsm.Json.emit_into b (Dsm.Json.String s.label);
  Buffer.add_string b ",\"fp_before\":";
  str s.fp_before;
  Buffer.add_string b ",\"fp_after\":";
  str s.fp_after;
  Buffer.add_string b ",\"consumed\":";
  (match s.consumed with
  | None -> Buffer.add_string b "null"
  | Some (fp, by) ->
      Buffer.add_string b "{\"fp\":";
      str fp;
      Buffer.add_string b ",\"injected_by\":";
      int by);
  (match s.consumed with Some _ -> Buffer.add_char b '}' | None -> ());
  Buffer.add_string b ",\"produced\":[";
  List.iteri
    (fun i fp ->
      if i > 0 then Buffer.add_char b ',';
      str fp)
    s.produced;
  Buffer.add_string b "],\"depth\":";
  int s.depth;
  Buffer.add_string b ",\"dom\":";
  int s.dom;
  Buffer.add_char b '}'

let record_step_lazy t s =
  match t.mode with
  | Some (Stream { raw = Some write; buf; _ }) ->
      (* Force the thunk before taking the lock: label rendering goes
         through user [pp] functions that may raise, while everything
         under the lock is Buffer pushes and (on batch boundaries) the
         sink write — so no [Fun.protect] on this path. *)
      let st = s () in
      let ts = Unix.gettimeofday () -. t.clock0 in
      Mutex.lock t.lock;
      let seq = t.seq in
      t.seq <- seq + 1;
      write_step_into buf ~ts ~seq st;
      Buffer.add_char buf '\n';
      if Buffer.length buf >= batch_bytes then drain_batch ~write ~buf;
      Mutex.unlock t.lock;
      seq
  | _ -> emit_lazy t ~ev:"step" (fun () -> step_fields (s ()))

let record_step t (s : step) = record_step_lazy t (fun () -> s)

let flush t =
  match t.mode with
  | Some (Stream { sink; raw; buf }) ->
      with_lock t (fun () ->
          match raw with
          | Some write -> drain_batch ~write ~buf
          | None -> ());
      Sink.flush sink
  | Some (Ring _) | None -> ()

let write_event oc e =
  output_string oc (Dsm.Json.to_string (Sink.event_to_json e));
  output_char oc '\n'

let close t =
  match t.mode with
  | None -> ()
  | Some mode ->
      with_lock t (fun () ->
          if not t.closed then begin
            t.closed <- true;
            match mode with
            | Stream { sink; raw; buf } ->
                (match raw with
                | Some write -> drain_batch ~write ~buf
                | None -> ());
                Sink.close sink
            | Ring r ->
                (* Dump the run header, then the ring oldest-first; a
                   trailing meta record says how many early records the
                   ring overwrote, so consumers know the head is missing
                   rather than malformed. *)
                let cap = Array.length r.buf in
                let dropped = max 0 (r.total - cap) in
                let write = function
                  | Some e ->
                      write_event r.oc
                        {
                          Sink.ts = e.r_ts;
                          name = "trace";
                          fields =
                            ("schema", Dsm.Json.String schema)
                            :: ("seq", Dsm.Json.Int e.r_seq)
                            :: ("ev", Dsm.Json.String e.r_ev)
                            :: e.r_fields ();
                        }
                  | None -> assert false
                in
                if r.header <> None then write r.header;
                for i = 0 to min r.total cap - 1 do
                  write r.buf.((dropped + i) mod cap)
                done;
                let seq = t.seq in
                t.seq <- seq + 1;
                write_event r.oc
                  {
                    Sink.ts = Unix.gettimeofday () -. t.clock0;
                    name = "trace";
                    fields =
                      [
                        ("schema", Dsm.Json.String schema);
                        ("seq", Dsm.Json.Int seq);
                        ("ev", Dsm.Json.String "ring_meta");
                        ("dropped", Dsm.Json.Int dropped);
                        ("capacity", Dsm.Json.Int cap);
                      ];
                  };
                close_out r.oc
          end)
