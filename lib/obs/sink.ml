type event = {
  ts : float;
  name : string;
  fields : (string * Dsm.Json.t) list;
}

let event_to_json e =
  Dsm.Json.Obj
    (("ts", Dsm.Json.Float e.ts)
    :: ("event", Dsm.Json.String e.name)
    :: e.fields)

type t = {
  emit : event -> unit;
  raw : (Buffer.t -> unit) option;
      (* byte-oriented fast path: the buffer holds whole pre-serialised
         newline-terminated lines, written verbatim.  Only sinks whose
         [emit] would produce exactly those bytes provide it. *)
  flush : unit -> unit;
  close : unit -> unit;
}

let raw t = t.raw

let emit t e = t.emit e

let flush t = t.flush ()

let close t = t.close ()

(* Each sink serialises its own writes behind a mutex: events arriving
   from different domains interleave whole, never byte-by-byte. *)
let with_lock lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let jsonl_file path =
  let oc = open_out path in
  let lock = Mutex.create () in
  {
    emit =
      (fun e ->
        let line = Dsm.Json.to_string (event_to_json e) in
        with_lock lock (fun () ->
            output_string oc line;
            output_char oc '\n'));
    raw =
      Some (fun buf -> with_lock lock (fun () -> Buffer.output_buffer oc buf));
    flush = (fun () -> with_lock lock (fun () -> Stdlib.flush oc));
    close = (fun () -> with_lock lock (fun () -> close_out oc));
  }

let memory () =
  let lock = Mutex.create () in
  let events = ref [] in
  let t =
    {
      raw = None;
      emit = (fun e -> with_lock lock (fun () -> events := e :: !events));
      flush = (fun () -> ());
      close = (fun () -> ());
    }
  in
  (t, fun () -> with_lock lock (fun () -> List.rev !events))
