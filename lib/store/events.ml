let schema = "store.v2"

type t = {
  sink : Obs.Sink.t option;
  mutable seq : int;
  clock0 : float;
}

let null = { sink = None; seq = 0; clock0 = 0. }

let of_sink sink = { sink = Some sink; seq = 0; clock0 = Unix.gettimeofday () }

let of_trace trace =
  match Obs.Trace.sink trace with Some s -> of_sink s | None -> null

let enabled t = t.sink <> None

let emit t ~ev fields =
  match t.sink with
  | None -> ()
  | Some sink ->
      let seq = t.seq in
      t.seq <- seq + 1;
      Obs.Sink.emit sink
        {
          Obs.Sink.ts = Unix.gettimeofday () -. t.clock0;
          name = "store";
          fields =
            ("schema", Dsm.Json.String schema)
            :: ("seq", Dsm.Json.Int seq)
            :: ("ev", Dsm.Json.String ev)
            :: fields;
        }
