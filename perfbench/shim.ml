(* Bench-side instruments.  Every layer is measured from outside: the
   shims below wrap the public functions the benchmark hands to the
   checkers (protocol handlers, strategy callbacks, the invariant) in
   an in-memory count + time accumulator.  Nothing here is used by an
   untraced operation. *)

let now = Unix.gettimeofday

(* A call count and the wall time spent inside the wrapped calls.
   Only every [every]-th call is timed, so that a predicate called
   tens of millions of times is not swamped by clock reads; [secs]
   extrapolates the sampled time to all calls. *)
type acc = {
  every : int;
  mutable calls : int;
  mutable sampled : int;
  mutable sampled_secs : float;
}

let acc every = { every; calls = 0; sampled = 0; sampled_secs = 0. }

let reset a =
  a.calls <- 0;
  a.sampled <- 0;
  a.sampled_secs <- 0.

(* One clock read, which every timed interval also contains; it is
   subtracted, because it outweighs a predicate of a few nanoseconds. *)
let clock_cost = ref 0.

let calibrate () =
  if !clock_cost = 0. then begin
    let n = 100_000 in
    let t0 = now () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (now ()))
    done;
    clock_cost := (now () -. t0) /. float_of_int n
  end

let secs a =
  if a.sampled = 0 then 0.
  else
    let per_call =
      Float.max 0. ((a.sampled_secs /. float_of_int a.sampled) -. !clock_cost)
    in
    per_call *. float_of_int a.calls

let timed a f =
  a.calls <- a.calls + 1;
  if a.calls mod a.every <> 0 then f ()
  else begin
    let t0 = now () in
    let stop () =
      a.sampled <- a.sampled + 1;
      a.sampled_secs <- a.sampled_secs +. (now () -. t0)
    in
    match f () with
    | v ->
        stop ();
        v
    | exception e ->
        stop ();
        raise e
  end

(* Checker-side and live-side handler time, the strategy's
   [abstract] / [conflict] callbacks and the invariant's pair
   predicate. *)
let handlers = acc 8
let live_handlers = acc 1
let abstract = acc 1
let conflict = acc 64
let invariant = acc 64

let reset_all () =
  calibrate ();
  List.iter reset [ handlers; live_handlers; abstract; conflict; invariant ]

(* [Protocol (P) (A)] is [P] with its two handlers timed into [A.acc];
   every type and every other function is [P]'s own. *)
module Protocol
    (P : Dsm.Protocol.S)
    (A : sig
      val acc : acc
    end) :
  Dsm.Protocol.S
    with type state = P.state
     and type message = P.message
     and type action = P.action = struct
  include P

  let handle_message ~self s env =
    timed A.acc (fun () -> P.handle_message ~self s env)

  let handle_action ~self s a = timed A.acc (fun () -> P.handle_action ~self s a)
end

(* The Paxos safety invariant rebuilt with the same [for_all_pairs]
   combinator and name, so the checkers see the same shape (and the
   same pairwise witness) as the untimed one. *)
let paxos_safety (untimed : Protocols.Paxos.paxos_state Dsm.Invariant.t) =
  Dsm.Invariant.for_all_pairs ~name:(Dsm.Invariant.name untimed)
    (fun _ (a : Protocols.Paxos.paxos_state) _ b ->
      timed invariant (fun () ->
          Protocols.Paxos_core.disagreement a.core b.core))

let timed_abstract f s = timed abstract (fun () -> f s)
let timed_conflict f a b = timed conflict (fun () -> f a b)

(* Coarse spans: the workload, then each checker or hunt call.  Kept
   in memory and written once the run ends. *)
type span = { name : string; parent : string option; start : float; stop : float }

let spans = ref []

let span ?parent name f =
  let start = now () in
  let finish () = spans := { name; parent; start; stop = now () } :: !spans in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let span_json origin s =
  Dsm.Json.Obj
    [
      ("name", Dsm.Json.String s.name);
      ( "parent",
        match s.parent with Some p -> Dsm.Json.String p | None -> Dsm.Json.Null
      );
      ("start_s", Dsm.Json.Float (s.start -. origin));
      ("dur_s", Dsm.Json.Float (s.stop -. s.start));
    ]
