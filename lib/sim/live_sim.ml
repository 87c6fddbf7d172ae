module Make (P : Dsm.Protocol.S) = struct
  type config = {
    seed : int;
    link : Net.Lossy_link.t;
    timer_min : float;
    timer_max : float;
    action_prob : (Dsm.Node_id.t -> P.action -> float) option;
    faults : Fault.Plan.t;
  }

  let default_config =
    {
      seed = 42;
      link = Net.Lossy_link.reliable;
      timer_min = 0.5;
      timer_max = 1.5;
      action_prob = None;
      faults = Fault.Plan.empty;
    }

  (* Ticks carry the epoch they were scheduled in: a crash bumps the
     node's epoch, so timers pending from before the crash fire into
     the void and the recovery schedules a fresh one. *)
  type event =
    | Deliver of P.message Dsm.Envelope.t
    | Tick of Dsm.Node_id.t * int
    | Crash of Dsm.Node_id.t
    | Recover of Dsm.Node_id.t * Fault.Plan.persistence
    | Join of Dsm.Node_id.t
    | Leave of Dsm.Node_id.t
    | Arrival
        (* next point of the plan's open-loop load process; carries no
           payload, the target node is drawn at execution time *)

  (* Metric handles resolved once at [create]; see the LMC checker for
     the cost model. *)
  type obs_handles = {
    scope : Obs.scope;
    c_events : Obs.Metrics.counter;
    c_sent : Obs.Metrics.counter;
    c_dropped : Obs.Metrics.counter;
    c_faults : Obs.Metrics.counter;
    c_fault_drops : Obs.Metrics.counter;
    c_duplicated : Obs.Metrics.counter;
    c_churn : Obs.Metrics.counter;
    c_load : Obs.Metrics.counter;
  }

  let make_obs_handles scope =
    {
      scope;
      c_events = Obs.counter scope "sim.events";
      c_sent = Obs.counter scope "sim.messages_sent";
      c_dropped = Obs.counter scope "sim.messages_dropped";
      c_faults = Obs.counter scope "sim.fault_events";
      c_fault_drops = Obs.counter scope "sim.fault_drops";
      c_duplicated = Obs.counter scope "sim.messages_duplicated";
      c_churn = Obs.counter scope "sim.churn_events";
      c_load = Obs.counter scope "sim.load_arrivals";
    }

  type t = {
    config : config;
    o : obs_handles;
    trace : Obs.Trace.t;
    tracing : bool;
    states : P.state array;
    queue : event Event_queue.t;
    node_rng : Rng.t array;
    link_rng : Rng.t;
    fault_rng : Rng.t;
        (* probabilistic fault decisions draw here, never from the
           link/node streams: an empty plan leaves the base run's
           random choices bit-identical *)
    injecting : bool;  (* plan non-empty; gates all fault work *)
    msg_faults : Fault.Plan.t;
        (* the plan filtered to message-affecting clauses, once at
           creation: the per-send fate walk must not scan churn, crash
           or load clauses it can never apply *)
    msg_injecting : bool;  (* msg_faults non-empty; gates the fate walk *)
    fault_roll : unit -> float;
        (* the fault stream's roll, allocated once: [send] is the hot
           path and must not build a closure per message *)
    up : bool array;
    present : bool array;
        (* membership: an absent slot holds the node's canonical
           initial state and neither receives traffic nor ticks *)
    tick_epoch : int array;
    mutable clock : float;
    mutable events_executed : int;
    mutable messages_sent : int;
    mutable messages_dropped : int;
    mutable fault_events : int;
    mutable fault_drops : int;
    mutable messages_duplicated : int;
    mutable churn_events : int;
    mutable load_arrivals : int;
  }

  let schedule_tick t n =
    let rng = t.node_rng.(n) in
    let delay = Rng.range rng t.config.timer_min t.config.timer_max in
    Event_queue.push t.queue ~time:(t.clock +. delay)
      (Tick (n, t.tick_epoch.(n)))

  (* Exponential inter-arrival at the rate active now (a seeded Poisson
     process); across rate-zero gaps the process sleeps to the next
     window start instead of polling.  All draws come from the fault
     stream, so a load clause never perturbs node or link randomness. *)
  let schedule_arrival t =
    let rate = Fault.Plan.load_rate t.config.faults ~time:t.clock in
    if rate > 0. then begin
      let u = Rng.float t.fault_rng in
      let delay = -.log (1. -. u) /. rate in
      Event_queue.push t.queue ~time:(t.clock +. delay) Arrival
    end
    else
      match Fault.Plan.next_load_start t.config.faults ~time:t.clock with
      | Some time -> Event_queue.push t.queue ~time Arrival
      | None -> ()

  let live_up_count t =
    let c = ref 0 in
    for n = 0 to P.num_nodes - 1 do
      if t.present.(n) && t.up.(n) then incr c
    done;
    !c

  (* [k]th present-and-up node, 0-based; [-1] when out of range *)
  let nth_live t k =
    let seen = ref 0 and found = ref (-1) in
    (try
       for n = 0 to P.num_nodes - 1 do
         if t.present.(n) && t.up.(n) then begin
           if !seen = k then begin
             found := n;
             raise Exit
           end;
           incr seen
         end
       done
     with Exit -> ());
    !found

  let create ?(obs = Obs.null) config =
    if config.timer_min <= 0. || config.timer_max < config.timer_min then
      invalid_arg "Live_sim.create: need 0 < timer_min <= timer_max";
    (match Fault.Plan.validate ~num_nodes:P.num_nodes config.faults with
    | Ok () -> ()
    | Error e -> invalid_arg ("Live_sim.create: " ^ e));
    let root = Rng.create ~seed:config.seed in
    let node_rng = Array.init P.num_nodes (fun _ -> Rng.split root) in
    let link_rng = Rng.split root in
    (* split last: pre-fault seeds reproduce their exact old runs *)
    let fault_rng = Rng.split root in
    let t =
      {
        config;
        o = make_obs_handles obs;
        trace = Obs.recorder obs;
        tracing = Obs.Trace.enabled (Obs.recorder obs);
        states = Dsm.Protocol.initial_system (module P);
        queue = Event_queue.create ();
        node_rng;
        link_rng;
        fault_rng;
        injecting = not (Fault.Plan.is_empty config.faults);
        msg_faults = Fault.Plan.message_clauses config.faults;
        msg_injecting =
          not (Fault.Plan.is_empty (Fault.Plan.message_clauses config.faults));
        fault_roll = (fun () -> Rng.float fault_rng);
        up = Array.make P.num_nodes true;
        present =
          Array.init P.num_nodes (fun n ->
              not (Fault.Plan.starts_absent config.faults ~node:n));
        tick_epoch = Array.make P.num_nodes 0;
        clock = 0.;
        events_executed = 0;
        messages_sent = 0;
        messages_dropped = 0;
        fault_events = 0;
        fault_drops = 0;
        messages_duplicated = 0;
        churn_events = 0;
        load_arrivals = 0;
      }
    in
    List.iter
      (fun n -> if t.present.(n) then schedule_tick t n)
      (Dsm.Node_id.all P.num_nodes);
    List.iter
      (fun (time, ev) ->
        Event_queue.push t.queue ~time
          (match ev with
          | `Crash n -> Crash n
          | `Recover (n, p) -> Recover (n, p)
          | `Join n -> Join n
          | `Leave n -> Leave n))
      (Fault.Plan.node_events config.faults);
    if Fault.Plan.has_load config.faults then schedule_arrival t;
    t

  let now t = t.clock

  let states t = Array.copy t.states

  let snapshot t =
    Snapshot.make ~membership:t.present ~time:t.clock t.states

  let live_nodes t =
    let live = ref [] in
    for n = P.num_nodes - 1 downto 0 do
      if t.present.(n) then live := n :: !live
    done;
    !live

  let membership t = Array.copy t.present

  let push_delivery t env extra =
    let latency =
      Net.Lossy_link.latency t.config.link ~roll:(Rng.float t.link_rng)
    in
    Event_queue.push t.queue ~time:(t.clock +. latency +. extra) (Deliver env)

  let send t (env : P.message Dsm.Envelope.t) =
    t.messages_sent <- t.messages_sent + 1;
    Obs.Metrics.incr t.o.c_sent;
    if Net.Lossy_link.drops t.config.link ~roll:(Rng.float t.link_rng) env
    then begin
      t.messages_dropped <- t.messages_dropped + 1;
      Obs.Metrics.incr t.o.c_dropped
    end
    else if not t.msg_injecting then push_delivery t env 0.
    else begin
      let fate =
        Fault.Plan.message_fate t.msg_faults ~time:t.clock
          ~roll:t.fault_roll
      in
      if fate.Fault.Plan.corrupt then begin
        (* payload corruption: the receiver's checksum rejects it *)
        t.fault_drops <- t.fault_drops + 1;
        Obs.Metrics.incr t.o.c_fault_drops
      end
      else begin
        push_delivery t env fate.Fault.Plan.extra_latency;
        if fate.Fault.Plan.duplicate then begin
          t.messages_duplicated <- t.messages_duplicated + 1;
          Obs.Metrics.incr t.o.c_duplicated;
          (* the copy rolls its own latency, from the fault stream *)
          let latency =
            Net.Lossy_link.latency t.config.link
              ~roll:(Rng.float t.fault_rng)
          in
          Event_queue.push t.queue ~time:(t.clock +. latency) (Deliver env)
        end
      end
    end

  let apply t node run =
    match run () with
    | exception Dsm.Protocol.Local_assert _ ->
        (* A live node would drop the offending packet (e.g. one that
           arrived before initialisation); keep the node running. *)
        ()
    | state', out ->
        t.states.(node) <- state';
        List.iter (fun env -> send t env) out

  (* Executed live events enter the flight recorder as lightweight
     [live] records: wall-clock position, acting node, rendered event —
     no fingerprints, the live half is not replayed bit-for-bit. *)
  let record_live t ~kind ~node ~src ~label =
    ignore
      (Obs.Trace.emit t.trace ~ev:"live"
         [
           ("clock", Dsm.Json.Float t.clock);
           ("kind", Dsm.Json.String kind);
           ("node", Dsm.Json.Int node);
           ("src", Dsm.Json.Int src);
           ("label", Dsm.Json.String label);
         ])

  let count_fault_drop t ~node ~src ~why env =
    t.fault_drops <- t.fault_drops + 1;
    Obs.Metrics.incr t.o.c_fault_drops;
    if t.tracing then
      record_live t ~kind:"fault_drop" ~node ~src
        ~label:
          (Format.asprintf "%s %a" why P.pp_message env.Dsm.Envelope.payload)

  let count_fault t = t.fault_events <- t.fault_events + 1;
    Obs.Metrics.incr t.o.c_faults

  let count_churn t = t.churn_events <- t.churn_events + 1;
    Obs.Metrics.incr t.o.c_churn

  let execute t = function
    | Deliver env ->
        let node = env.Dsm.Envelope.dst in
        if t.injecting && not t.present.(node) then
          count_fault_drop t ~node ~src:env.Dsm.Envelope.src ~why:"departed"
            env
        else if t.injecting && not t.up.(node) then
          count_fault_drop t ~node ~src:env.Dsm.Envelope.src ~why:"crashed"
            env
        else if
          t.msg_injecting
          && Fault.Plan.partitioned t.msg_faults ~time:t.clock
               ~src:env.Dsm.Envelope.src ~dst:node
        then
          count_fault_drop t ~node ~src:env.Dsm.Envelope.src
            ~why:"partitioned" env
        else begin
          if t.tracing then
            record_live t ~kind:"deliver" ~node ~src:env.Dsm.Envelope.src
              ~label:
                (Format.asprintf "%a" P.pp_message env.Dsm.Envelope.payload);
          apply t node (fun () ->
              P.handle_message ~self:node t.states.(node) env)
        end
    | Tick (n, epoch) ->
        if epoch = t.tick_epoch.(n) then begin
          match P.enabled_actions ~self:n t.states.(n) with
          | [] -> schedule_tick t n
          | actions ->
              let action = Rng.pick t.node_rng.(n) actions in
              let fires =
                match t.config.action_prob with
                | None -> true
                | Some prob -> Rng.bool t.node_rng.(n) ~prob:(prob n action)
              in
              if fires then begin
                if t.tracing then
                  record_live t ~kind:"action" ~node:n ~src:(-1)
                    ~label:(Format.asprintf "%a" P.pp_action action);
                apply t n (fun () ->
                    P.handle_action ~self:n t.states.(n) action)
              end;
              schedule_tick t n
        end
    | Crash n ->
        count_fault t;
        t.up.(n) <- false;
        t.tick_epoch.(n) <- t.tick_epoch.(n) + 1;
        if t.tracing then
          record_live t ~kind:"crash" ~node:n ~src:(-1) ~label:"crash"
    | Recover (n, persistence) ->
        count_fault t;
        (* a recovery for a node that has since departed is void: the
           slot stays canonical until a join re-admits it *)
        if t.present.(n) then begin
          t.up.(n) <- true;
          t.tick_epoch.(n) <- t.tick_epoch.(n) + 1;
          t.states.(n) <-
            (match persistence with
            | Fault.Plan.Full -> t.states.(n)
            | Fault.Plan.Volatile -> P.initial n
            | Fault.Plan.Hook -> P.on_recover ~self:n t.states.(n));
          if t.tracing then
            record_live t ~kind:"recover" ~node:n ~src:(-1)
              ~label:
                (match persistence with
                | Fault.Plan.Full -> "recover full"
                | Fault.Plan.Volatile -> "recover volatile"
                | Fault.Plan.Hook -> "recover hook");
          schedule_tick t n
        end
    | Join n ->
        count_churn t;
        t.present.(n) <- true;
        t.up.(n) <- true;
        t.tick_epoch.(n) <- t.tick_epoch.(n) + 1;
        if t.tracing then
          record_live t ~kind:"join" ~node:n ~src:(-1) ~label:"join";
        schedule_tick t n
    | Leave n ->
        count_churn t;
        t.present.(n) <- false;
        t.tick_epoch.(n) <- t.tick_epoch.(n) + 1;
        (* the departed slot returns to its canonical initial state so
           snapshots stay sound: an absent node reads as one that has
           not acted yet *)
        t.states.(n) <- P.initial n;
        if t.tracing then
          record_live t ~kind:"leave" ~node:n ~src:(-1) ~label:"leave"
    | Arrival ->
        (if Fault.Plan.load_rate t.config.faults ~time:t.clock > 0. then begin
           let live = live_up_count t in
           if live > 0 then begin
             let node = nth_live t (Rng.int t.fault_rng live) in
             t.load_arrivals <- t.load_arrivals + 1;
             Obs.Metrics.incr t.o.c_load;
             match P.enabled_actions ~self:node t.states.(node) with
             | [] ->
                 if t.tracing then
                   record_live t ~kind:"load" ~node ~src:(-1) ~label:"idle"
             | actions ->
                 let action = Rng.pick t.fault_rng actions in
                 if t.tracing then
                   record_live t ~kind:"load" ~node ~src:(-1)
                     ~label:(Format.asprintf "%a" P.pp_action action);
                 apply t node (fun () ->
                     P.handle_action ~self:node t.states.(node) action)
           end
         end);
        schedule_arrival t

  let heartbeat t =
    Obs.heartbeat t.o.scope (fun () ->
        [
          ("sim_clock", Dsm.Json.Float t.clock);
          ("events", Dsm.Json.Int t.events_executed);
          ("messages_sent", Dsm.Json.Int t.messages_sent);
          ("messages_dropped", Dsm.Json.Int t.messages_dropped);
        ])

  let step t =
    match Event_queue.pop t.queue with
    | None -> false
    | Some (time, event) ->
        t.clock <- max t.clock time;
        t.events_executed <- t.events_executed + 1;
        Obs.Metrics.incr t.o.c_events;
        heartbeat t;
        execute t event;
        true

  let run_until t deadline =
    Obs.frame t.o.scope "sim.live" @@ fun () ->
    let rec loop () =
      match Event_queue.peek_time t.queue with
      | Some time when time <= deadline ->
          ignore (step t);
          loop ()
      | _ -> t.clock <- max t.clock deadline
    in
    loop ()

  let events_executed t = t.events_executed
  let messages_sent t = t.messages_sent
  let messages_dropped t = t.messages_dropped
  let fault_events t = t.fault_events
  let fault_drops t = t.fault_drops
  let messages_duplicated t = t.messages_duplicated
  let churn_events t = t.churn_events
  let load_arrivals t = t.load_arrivals
end
