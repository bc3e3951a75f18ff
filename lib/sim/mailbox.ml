type 'a t = {
  engine : Engine.t;
  messages : 'a Queue.t;
  waiters : Engine.resume Queue.t;
}

let create engine = { engine; messages = Queue.create (); waiters = Queue.create () }

let send t v =
  Queue.push v t.messages;
  match Queue.take_opt t.waiters with
  | None -> ()
  | Some r -> Engine.schedule t.engine r.resume

let rec recv t =
  match Queue.take_opt t.messages with
  | Some v -> v
  | None ->
      Engine.suspend t.engine (fun r -> Queue.push r t.waiters);
      (* A message was enqueued for us, but another fiber may have raced us
         to it at the same virtual instant; loop until we obtain one. *)
      recv t

let length t = Queue.length t.messages
