type t = {
  engine : Engine.t;
  label : string;
  servers : int;
  mutable busy : int;
  waiting : Engine.resume Queue.t;
  mutable busy_time : int;
}

let create engine ~servers label =
  if servers <= 0 then invalid_arg "Resource.create: servers must be positive";
  { engine; label; servers; busy = 0; waiting = Queue.create (); busy_time = 0 }

let label t = t.label
let servers t = t.servers
let queue_length t = Queue.length t.waiting

let release t =
  match Queue.take_opt t.waiting with
  | Some r -> Engine.schedule t.engine r.resume
  | None -> t.busy <- t.busy - 1

(* A resumed waiter has had a server slot transferred to it by the
   releaser, so if cancellation strikes at the suspension point the slot
   must be handed on; likewise during service.  Without this, killing a
   node's fibers would silently shrink resources shared with survivors. *)
let acquire t =
  if t.busy < t.servers then t.busy <- t.busy + 1
  else
    try Engine.suspend t.engine (fun r -> Queue.push r t.waiting)
    with e ->
      release t;
      raise e

let use t ~demand =
  assert (demand >= 0);
  acquire t;
  (try Engine.sleep t.engine demand
   with e ->
     release t;
     raise e);
  t.busy_time <- t.busy_time + demand;
  release t

let busy_time t = t.busy_time
