(* Binary min-heap of timestamped events.  Ordering key is
   [(time, prio, seq)]: [prio] is an optional caller-provided tie-break
   rank (0 by default) and [seq] is a monotonically increasing counter, so
   that events scheduled at the same virtual instant fire in FIFO order
   unless the caller deliberately perturbs them.  Either way the order is
   a pure function of the push sequence, which keeps simulations
   deterministic. *)

type 'a entry = { time : int; prio : int; seq : int; payload : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let dummy payload = { time = 0; prio = 0; seq = 0; payload }

let create () = { data = [||]; size = 0; next_seq = 0 }

let length t = t.size

let is_empty t = t.size = 0

let precedes a b =
  a.time < b.time
  || (a.time = b.time && (a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)))

let grow t entry =
  let capacity = Array.length t.data in
  if t.size = capacity then begin
    let new_capacity = if capacity = 0 then 64 else capacity * 2 in
    let data = Array.make new_capacity (dummy entry.payload) in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let rec sift_up data i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if precedes data.(i) data.(parent) then begin
      let tmp = data.(i) in
      data.(i) <- data.(parent);
      data.(parent) <- tmp;
      sift_up data parent
    end
  end

let rec sift_down data size i =
  let left = (2 * i) + 1 in
  if left < size then begin
    let right = left + 1 in
    let smallest = if right < size && precedes data.(right) data.(left) then right else left in
    if precedes data.(smallest) data.(i) then begin
      let tmp = data.(i) in
      data.(i) <- data.(smallest);
      data.(smallest) <- tmp;
      sift_down data size smallest
    end
  end

let push t ~time ?(prio = 0) payload =
  let entry = { time; prio; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  grow t entry;
  t.data.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t.data (t.size - 1)

(* The earliest event's time, [max_int] when empty. *)
let min_time t = if t.size = 0 then max_int else t.data.(0).time

(* Remove the earliest event and return its payload; its time is
   {!min_time} just before the call.  Raises [Invalid_argument] when
   empty. *)
let pop_exn t =
  if t.size = 0 then invalid_arg "Heap.pop_exn: empty heap";
  let top = t.data.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.data.(0) <- t.data.(t.size);
    sift_down t.data t.size 0
  end;
  top.payload
