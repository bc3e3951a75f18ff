(** The transaction log (§4.3 step 3, §4.4.1): an ordered map of entries
    in the shared store, keyed by tid.  A transaction appends its entry —
    processing-node id, timestamp, write set — before applying any update
    and flags it on commit; recovery rolls back unflagged entries of
    failed processing nodes, scanning no further back than the lav (the
    rolling checkpoint). *)

type entry = {
  tid : int;
  pn_id : int;
  timestamp : int;
  write_set : string list;  (** record keys *)
  committed : bool;
}

val encode : entry -> string
(** Byte 0 is the commit flag, so readers can test it without a full
    decode (the commit-manager recovery path relies on this). *)

val decode : tid:int -> string -> entry
val append : Tell_kv.Client.t -> entry -> unit

(** Flag a batch of entries with one multi-write: one request per storage
    node touched rather than one per entry. *)
val mark_committed_many : Tell_kv.Client.t -> entry list -> unit

val find : Tell_kv.Client.t -> tid:int -> entry option
val scan : Tell_kv.Client.t -> min_tid:int -> entry list
val truncate_below : Tell_kv.Client.t -> min_tid:int -> unit
