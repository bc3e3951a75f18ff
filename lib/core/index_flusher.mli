(** Background Bε buffer flusher (§3d).

    One management-group fiber that applies the secondary indexes'
    buffered insert/delete messages to the B+tree leaves in bulk, so the
    commit path never descends to a leaf.  Reads stay correct without it
    (they merge pending messages); the flusher bounds stripe-cell growth
    and keeps leaf-only readers fresh.  A PN crash between commit-ack and
    flush loses nothing: the acknowledged appends are replicated cells,
    and the flusher — which survives on the management node — applies
    them on its next sweep. *)

type t

type stats = {
  mutable sweeps : int;
  mutable nudges : int;
  mutable stripes_flushed : int;
  mutable messages_applied : int;
  mutable deferrals : int;
      (** Flushes that ran out of routing rounds with messages unplaced
          ({!Btree.Flush_deferred}): nothing is lost, the stripe is
          replayed by a later sweep.  Not an error. *)
  mutable errors : int;
      (** Unexpected exceptions swallowed (and counted) to keep the
          flusher fibers alive — a bad stripe cell, a leaked retry. *)
}

val create :
  Tell_sim.Engine.t ->
  group:Tell_sim.Engine.Group.t ->
  kv:Tell_kv.Client.t ->
  ?interval_ns:int ->
  ?threshold_bytes:int ->
  unit ->
  t
(** Spawns the periodic sweep fiber in [group]; [kv] must be the
    flusher's own client (its traffic is management-node traffic, not
    any transaction's). *)

val note : t -> index:string -> stripe:int -> bytes:int -> unit
(** Commit-path hook: an enqueue left [stripe] of [index] at [bytes]
    cell bytes.  Registers the index; kicks an immediate single-flight
    flush when [bytes] exceeds the threshold.  Never suspends. *)

val drain : t -> bool
(** Discover all indexes from the schema cells and sweep until no
    registered tree has unapplied messages (bounded).  Quiesce hook for
    the check harness and tests; must run inside a fiber.  Returns
    [false] when the round budget was exhausted with messages still
    pending (e.g. under a sustained [Unavailable] window) — the caller
    must not treat the buffers as quiesced. *)

val stats : t -> stats

val kv : t -> Tell_kv.Client.t
(** The flusher's own store client — flush-induced leaf and inner-node
    writes are storage-bandwidth traffic on this client, never on a
    PN's.  Exposed so traffic aggregates can include it. *)

val default_flush_interval_ns : int
val default_flush_threshold_bytes : int
