(** The commit manager (§4.2): a lightweight service that hands out
    system-wide unique transaction ids, snapshot descriptors, and the
    lowest active version number (lav).

    Transaction ids come from an atomically incremented counter in the
    shared store, acquired in continuous ranges so that the counter is not
    a bottleneck.  Several commit managers can run in parallel: they
    publish their state (decided-transaction sets and local lav) to the
    store at a fixed synchronisation interval and merge each other's
    publications, so every manager serves a globally consistent — at most
    interval-delayed — snapshot.  Operating on a delayed snapshot is
    correct (it can only raise the abort rate, §4.2).

    The snapshot descriptor is a {!Version_set.t}: base version [b] (that
    and all earlier transactions are decided) plus the set [N] of newly
    committed ids above [b].  The base may advance through {e aborted}
    ids: their updates have been rolled back before [set_aborted], so
    treating them as visible is harmless. *)

type t

type start_reply = {
  tid : int;
  snapshot : Version_set.t;
  lav : int;  (** versions [<= lav] are visible to every active transaction *)
}

val create :
  Tell_kv.Cluster.t ->
  id:int ->
  ?peers:int list ->
  ?range_size:int ->
  ?sync_interval_ns:int ->
  unit ->
  t
(** [peers] lists the ids of the other commit managers whose published
    state this one merges.  The synchronisation fiber starts immediately
    (1 ms interval by default, as in §6.3.3).  A lease of 4× the sync
    interval bounds how stale a peer's merged descriptor may be before a
    begin pulls that peer's published state inline from the store — the
    short-lease rule that keeps the common-case begin a round to one
    manager while still bounding descriptor staleness. *)

val id : t -> int
val alive : t -> bool
val crash : t -> unit

val endpoint : t -> string
(** Link-endpoint name ("cm<id>") of this manager on the simulated
    network. *)

val was_fenced : t -> bool
(** True once this instance stopped because its lease was revoked: a
    store write bounced {!Tell_kv.Op.Fenced}, meaning the management
    node replaced it while it was partitioned.  A fenced manager is
    dead ([alive t = false]) and never serves again. *)

(** {1 Remote interface used by processing nodes}

    Each call models one network round trip to the manager plus its
    service time, executed by the calling fiber.  Raises
    {!Tell_kv.Op.Unavailable} when the manager has crashed.

    [src] names the caller's link endpoint: when given, the request and
    reply travel the simulated network as identity-carrying messages
    subject to the fault plan (partitions, loss), and a dropped message
    surfaces as {!Tell_kv.Op.Unavailable} after the client timeout.
    Without it the legacy always-delivered path is used. *)

val start_many :
  t -> ?src:string -> from_group:Tell_sim.Engine.Group.t -> count:int -> unit -> start_reply list
(** One RPC starting [count] transactions at once — what the per-PN begin
    window issues.  Each reply carries its own tid; all replies share the
    snapshot computed at service time (a slightly delayed snapshot is
    correct under SI, §4.2).  Raises [Invalid_argument] when
    [count <= 0]. *)

val start : t -> ?src:string -> from_group:Tell_sim.Engine.Group.t -> unit -> start_reply
(** [start_many ~count:1]. *)

val set_decided_batch : t -> ?src:string -> committed:int list -> aborted:int list -> unit -> unit
(** One RPC deciding many transactions at once — what the per-PN notifier
    issues.  A no-op when both lists are empty. *)

val set_committed : t -> ?src:string -> tid:int -> unit -> unit
(** A one-tid {!set_decided_batch}. *)

val set_aborted : t -> ?src:string -> tid:int -> unit -> unit
(** A one-tid {!set_decided_batch}. *)

(** {1 Introspection and recovery} *)

val current_snapshot : t -> Version_set.t
val current_lav : t -> int
val active_count : t -> int

val active_tids : t -> int list
(** Tids of the transactions currently started at this manager and not
    yet decided (unsorted).  [Database.retire_commit_manager] uses this
    to wait until none of a dead manager's begins is still claimed by a
    live processing node before dropping its frozen lav. *)

val begin_refresh_stats : t -> int * int
(** [(refreshes, failures)]: how many begins found a peer descriptor
    past its lease and pulled inline, and how many of those pulls failed
    (serving the last merged state instead — stall-or-stay-SI). *)

val range_span : t -> int * int
(** The manager's current tid range [(start, end))], handed-out part
    included.  The management node's reclamation sweep treats every tid
    inside a live manager's span as spoken for. *)

(** Release active transactions whose originating fiber group is dead,
    recovering each decision from the log (flagged entry = commit,
    otherwise abort), and return how many were released.  Called by
    [Database.recover_crashed_pns] after the recovery log pass. *)
val release_dead_actives : t -> int

val release_group_actives : t -> group:Tell_sim.Engine.Group.t -> int
(** Like {!release_dead_actives}, but for one specific owner group,
    whether or not the engine considers it dead yet.  Used when a
    processing node is {e declared} dead (fenced) while its fibers may
    still be running behind a partition: its undecided transactions must
    resolve from the log, not wait on fibers that will be poisoned. *)

val recover : t -> unit
(** Rebuild state after taking over from a failed manager (§4.4.3): reads
    the tid counter, the peers' published states, and the tail of the
    transaction log. *)

(** {1 Topology changes} *)

val peers : t -> int list

val note_peer : t -> peer:int -> unit
(** A manager joined the topology after this one was created: start
    merging its published state.  Its lav is treated as 0 (unknown)
    until its first publication lands, so [global_lav] never
    overestimates during the gap. *)

val forget_peer : t -> peer:int -> unit
(** A dead manager was retired from the topology without a replacement:
    stop pulling its slot and drop its frozen lav.  Only safe once no
    transaction begun at the retired manager is still running — its lav
    is the GC floor for those begins.  [Database.retire_commit_manager]
    enforces that. *)

(** {1 Mutation battery (test only)} *)

type merge_mutant =
  | Skip_descriptor_merge
      (** Begins skip the descriptor merge and assume every tid ever
          seen allocated is decided — admits in-flight and aborted
          transactions into snapshots (G-SI material). *)
  | Overlapping_ranges
      (** Range refills reach back over the previously allocated range,
          so two managers hand out the same tids — version chains of
          distinct transactions conflate (lost-update material). *)

val unsafe_set_merge_mutant : merge_mutant option -> unit
(** Global knob for the [--mutation] battery: install (or clear) a
    weakened-merge mutant.  Never used outside tests; the fault harness
    resets it in a [Fun.protect] finalizer. *)

(**/**)

(** Test hooks: the published-state cell codec. *)

val encode_state : base:int -> decided:(int * bool) list -> lav:int -> string
(** The cell a manager publishes: its decided base, the decided tids
    above it with their commit flags, and its local lav. *)

val decode_state : string -> int * (int * bool) list * int
(** Inverse of {!encode_state}: [(base, decided, lav)].  Raises
    [Invalid_argument] on truncated input or a bad flag byte. *)
