(** Latch-free distributed B+tree (§5.3).

    Every tree node is one key-value pair in the shared store; node
    updates are synchronised exclusively with LL/SC conditional writes and
    retried on conflict, so no latches exist anywhere and system-wide
    progress is guaranteed.  Nodes carry B-link-style [high_key]/[next]
    pointers (Lehman-Yao): a traversal that lands on a node whose range
    has moved simply walks right, which makes readers correct even while a
    split by another processing node is mid-flight.

    There is one way into the tree: every mutation — a commit's index
    entries, the GC sweep's and read-time index GC's deletes, a
    [CREATE INDEX] backfill — is an insert/delete {e message} appended to
    a Bε buffer stripe ({!enqueue_many}, {!enqueue_prepare}), and only a
    flush ({!flush_stripe}) writes leaves: it applies a stripe's messages
    in batched rounds, one multi-get and one conditional multi-write per
    round, splitting an overflowing leaf as many ways as it takes in the
    same round.  Readers merge pending messages, so an entry is visible
    the moment its append is acknowledged.

    Following §5.3.1, inner nodes are cached on the processing node; leaf
    nodes are always fetched from the store.  When a fetched leaf's range
    contradicts the cached parents (the leaf has split), the cached path
    is invalidated and refreshed.

    Entries are [(key, rid)] pairs ordered lexicographically; duplicate
    attribute keys are allowed (the rid disambiguates), and the tree is
    version-unaware (§5.3.2) — visibility filtering happens in the
    transaction layer after the record is read. *)

type t

val create : Tell_kv.Client.t -> name:string -> unit
(** Idempotently initialise the tree (empty root) in the store. *)

val attach : Tell_kv.Client.t -> name:string -> t
(** A per-processing-node handle with its own inner-node cache. *)

val name : t -> string

val lookup_many_grouped : (t * string list) list -> (string * int list) list list
(** Point lookups for many keys across several trees attached to the
    same store client, with (at most) one batched store round trip: the
    cached inner levels route every key to its leaf, and all routed
    leaves of all groups — plus the buffer stripes covering the keys —
    are fetched in one multi-get.  Keys whose leaf turned out stale, and
    every key of a fetch that overran the merge guard, fall back to
    ordered per-key traversals.  The result mirrors the input shape. *)

val range : t -> lo:string -> hi:string -> (string * int) list
(** Entries with [lo <= key < hi], in key order.  The buffer stripes are
    fetched concurrently with the leaf walk; a scan that overruns the
    merge guard is redone stripes-then-leaves. *)

(** {1 Bε message buffers (§3d)}

    Index maintenance off the commit critical path: a commit appends
    insert/delete {e messages} to the buffer stripe covering the entry's
    key — one blind append per stripe, no leaf read, no CAS — and the
    background flusher ({!Index_flusher}) applies them to the leaves in
    bulk.  Every read path above merges the pending messages of the
    stripes overlapping its range, so an entry is visible the moment its
    append is acknowledged. *)

type batch_op = Add of (string * int) | Del of (string * int)

val enqueue_many : t -> ops:batch_op list -> (t * int * int) list
(** Append the messages to the buffer stripes covering their keys: one
    blind multi-write round trip, never a conflict, and the
    acknowledgement makes the mutations durable (replicated like any
    other cell).  Returns {!enqueue_note}'s
    [(tree, stripe, stripe cell bytes after the append)] list. *)

val enqueue_prepare : (t * batch_op list) list -> Tell_kv.Op.t list * (t * int) list
(** {!enqueue_many} split in two and generalised across trees that share
    one store client, for callers that fuse the stripe appends into a
    larger multi-write (the commit pipeline rides them in the apply
    round trip): [enqueue_prepare] builds the blind append ops plus
    aligned [(tree, stripe)] metadata without touching the store;
    {!enqueue_note} maps the ops' results back to
    [(tree, stripe, stripe cell bytes after the append)] so callers can
    nudge the flusher at a size threshold. *)

val enqueue_note : (t * int) list -> Tell_kv.Op.result list -> (t * int * int) list

exception Flush_deferred
(** Raised by {!flush_stripe} when its routing rounds ran out before
    every message reached its leaf.  The stripe's watermark is left where
    it was; replay is idempotent, so the next flush applies the messages
    again, the ones already placed included. *)

val flush_stripe : t -> stripe:int -> int
(** Apply the stripe's pending messages to the leaves (batched), advance
    its watermark, and purge residue older than the purge grace.  Safe to
    race with concurrent appends, but not with another flush of the same
    stripe: raises [Invalid_argument] if this handle is already flushing
    [stripe].  Must run inside a fiber.  Returns the number of messages
    applied; raises {!Flush_deferred} when it left them for a later
    flush. *)

val stripe_cell_needs_flush : string -> now:int -> bool
(** Would {!flush_stripe} on a stripe cell holding this raw value do any
    work?  The background flusher's multi-get prefilter. *)

val pending_messages : t -> int
(** Unapplied messages across all stripes; 0 once quiesced + flushed. *)

val stripe_count : t -> int

val unsafe_set_skip_buffer_merge : bool -> unit
(** Harness mutant: make reads ignore pending buffer messages, so a
    committed-but-unflushed index entry is invisible.  The
    [tell_check --mutation] battery proves the read-side merge is
    load-bearing with it.  Never set outside the harness. *)

val bulk_cells : name:string -> entries:(string * int) list -> (string * string) list
(** Build a complete, balanced tree from sorted [(key, rid)] entries as a
    list of [(store key, cell value)] pairs — including the root pointer
    and the node-id counter — ready to be installed with
    [Tell_kv.Cluster.poke].  The bulk-load path for benchmark populations. *)

(**/**)

(** Test hooks: entry points only the test suites call. *)

val lookup : t -> key:string -> int list
(** All rids stored under exactly [key], ascending. *)

val flush_all : t -> int
(** {!flush_stripe} over every stripe; returns the messages applied. *)

val stripe_of : t -> string -> int

val check : t -> string list
(** Walk the whole tree and collect structural violations — entry/separator
    ordering, bound containment, level tags, child arity — as
    human-readable strings ([[]] when sound).  Full separator entries are
    (key, rid) pairs; comparisons never drop the rid.  Expensive;
    simulation-time only (the [tell_check] harness and tests). *)

val check_invariants : t -> unit
(** {!check}, raising [Invalid_argument] on the first violation set. *)

val stash_orphan : t -> int -> unit
(** Mark node [id] as a suspected stranded allocation (stored but maybe
    never linked).  Internal paths stash automatically when an exception
    escapes a split mid-flight; exposed for tests. *)

val reclaim_orphans : t -> unit
(** Verify every stashed suspect against the live tree and delete the
    ones that are provably unreachable (the loser's half of a concurrent
    split whose cleanup was interrupted).  Runs automatically at the next
    flush through the handle; exposed for tests.  Must run inside a fiber. *)

val orphan_count : t -> int

(** {2 Cell codecs} *)

type node =
  | Leaf of { entries : (string * int) array; high_key : (string * int) option; next : int option }
  | Inner of {
      seps : (string * int) array;
      children : int array;
      high_key : (string * int) option;
      next : int option;
      level : int;
    }

val encode_node : node -> string

val decode_node : string -> node
(** Raises [Invalid_argument] on truncated input or a bad tag. *)

type stripe_state = { applied : int; applied_at : int; msgs : batch_op list }
(** A Bε stripe cell: the first [applied] messages are already in the
    leaves, applied at virtual time [applied_at]. *)

val encode_stripe : stripe_state -> string
(** The watermark is written unless [applied] and [applied_at] are both 0. *)

val decode_stripe : string -> stripe_state
(** Raises [Invalid_argument] on a truncated message or a bad tag. *)
