(** Lazy garbage collection (§5.4).

    The eager strategy in [Txn] compacts records on write-back; this
    background task covers rarely updated data: it drops versions below
    the lav (keeping the newest of them), removes records whose surviving
    version is a tombstone, and prunes index entries whose key no longer
    appears in any stored version of the referenced record. *)

type stats = {
  mutable records_scanned : int;
  mutable versions_dropped : int;
  mutable records_dropped : int;
  mutable index_entries_dropped : int;
}

type t

val create :
  Tell_kv.Cluster.t ->
  cms:(unit -> Commit_manager.t list) ->
  group:Tell_sim.Engine.Group.t ->
  t
(** [cms] returns the current commit-manager topology; each sweep uses
    the minimum lav over the live managers as its GC floor. *)

val stats : t -> stats

val run_once : t -> tables:Schema.table list -> unit
(** One full sweep (records, then every index of every table).  Must run
    from a fiber. *)

