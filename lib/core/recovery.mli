(** Fail-over for processing nodes and commit managers (§4.4).

    Processing nodes are crash-stop: the management node starts a recovery
    process that discovers the failed node's in-flight transactions from
    the transaction log (bounded below by the lav, the rolling checkpoint)
    and rolls their partially applied updates back.  At most one recovery
    process runs at a time; a single process handles any number of failed
    nodes. *)

type t

val create : Tell_kv.Cluster.t -> cms:(unit -> Commit_manager.t list) -> t
(** [cms] returns the current commit-manager topology, looked up afresh
    at each recovery pass (managers crash, get replaced, get retired).
    The log-scan floor is the minimum lav over the live managers, and
    recovered decisions are broadcast to all of them. *)

val recover_processing_nodes : t -> failed_pn_ids:int list -> unit
(** Roll back every logged, uncommitted transaction of the given nodes.
    The management node runs at most one recovery process at a time
    (§4.4.1): if one is already in progress, this call waits for it to
    finish before starting its own pass.

    The pass fences before it rolls back: the cluster epoch is bumped and
    each failed node's endpoint is barred from writing on every storage
    node, so a {e zombie} — a node declared dead through a partition that
    is in fact still running — cannot land writes into state this pass
    declares recovered ({!Tell_kv.Cluster.fence_senders}). *)

val recovered_txns : t -> int
(** Cumulative count of transactions rolled back by this process. *)

val replace_commit_manager :
  Tell_kv.Cluster.t -> dead:int -> fresh_id:int -> peers:int list -> Commit_manager.t
(** Stand up a replacement commit manager (§4.4.3), state restored from
    the published manager states and the transaction-log tail.  [dead]
    (when [>= 0]) names the commit-manager id being replaced: its old
    instance is fenced first, so if it was only partitioned — not dead —
    its next store write bounces and it self-fences instead of racing
    the replacement ([Commit_manager.was_fenced]). *)
