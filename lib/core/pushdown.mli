(** Operator push-down into the storage layer — the §5.2 extension.

    OLAP-style scans normally ship every record of a table to the
    processing node ("data is shipped to the query"), which is bandwidth-
    and latency-heavy.  This module serialises a {e program} — a snapshot
    descriptor, a selection predicate, and a projection — that storage
    nodes evaluate locally against each record cell, returning only the
    projected tuples of visible, matching rows.

    The evaluator must be registered once per cluster (done by
    {!Database.create}); programs are self-contained, so any processing
    node can issue push-down scans against any storage node. *)

type program = {
  snapshot : Version_set.t;  (** visibility filter evaluated inside the SN *)
  predicate : Query.expr option;  (** over the full tuple; [None] = all rows *)
  projection : int list;  (** column positions to return; [[]] = whole tuple *)
}

val evaluator : program:string -> key:string -> data:string -> string option
(** The storage-node side: decode the record cell, select the snapshot's
    visible version, apply the predicate, project.  Registered via
    {!Tell_kv.Cluster.set_pushdown_evaluator}. *)

val scan :
  Txn.t -> table:string -> ?predicate:Query.expr -> ?projection:int list -> unit -> Query.iter
(** A full-table scan executed inside the storage layer under the
    transaction's snapshot.  The transaction's own pending writes for the
    table are merged in (with predicate and projection applied locally),
    so semantics match {!Query.seq_scan} + {!Query.filter} +
    {!Query.project}. *)

(** {1 Expression codec} (exposed for tests) *)

val encode_expr : Buffer.t -> Query.expr -> unit
val decode_expr : Codec.cursor -> Query.expr
(** Reads one expression at the cursor and advances past it. *)
