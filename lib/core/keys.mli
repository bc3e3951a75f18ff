(** Key-space layout of Tell inside the record store.

    Single-character namespaces keep requests small:
    - [r/<table>/<rid>] — data records (all versions in one cell, §5.1)
    - [c/...] — atomic counters (tids, rids, B+tree node ids)
    - [m/cm/<id>] — published commit-manager state (§4.2)
    - [l/<tid>] — transaction-log entries (§4.4.1)
    - [i/<index>/...] — B+tree nodes and root pointer (§5.3)
    - [v/<table>/<unit>] — version-set cells for SBVS buffering (§5.5.3)
    - [s/<table>] — schema descriptors *)

val record : table:string -> rid:int -> string
val record_prefix : table:string -> string
val rid_counter : table:string -> string
val tid_counter : string
val commit_manager_state : cm_id:int -> string
val commit_manager_prefix : string
val log_entry : tid:int -> string
val log_prefix : string
val tid_of_log_key : string -> int
val index_node : index:string -> node_id:int -> string
val index_root : index:string -> string
val index_node_counter : index:string -> string

(** Bε index buffers (§3d): [index_buffer_meta] holds the stripe
    boundaries (written at tree creation, immutable); [index_buffer] is
    one message-buffer stripe cell. *)

val index_buffer_meta : index:string -> string

val index_buffer : index:string -> stripe:int -> string
val version_set : table:string -> unit_id:int -> string
val schema : table:string -> string
