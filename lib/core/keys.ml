(* Key-space layout of Tell inside the record store.

   Single-character namespaces keep requests small:
     r/<table>/<rid>      data records (all versions in one cell, §5.1)
     c/...                atomic counters (tids, rids, B+tree node ids)
     m/cm/<id>            published commit-manager state (§4.2)
     l/<tid>              transaction log entries (§4.4.1)
     i/<index>/n/<id>     B+tree nodes (§5.3)
     i/<index>/root       B+tree root pointer
     i/<index>/bufmeta    Bε buffer stripe boundaries (immutable, §3d)
     i/<index>/b/<k>      Bε buffer stripe cells (message queues, §3d)
     v/<table>/<unit>     version-set cells for SBVS buffering (§5.5.3)
     s/<table>            schema descriptors *)

let record ~table ~rid = Printf.sprintf "r/%s/%012d" table rid
let record_prefix ~table = Printf.sprintf "r/%s/" table

let rid_counter ~table = "c/rid/" ^ table
let tid_counter = "c/tid"
let commit_manager_state ~cm_id = Printf.sprintf "m/cm/%03d" cm_id
let commit_manager_prefix = "m/cm/"

let log_entry ~tid = Printf.sprintf "l/%012d" tid
let log_prefix = "l/"

let tid_of_log_key key =
  int_of_string (String.sub key 2 (String.length key - 2))

let index_node ~index ~node_id = Printf.sprintf "i/%s/n/%d" index node_id
let index_root ~index = Printf.sprintf "i/%s/root" index
let index_node_counter ~index = "c/idx/" ^ index
let index_buffer_meta ~index = Printf.sprintf "i/%s/bufmeta" index
let index_buffer ~index ~stripe = Printf.sprintf "i/%s/b/%03d" index stripe

let version_set ~table ~unit_id = Printf.sprintf "v/%s/%d" table unit_id
let schema ~table = "s/" ^ table
