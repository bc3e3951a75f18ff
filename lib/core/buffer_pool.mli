(** Processing-node buffering strategies (§5.5).

    Reads of data records from the transaction layer flow through a
    {!pool}; the pool decides whether a buffered copy may serve a given
    snapshot or whether the store must be consulted:

    - {!Transaction_buffer}: no PN-wide state — every read goes to the
      store (the per-transaction cache lives in the transaction itself).
    - {!Shared_record_buffer}: an LRU of records tagged with a validity
      version set [B]; a transaction with snapshot [V_tx ⊆ B] hits.
      Entries are (re)tagged with [V_max], the snapshot of the most
      recently started transaction on this PN.
    - {!Shared_vs_buffer}: additionally keeps one version-set cell per
      {e cache unit} of records in the store; a miss first refetches the
      small cell and revalidates before refetching the record.  Writers
      grow the unit cell with an LL/SC read-modify-write union, so
      "cell unchanged" soundly implies "record unchanged". *)

type strategy =
  | Transaction_buffer
  | Shared_record_buffer of { capacity : int }
  | Shared_vs_buffer of { capacity : int; unit_size : int }

type pool

val create :
  Tell_kv.Client.t -> strategy -> vmax:(unit -> Version_set.t) -> pool

val strategy : pool -> strategy

val read_many :
  pool -> snapshot:Version_set.t -> (string * int) list -> (Record.t * int) option list
(** [read_many pool ~snapshot pairs] returns, for each [(table, rid)] in
    order, the full multi-version record and its LL/SC token — from the
    buffer when valid for [snapshot], from the store otherwise — or
    [None] if the record does not exist.  The only read path, for one
    record or many: at most one store multi-get per round (unit cells,
    then records, under SBVS; records only under TB/SB). *)

val note_applied :
  pool -> table:string -> rid:int -> record:Record.t -> token:int -> tid:int -> unit
(** Write-through hook called after a transaction's update was applied
    successfully: refresh the buffered copy (tagged [V_max ∪ {tid}]) and,
    under {!Shared_vs_buffer}, grow the unit's version-set cell. *)

(** {1 Statistics} *)

val hits : pool -> int
val misses : pool -> int
val extra_requests : pool -> int
(** Version-set cell traffic of {!Shared_vs_buffer}. *)

val unit_cell_give_ups : pool -> int
(** {!note_applied} calls under {!Shared_vs_buffer} whose unit-cell grow
    lost all 8 of its LL/SC attempts to concurrent writers and gave up,
    leaving the store's cell without the writer's tid. *)
