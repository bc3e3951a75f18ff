(** Multi-version data records (§5.1).

    A relational row is stored as one key-value pair whose value holds
    {e all} versions of the row.  One read returns every version so the
    reader picks the one valid under its snapshot locally; one conditional
    write installs a new version or detects a write-write conflict. *)

type payload = Tuple of Value.t array | Tombstone

type version = { version : int; payload : payload }

type t
(** Versions are kept newest-first. *)

val empty : t
val of_versions : version list -> t

val versions : t -> version list
(** Newest first. *)

val version_numbers : t -> int list

val add_version : t -> version:int -> payload -> t
(** Insert (or replace, when re-writing the same transaction's buffered
    update) the version slot for [version]. *)

val latest_visible : t -> visible:(int -> bool) -> version option
(** The version with the highest number accepted by [visible]. *)

val newest : t -> version option

val gc : t -> lav:int -> t * int list
(** Drop every version that can never be read again (§5.4): all versions
    [<= lav] except the newest of them.  Returns the compacted record and
    the dropped version numbers.  If the survivor of the [<= lav] group is
    a tombstone and nothing newer exists, the record becomes {!is_empty}
    and the cell itself may be removed from the store. *)

val is_empty : t -> bool
val remove_version : t -> version:int -> t
val encode : t -> string
val decode : string -> t
