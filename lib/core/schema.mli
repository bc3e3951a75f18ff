(** Relational schema descriptors.

    Every table maps to a rid-keyed record space plus a primary-key
    B+tree and optional secondary B+trees (§5.1, Figure 4).  Schemas are
    persisted in the store under "s/<table>" so any processing node can
    discover them. *)

type column = { col_name : string; col_type : Value.ty }

type index = {
  idx_name : string;
  idx_columns : int list;  (** positions into the table's columns *)
  idx_unique : bool;
}

type table = {
  tbl_name : string;
  columns : column array;
  primary_key : int list;
  secondary : index list;
}

exception Schema_error of string

val make_table :
  name:string ->
  columns:column list ->
  primary_key:string list ->
  secondary:(string * string list * bool) list ->
  table
(** [secondary] entries are (index name, column names, unique). *)

val column_index : table -> string -> int
(** Case-insensitive; raises {!Schema_error} when absent. *)

val all_indexes : table -> index list
(** Primary first (if the table has a primary key), then secondary. *)

val key_of_tuple : columns:int list -> Value.t array -> Value.t list
val validate_tuple : table -> Value.t array -> unit
val encode_table : table -> string
val decode_table : string -> table
