(** Direct serialization graph over the committed transactions of one
    recorded history (Adya's DSG; see "A Critique of Snapshot Isolation"
    in PAPERS.md and DESIGN.md §7).

    Nodes are committed tids.  Edges carry the key they were induced by:
    - [Ww]: src installed the version-order predecessor of a version dst
      installed on [key];
    - [Wr]: dst observed the version src installed on [key];
    - [Rw] (anti-dependency): src observed a version of [key] whose
      immediate version-order successor dst installed.

    Self-edges are never added (a transaction overwriting its own read is
    not a dependency). *)

type label = Ww | Wr | Rw

type edge = { src : int; dst : int; label : label; key : string }

type t

val create : unit -> t

val add_edge : t -> src:int -> dst:int -> label:label -> key:string -> unit
(** Deduplicates identical edges; drops self-edges. *)

val nodes : t -> int list
val out : t -> int -> edge list

val sccs : t -> int list list
(** Strongly connected components (Tarjan).  Singleton components are
    included; since there are no self-edges they are always cycle-free. *)

val shortest_cycle :
  t -> within:(int -> bool) -> allowed:(label -> bool) -> start:int -> edge list option
(** Shortest cycle through [start] using only [allowed]-labelled edges
    between [within] nodes (BFS, so minimal in edge count and simple). *)

val shortest_si_cycle : t -> within:(int -> bool) -> start:int -> edge list option
(** Shortest {e SI-violating} cycle through [start]: one in which no two
    cyclically adjacent edges are both [Rw].  SI admits only cycles that
    contain two consecutive anti-dependency edges (Fekete et al.; write
    skew is the canonical admitted case), so any cycle this finds proves
    the history is not SI.  Non-simple walks are discarded rather than
    reported — a pragmatic soundness trade-off documented in DESIGN.md
    §7. *)

val pp_cycle : Format.formatter -> edge list -> unit
(** ["T5 -ww(r/stock/000000000007)-> T9 -rw(...)-> T5"]. *)
