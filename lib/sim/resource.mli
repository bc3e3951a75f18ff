(** FCFS queueing resource with [k] parallel servers.

    Models a CPU (or any capacity-limited stage): a fiber calling {!use}
    waits until one of the [k] servers is free, occupies it for the given
    service demand of virtual time, then releases it.  Utilisation and
    queueing statistics are tracked so benchmarks can report saturation. *)

type t

val create : Engine.t -> servers:int -> string -> t
val label : t -> string
val servers : t -> int

val use : t -> demand:int -> unit
(** [use t ~demand] blocks the calling fiber for queueing delay plus
    [demand] ns of service. *)

val queue_length : t -> int

val busy_time : t -> int
(** Cumulative server-occupancy time (ns x servers), for utilisation:
    [busy_time /. (elapsed * servers)]. *)
