(** Unbounded FIFO message queue between fibers. *)

type 'a t

val create : Engine.t -> 'a t
val send : 'a t -> 'a -> unit

val recv : 'a t -> 'a
(** Suspends the calling fiber until a message is available. *)

val length : 'a t -> int
