(** Wire protocol shared by the Method C family.

    Batches are self-identifying: [Data] and [Reply] carry a batch id so
    collectors can match a slave's reply — slaves serve several upstream
    dispatchers in arrival order — with the host-side record of which
    queries the batch contained. *)

type t =
  | Data of int * int array  (** batch id, query keys (dispatcher to slave/router). *)
  | Reply of int * int array  (** batch id, partition-local ranks (slave to target). *)
  | Term  (** End of stream. *)

val data_tag : int
val reply_tag : int
val term_tag : int

(** {2 Op words}

    An interleaved update/query stream rides the same [Data] batches one
    word per op: [tag * Index.Key.sentinel + key]. *)

val op_query : int
val op_insert : int
val op_delete : int

val op_word : int -> int -> int
(** [op_word tag key]. *)

val op_tag : int -> int
val op_key : int -> int
