(** Per-operator wall-clock profiling — the instrument behind the paper's
    Table 2 (the Q11 execution-time breakdown). The compiler labels plan
    nodes with the sub-expression category they implement; the executor
    adds each node's local evaluation time to its label's bucket. *)

type t

(** Accumulation is race-free: every mutator and aggregating read holds
    an internal lock, so a profile shared across domains (or rendered
    while a query runs) never loses increments. The morsel-parallel
    executor still counts only on its coordinating domain, which is what
    keeps counter values bit-identical between serial and parallel
    runs. *)

(** Physical-executor counters: work the typed-column machinery did and
    which paths it took. All zero unless the physical backend ran with
    this profile. *)
type phys = {
  mutable kernels : int;      (** physical kernel invocations *)
  mutable fused_ops : int;
      (** logical operators covered by kernels, summed over invocations.
          Every plan node runs as one kernel, so this always
          equals [kernels]; it stays as the exact count [perfbench]
          reports as [exec.fused_ops]. *)
  mutable rows_in : int;      (** input rows summed over kernel invocations *)
  mutable rows_out : int;     (** output rows summed over kernel invocations *)
  mutable mat_forced : int;   (** batches boxed into tables for a
                                  boxed-fallback kernel or the final
                                  serialization *)
  mutable retypes : int;      (** Mixed → typed column conversions *)
  mutable joins_aligned : int;
      (** typed equality joins whose two key sequences were identical
          and strictly ascending: the inputs' columns side by side are
          the output, no index is built *)
  mutable joins_merged : int;
      (** typed equality joins over two ascending key sequences, matched
          by a merge *)
  mutable joins_hashed : int;
      (** typed equality joins matched through a flat hash index *)
  mutable theta_sorted : int;
      (** inequality theta joins ([<], [<=], [>], [>=]) that sorted their
          typed left keys and swept the pairs; a join with an empty side
          compares nothing and counts as neither path *)
  mutable theta_boxed : int;
      (** inequality theta joins run as the boxed nested loop: key shapes
          with no typed path *)
  mutable sorts_elided : int;
      (** interior [%] nodes rewritten away because the required order
          was proved to already hold ({!Props}) *)
  mutable sorts_to_merges : int;
      (** [%] sorts replaced by k-way run merges: the kernel found its
          input in at most 64 sorted runs *)
  mutable root_sort_elided : int;
      (** root sort-on-pos skipped: one scan found the result's [pos]
          column non-decreasing *)
  mutable code_preds : int;
      (** equality kernels that keyed a text-id column and its comparand
          on the store's text pool and compared integer ids (no string
          materialization), one per kernel *)
  mutable bulk_decodes : int;
      (** column rows this run's batched staircase scans decoded through
          {!Xmldb.Doc_store}'s bulk range accessors *)
  mutable late_materializations : int;
      (** text-id columns boxed into strings at pipeline breakers, for
          consumers that need the text, or for the final result; one per
          column use *)
}

val create : unit -> t

val phys : t -> phys

(** One physical kernel invocation with its input and output row
    counts. *)
val add_kernel : t -> rows_in:int -> rows_out:int -> unit

val count_mat_forced : t -> unit
val count_retype : t -> unit

(** One typed equality join, by how its pairs were enumerated. *)
val count_join_aligned : t -> unit

val count_join_merged : t -> unit
val count_join_hashed : t -> unit

(** One inequality theta join, by the path it took. *)
val count_theta_sorted : t -> unit
val count_theta_boxed : t -> unit

(** [add_sorts_elided t k] records [k] interior [%] nodes the rewriter
    replaced with [#] stamps for the profiled query. *)
val add_sorts_elided : t -> int -> unit

val count_sort_merge : t -> unit
val count_root_sort_elided : t -> unit

val count_code_pred : t -> unit

(** [add_bulk_decodes t k] folds a run's [k] bulk-decoded rows into the
    profile. *)
val add_bulk_decodes : t -> int -> unit

val count_late_mat : t -> unit

(** [add t label seconds] accumulates into [label]'s bucket. *)
val add : t -> string -> float -> unit

(** [add_node t id label seconds] attributes one evaluation of the plan
    node with hash-cons id [id]. Under DAG evaluation every node is added
    once; tree evaluation accumulates repeat counts on shared nodes. *)
val add_node : t -> int -> string -> float -> unit

(** Distinct plan nodes that were evaluated at least once. *)
val unique_nodes : t -> int

(** Total node evaluations ([= unique_nodes] under DAG evaluation). *)
val node_evals : t -> int

(** Per-node attribution, most expensive first: (id, label, evals, seconds). *)
val node_rows : t -> (int * string * int * float) list

val total : t -> float

(** Buckets with their accumulated seconds, largest first. *)
val rows : t -> (string * float) list

(** Render in the style of the paper's Table 2: time in ms and % share. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
