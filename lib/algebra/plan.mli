(** The restricted relational algebra dialect Pathfinder emits (paper,
    Table 1), as a DAG of hash-consed operator nodes.

    Conventions matching the paper:
    {ul
    {- {!constructor:op.Project} does not remove duplicates and doubles as
       renaming;}
    {- {!constructor:op.Rownum} is the "%" primitive
       (ROW_NUMBER() OVER (PARTITION BY part ORDER BY order)) — it
       requires a sort;}
    {- {!constructor:op.Rowid} is "#": arbitrary but unique dense numbers
       at negligible cost;}
    {- {!constructor:op.Attach} plays the role of "× (pos|1)": it attaches
       a constant column;}
    {- {!constructor:op.Step} is the XPath step operator "⊘ ax::nt":
       iter|item context nodes in, per-iteration duplicate-free iter|item
       result nodes out;}
    {- construction operators allocate new nodes in the document store,
       one fragment per evaluation.}}

    Nodes are hash-consed by a {!builder} so equal sub-plans are shared;
    operator counts (e.g. Figure 6's 19 operators) count shared nodes
    once. *)

type col = string

type dir = Asc | Desc

(** The dynamic-type vocabulary for [cast as] / [castable as] /
    [instance of]. *)
type atomic_ty =
  | Ty_integer
  | Ty_double     (** also standing in for xs:decimal / xs:float *)
  | Ty_string
  | Ty_boolean
  | Ty_untyped    (** xs:untypedAtomic: carried as a string *)
  | Ty_any_atomic

type item_ty =
  | Ty_item
  | Ty_node
  | Ty_element of Xmldb.Qname.t option
  | Ty_attribute of Xmldb.Qname.t option
  | Ty_text
  | Ty_comment
  | Ty_pi
  | Ty_document
  | Ty_atomic of atomic_ty

(** Row-wise unary primitives. *)
type prim1 =
  | P_not
  | P_neg
  | P_atomize        (** nodes → their string value; atomics pass through *)
  | P_string         (** fn:string *)
  | P_number         (** fn:number: → xs:double, NaN on failure *)
  | P_position       (** an xs:integer position argument ({!Value.position}) *)
  | P_cast_dbl
  | P_cast_str
  | P_cast_bool
  | P_string_length
  | P_name           (** node → qname string ("" when unnamed) *)
  | P_local_name
  | P_round
  | P_floor
  | P_ceiling
  | P_abs
  | P_is_node
  | P_normalize_space
  | P_check_zero_one    (** raises when the (count) argument exceeds 1 *)
  | P_check_exactly_one (** raises unless the (count) argument equals 1 *)
  | P_check_one_or_more (** raises when the (count) argument is 0 *)
  | P_upper             (** fn:upper-case (ASCII) *)
  | P_lower             (** fn:lower-case (ASCII) *)
  | P_serialize         (** nodes → their XML serialization; atomics → string *)
  | P_cast_as of atomic_ty   (** "cast as": atomizes, then casts; raises *)
  | P_castable of atomic_ty  (** "castable as" on one item: never raises *)
  | P_instance_item of item_ty (** per-item dynamic type test *)
  | P_check_treat       (** raises "treat as" failure unless the bool is true *)
  | P_node_check        (** identity on nodes; dynamic error on atomics (path-step results) *)
  | P_check_node        (** identity on nodes; "expected a node" on atomics ([|], [intersect], [except] operands) *)
  | P_check_singleton   (** raises unless the (count) argument equals 1 (computed constructor names) *)
  | P_error             (** fn:error: raises with the argument as message *)

(** Row-wise binary primitives (value semantics of {!Value}). *)
type prim2 =
  | P_add | P_sub | P_mul | P_div | P_idiv | P_mod
  | P_eq | P_ne | P_lt | P_le | P_gt | P_ge
  | P_and | P_or
  | P_is | P_before | P_after        (** node identity / document order *)
  | P_concat | P_contains | P_starts_with | P_ends_with
  | P_substr_before | P_substr_after

(** Row-wise ternary primitives. *)
type prim3 =
  | P3_substring   (** fn:substring(str, start, len) — 1-based, rounded *)
  | P3_translate   (** fn:translate(str, map, trans) *)

(** Grouped aggregation functions. *)
type agg =
  | A_the            (** the group's single value; dynamic error on more *)
  | A_count
  | A_sum
  | A_max
  | A_min
  | A_avg
  | A_ebv            (** effective boolean value of the group's sequence *)
  | A_str_join of string
      (** fn:string-join with this separator, ordered by the [order] col *)

(** Node tests, by QName (resolved against the store's name pool only at
    evaluation time: construction may intern new names at runtime). *)
type ntest =
  | N_name of Xmldb.Qname.t
  | N_wild
  | N_kind of Xmldb.Node_kind.t
  | N_any
  | N_pi of string

type node = private {
  id : int;                (** unique within one builder *)
  op : op;
  mutable label : string;  (** profiling bucket, set by the compiler *)
}

and op =
  | Lit of { schema : col array; rows : Value.t array list }
  | Project of { input : node; cols : (col * col) list }
      (** [(new_name, src_name)] pairs; duplicates no rows *)
  | Select of { input : node; col : col }
      (** keep rows whose boolean column [col] is true *)
  | Join of { left : node; right : node; lcol : col; rcol : col }
  | Thetajoin of { left : node; right : node; lcol : col; cmp : prim2; rcol : col }
  | Semijoin of { left : node; right : node; on : (col * col) list }
  | Antijoin of { left : node; right : node; on : (col * col) list }
  | Cross of { left : node; right : node }
  | Union of { left : node; right : node }
      (** disjoint union (append); schemas must agree by name *)
  | Distinct of { input : node }  (** full-row duplicate elimination *)
  | Rownum of { input : node; res : col; order : (col * dir) list; part : col option }
  | Rowid of { input : node; res : col }
  | Attach of { input : node; res : col; value : Value.t }
  | Fun1 of { input : node; res : col; f : prim1; arg : col }
  | Fun2 of { input : node; res : col; f : prim2; arg1 : col; arg2 : col }
  | Fun3 of { input : node; res : col; f : prim3; arg1 : col; arg2 : col; arg3 : col }
  | Aggr of { input : node; res : col; agg : agg; arg : col option;
              part : col option; order : col option }
  | Step of { input : node; axis : Xmldb.Axis.t; test : ntest }
  | Doc of { input : node }       (** iter|item:uri → iter|item:node *)
  | Elem of { qnames : node; content : node }
      (** qnames: iter|item (QName/string), content: iter|pos|item *)
  | Attr of { qnames : node; values : node }
  | Textnode of { input : node }
  | Commentnode of { input : node }
  | Pinode of { input : node }    (** iter|target|value *)
  | Range of { input : node; lo : col; hi : col } (** → iter|pos|item *)
  | Textify of { input : node }
      (** fs:item-sequence-to-node-sequence over iter|pos|item: atomic runs
          (pos order, per iteration) become single space-joined text
          nodes; nodes pass through *)
  | Id_lookup of { values : node; context : node }
      (** fn:id: values iter|item (idref strings), context iter|item (one
          node per iteration); yields iter|item element nodes,
          duplicate-free per iteration *)

(** Children of an operator, in argument order. *)
val children : op -> node list

(** Rebuild an operator with its child nodes mapped. *)
val map_children : (node -> node) -> op -> op

(** {2 Hash-consing builder} *)

type builder

val builder : unit -> builder

(** Intern an operator: structurally equal ops (children compared by id)
    return the same node. *)
val mk : builder -> op -> node

(** Set the profiling label (idempotent plan decoration). *)
val set_label : node -> string -> unit

(** {2 Constructors} (thin wrappers over {!mk}) *)

val lit : builder -> col array -> Value.t array list -> node

(** The literal unit loop: a single iteration (iter = 1). *)
val lit_loop : builder -> node

val project : builder -> node -> (col * col) list -> node
val select : builder -> node -> col -> node
val join : builder -> node -> node -> col -> col -> node
val thetajoin : builder -> node -> node -> col -> prim2 -> col -> node
val semijoin : builder -> node -> node -> (col * col) list -> node
val antijoin : builder -> node -> node -> (col * col) list -> node
val cross : builder -> node -> node -> node
val union : builder -> node -> node -> node
val distinct : builder -> node -> node
val rownum : builder -> node -> col -> (col * dir) list -> col option -> node
val rowid : builder -> node -> col -> node
val attach : builder -> node -> col -> Value.t -> node
val fun1 : builder -> node -> col -> prim1 -> col -> node
val fun2 : builder -> node -> col -> prim2 -> col -> col -> node
val fun3 : builder -> node -> col -> prim3 -> col -> col -> col -> node
val aggr : builder -> node -> col -> agg -> col option -> col option -> col option -> node
val step : builder -> node -> Xmldb.Axis.t -> ntest -> node
val doc : builder -> node -> node
val elem : builder -> node -> node -> node
val attr : builder -> node -> node -> node
val textnode : builder -> node -> node
val commentnode : builder -> node -> node
val pinode : builder -> node -> node
val range : builder -> node -> col -> col -> node
val textify : builder -> node -> node
val id_lookup : builder -> node -> node -> node

(** {2 Traversal and statistics} *)

(** All distinct reachable nodes, children before parents. *)
val topo_order : node -> node list

(** Number of distinct operators in the DAG (shared nodes count once, as
    in the paper's figures). *)
val count_ops : node -> int

(** Size of the fully expanded operator tree — what a tree-walking
    executor would evaluate. Saturates at [max_int]. *)
val count_tree_nodes : node -> int

(** [count_tree_nodes] / [count_ops]: 1.0 means no sharing. *)
val sharing_factor : node -> float

(** Short symbol for an operator kind: "%", "#", "⊘", "π", ... *)
val op_symbol : op -> string

(** [count_kind p "%"] — e.g. the number of order-establishing rownums. *)
val count_kind : node -> string -> int
