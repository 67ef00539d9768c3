(** The document store: Pathfinder's schema-oblivious XML encoding
    (paper, Section 3 / Figure 5).

    Every XML fragment — a parsed document or a run of constructed
    nodes — is one contiguous pre/size/level table; see {!frag}.
    Attributes are inlined immediately after their owner element (before
    its children) with size 0; every axis except [attribute] skips them.

    Fragments are immutable once finished. Runtime node construction
    allocates fresh fragments, giving constructed trees a document order
    after all existing nodes; *within* a constructed fragment, document
    order is the order content was fed to the {!Builder} — this realizes
    the seq→doc order interaction (paper, Section 2, interaction 2).

    Physically, a finished fragment is frozen into bit-width minimal
    packed columns (u8/u16/u32 per column, chosen from the actual
    maximum; per-fragment dictionaries over the global name/text pools) —
    the MonetDB/X100-style encoded relational back-end of the paper's
    experiments. This is the store's only representation. *)

(** One fragment's pre/size/level table, indexed by preorder rank through
    the [*_at] accessors below. The packed layout is private to the
    store; per-row access cost is O(1). *)
type frag

type t

(** [create ()] makes an empty store. *)
val create : unit -> t

val n_frags : t -> int
val frag : t -> int -> frag
val frag_length : frag -> int

(** Bytes held by all fragment tables (packed column bytes plus one word
    per dictionary entry). Excludes the shared name/text pools. *)
val encoded_bytes : t -> int

(** {2 Per-fragment row accessors}

    These are the only way to read a fragment's table; {!Staircase},
    {!Serialize} and the index structures scan through them. *)

val kind_at : frag -> int -> Node_kind.t

(** Name-pool id at a row (elements, attributes, PI targets); -1 for
    rows without a name. *)
val name_at : frag -> int -> int

(** Text-pool id at a row (text/attribute/comment/PI content); -1 for
    rows without a value. The store interns every such value, [""]
    included, so attribute, text, comment and PI rows always have an id
    [>= 0]. *)
val value_at : frag -> int -> int

(** Number of table rows in the row's subtree (includes inlined
    attribute rows). *)
val size_at : frag -> int -> int

(** Depth; fragment roots are at level 0. *)
val level_at : frag -> int -> int

(** Preorder rank of the parent, -1 for fragment roots. *)
val parent_at : frag -> int -> int

(** {2 Bulk range decoding}

    Each [*_range f lo hi buf] decodes the rows [lo, hi) of one column
    into [buf.(0 .. hi-lo-1)] in a single pass: the packed column's
    bit-width dispatch happens once per call instead of once per row,
    and each width gets a tight copy loop. The caller owns the scratch
    buffer (reuse it across windows); it must hold at least [hi - lo]
    entries. Decoded values agree exactly with the per-row accessors
    above. The store keeps no counters: callers that account decoded
    rows (see {!Staircase.step}) count them per run. *)

val kinds_range : frag -> int -> int -> Node_kind.t array -> unit
val sizes_range : frag -> int -> int -> int array -> unit

(** Raw local name codes (see {!name_code_at}), bulk form. *)
val name_codes_range : frag -> int -> int -> int array -> unit

(** {2 Name codes}

    A fragment's name column stores small local codes: 0 = no name; with
    a dictionary, code [k > 0] denotes dictionary entry [k - 1]; without
    one the code is the global pool id + 1. Code equality coincides with
    name equality — the pool interns and dictionaries are injective,
    hence within one fragment two rows carry equal names iff they carry
    equal codes. This is what lets a name test be translated to a code
    {e once} and evaluated as an integer compare per row. *)

(** Local name code at a row (0 = unnamed). *)
val name_code_at : frag -> int -> int

(** Translate an interned global name id into the fragment's local code.
    [None] = this name cannot occur in the fragment (negative ids — the
    {!name_test_id} "never occurs" marker included): a name test against
    it matches nothing. One probe per (name test, fragment). *)
val name_code_of_id : frag -> int -> int option

(** The store's global text pool: {!value_at} ids index it, so equal ids
    are equal strings in any fragment. *)
val text_pool : t -> Basis.String_pool.t

(** {2 Name and text pools} *)

val intern_name : t -> Qname.t -> int
val name_of_id : t -> int -> Qname.t

(** Name id for a node test; returns -2 (matching no node) when the name
    never occurs in the store. *)
val name_test_id : t -> Qname.t -> int

val text_of_id : t -> int -> string

(** {2 Node accessors} *)

val kind : t -> Node_id.t -> Node_kind.t
val name_id : t -> Node_id.t -> int
val size : t -> Node_id.t -> int
val level : t -> Node_id.t -> int
val name : t -> Node_id.t -> Qname.t option

(** The node's own value (attribute value, text content, ...); [""] for
    elements and documents. *)
val value : t -> Node_id.t -> string

val parent : t -> Node_id.t -> Node_id.t option

(** String value per XDM: elements and documents concatenate their text
    descendants in document order; other kinds return their own value. *)
val string_value : t -> Node_id.t -> string

(** {2 Document registry (fn:doc)} *)

val register_document : t -> string -> Node_id.t -> unit
val find_document : t -> string -> Node_id.t option
val documents : t -> (string * Node_id.t) list

(** Total number of node rows across all fragments (statistics). *)
val total_nodes : t -> int

(** {2 Building fragments}

    A builder accumulates one fragment event-style. Text pushed in
    adjacent calls merges into a single text node (XDM); attributes must
    precede other content of their element. It is the one way fragments
    are made: the XML parser, the interpreter's constructors and both
    executors' construction kernels all build through it. *)
module Builder : sig
  type store := t
  type t

  (** [create ?capacity store] starts an empty fragment with room for
      [capacity] rows; a builder that outgrows it doubles its columns. *)
  val create : ?capacity:int -> store -> t

  (** Rows so far: the preorder rank the next node gets. *)
  val length : t -> int

  val start_document : t -> unit
  val end_document : t -> unit

  (** Open an element. A run of elements named by one [Qname.t] value
      interns the name once. *)
  val start_element : t -> Qname.t -> unit

  val end_element : t -> unit

  (** Add an attribute to the currently open element (or a parentless
      attribute node when no element is open). Raises a dynamic error if
      the open element already has non-attribute content. *)
  val attribute : t -> Qname.t -> string -> unit

  (** [attribute] with a value already in the store's text pool. *)
  val attribute_id : t -> Qname.t -> int -> unit

  (** Append character data; empty strings are ignored, adjacent text
      merges. *)
  val text : t -> string -> unit

  (** [text] of the text-pool string with this id. Unless it merges with
      a preceding text node, the new node keeps the id and nothing is
      interned. *)
  val text_id : t -> int -> unit

  (** Emit a text node even when empty and without merging (computed
      text constructors). *)
  val force_text : t -> string -> unit

  val force_text_id : t -> int -> unit

  val comment : t -> string -> unit
  val comment_id : t -> int -> unit
  val pi : t -> string -> string -> unit

  (** Deep-copy the subtree rooted at the given node (from any fragment of
      the same store) as content of the currently open node — XQuery
      constructor copy semantics. Text merges with an adjacent text
      sibling; a document node copies its children. A subtree is copied
      as one range of rows, decoded column by column. *)
  val copy : t -> Node_id.t -> unit

  (** Freeze into a new fragment and return its id. The builder must be
      balanced and is dead afterwards. Freezing is where packed columns
      are built, from the builder's columns as they are. Every builder
      that is frozen appends exactly one fragment, an empty one
      included. *)
  val freeze : t -> int

  (** [freeze], returning also the node ids of the fragment's roots. *)
  val finish : t -> int * Node_id.t array
end

(** {2 Snapshots}

    A versioned, checksummed on-disk image of a whole store: magic,
    format version, the two pools in dense id order, the document
    registry, then each fragment's packed columns verbatim (one read per
    column at load, no re-encoding); save → load → save is
    byte-identical. Any corruption — bad magic, version skew,
    truncation, checksum mismatch, out-of-range structure — raises
    {!Basis.Err.Dynamic_error}; a failed load never yields a partially
    populated store. *)
module Snapshot : sig
  (** Version written by [save]; [load] refuses any other. *)
  val format_version : int

  val save : t -> string -> unit
  val load : string -> t
  val to_string : t -> string
  val of_string : string -> t
end
