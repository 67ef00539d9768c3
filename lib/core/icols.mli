(** Column dependency analysis and plan simplification (paper,
    Section 4.1, plus the Section 4.2 / Section 7 rewrites it enables).

    Phase 1 walks the DAG top-down and infers, per operator, the set of
    strictly required columns — seeded at the root with [{pos, item}],
    the columns needed to serialize the query result (Figure 8).

    Phase 2 rebuilds the DAG bottom-up:
    {ul
    {- operators producing unrequired columns ([%], [#], [@], [fun]) are
       pruned — this cashes in the order indifference the Figure-7 rules
       introduced (Figure 6(b) → Figure 9);}
    {- projections narrow to the required columns and fuse;}
    {- rownum order criteria drop constant columns; a rownum left with
       only arbitrary (#-born) criteria and constant partitioning degrades
       into a free [#] (Section 7);}
    {- adjacent steps merge — [descendant-or-self::node()/child::nt]
       becomes [descendant::nt] — once no order-establishing operator
       remains between them (the Q6/Q7 "exceptional speedup");}
    {- [σ] over a comparison over a cross product fuses into a theta join
       (a lightweight form of Pathfinder's join recognition [9]).}} *)

(** Analyze and rewrite to a fixpoint (at most [max_rounds] rounds). The
    properties come from one {!Algebra.Props} analyzer shared by every
    round. *)
val optimize :
  ?max_rounds:int -> Algebra.Plan.builder -> Algebra.Plan.node -> Algebra.Plan.node
