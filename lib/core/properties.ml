include Algebra.Props

let infer root =
  let a = make () in
  List.iter (fun n -> ignore (props a n)) (Algebra.Plan.topo_order root);
  a
