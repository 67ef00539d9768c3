include Algebra.Props

let infer root =
  let a = make () in
  List.iter
    (fun n -> ignore (Lazy.force (props a n).ctypes))
    (Algebra.Plan.topo_order root);
  a
