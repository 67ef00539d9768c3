(* Growable arrays. Used pervasively by the store builder, the XML parser
   and the columnar executor, where result sizes are unknown up front. *)

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;  (* fills unused slots; never observed *)
}

let create ?(capacity = 16) dummy =
  let capacity = max capacity 1 in
  { data = Array.make capacity dummy; len = 0; dummy }

let length t = t.len

let clear t = t.len <- 0

let ensure t n =
  if n > Array.length t.data then begin
    let cap = ref (Array.length t.data) in
    while !cap < n do cap := !cap * 2 done;
    let data = Array.make !cap t.dummy in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  ensure t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then Err.internal "Vec.get: index %d out of bounds (length %d)" i t.len;
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then Err.internal "Vec.set: index %d out of bounds (length %d)" i t.len;
  t.data.(i) <- x

let last t =
  if t.len = 0 then Err.internal "Vec.last: empty vector";
  t.data.(t.len - 1)

let pop t =
  if t.len = 0 then Err.internal "Vec.pop: empty vector";
  t.len <- t.len - 1;
  let x = t.data.(t.len) in
  t.data.(t.len) <- t.dummy;
  x

let to_array t = Array.sub t.data 0 t.len

let iter f t =
  for i = 0 to t.len - 1 do f t.data.(i) done

let iteri f t =
  for i = 0 to t.len - 1 do f i t.data.(i) done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do acc := f !acc t.data.(i) done;
  !acc

let of_array dummy a =
  let t = create ~capacity:(max 1 (Array.length a)) dummy in
  Array.iter (push t) a;
  t

let append t other = iter (push t) other
