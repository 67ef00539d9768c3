(* A flat hash index over int keys (see the interface). Slots hold
   [group + 1] (0 = empty) and the key lives once per group, so a probe
   reads two flat arrays; the table is at most half full, so a probe
   chain always ends at an empty slot. *)

type t = {
  groups : int;
  keys : int array;
  start : int array;
  rows : int array;
  group_of_row : int array;
  slots : int array;
  shift : int;
}

(* An odd 62-bit multiplier: the slot is the top bits of [k * mult], so
   every key bit reaches the slot number. *)
let mult = 0x2545F4914F6CDD1D

(* Table bits: the smallest power of two holding at least [2n] slots. *)
let bits_for n =
  let rec go b = if 1 lsl b >= 2 * n then b else go (b + 1) in
  go 4

let slot shift h = (h * mult) lsr shift

let find t k =
  let mask = Array.length t.slots - 1 in
  let rec probe i =
    let s = t.slots.(i) in
    if s = 0 then -1
    else if t.keys.(s - 1) = k then s - 1
    else probe ((i + 1) land mask)
  in
  probe (slot t.shift k)

let home t k = slot t.shift k

let bucket groups (g : int array) =
  (* count each group's rows one slot to the right, so the prefix sum
     turns the counts into offsets in place *)
  let start = Array.make (groups + 1) 0 in
  Array.iter (fun x -> if x >= 0 then start.(x + 1) <- start.(x + 1) + 1) g;
  for x = 1 to groups do
    start.(x) <- start.(x) + start.(x - 1)
  done;
  let fill = Array.sub start 0 groups in
  let rows = Array.make start.(groups) 0 in
  Array.iteri
    (fun r x ->
       if x >= 0 then begin
         rows.(fill.(x)) <- r;
         fill.(x) <- fill.(x) + 1
       end)
    g;
  (start, rows)

let build (a : int array) =
  let n = Array.length a in
  let bits = bits_for n in
  let mask = (1 lsl bits) - 1 and shift = Sys.int_size - bits in
  let slots = Array.make (mask + 1) 0 in
  let keys = Array.make n 0 and groups = ref 0 in
  (* [Array.init] runs in row order: groups are numbered first-seen *)
  let group_of_row =
    Array.init n (fun r ->
        let k = a.(r) in
        let rec probe i =
          let s = slots.(i) in
          if s = 0 then begin
            let g = !groups in
            keys.(g) <- k;
            slots.(i) <- g + 1;
            incr groups;
            g
          end
          else if keys.(s - 1) = k then s - 1
          else probe ((i + 1) land mask)
        in
        probe (slot shift k))
  in
  let groups = !groups in
  let start, rows = bucket groups group_of_row in
  { groups; keys; start; rows; group_of_row; slots; shift }

let first_rows (cols : int array array) n =
  let bits = bits_for n in
  let mask = (1 lsl bits) - 1 and shift = Sys.int_size - bits in
  let slots = Array.make (mask + 1) 0 in
  let ncols = Array.length cols in
  (* with one column this is [slot]: the single-key case hashes exactly
     like [build] *)
  let hash r =
    let h = ref 0 in
    for c = 0 to ncols - 1 do
      h := (!h lxor cols.(c).(r)) * mult
    done;
    !h lsr shift
  in
  let same r s =
    let rec go c = c >= ncols || (cols.(c).(r) = cols.(c).(s) && go (c + 1)) in
    go 0
  in
  let keep = Array.make n 0 and kept = ref 0 in
  for r = 0 to n - 1 do
    let rec probe i =
      let s = slots.(i) in
      if s = 0 then begin
        slots.(i) <- r + 1;
        keep.(!kept) <- r;
        incr kept
      end
      else if not (same (s - 1) r) then probe ((i + 1) land mask)
    in
    probe (hash r)
  done;
  Array.sub keep 0 !kept

let number (a : int array) n =
  let codes = Array.make n 0 in
  let keys = ref (Array.make 16 0) and k = ref 0 in
  let bits = ref 4 in
  let slots = ref (Array.make 16 0) in
  (* double the table before it passes half full: numbers stay, only
     their slots move *)
  let grow () =
    incr bits;
    let mask = (1 lsl !bits) - 1 and shift = Sys.int_size - !bits in
    let tbl = Array.make (mask + 1) 0 in
    for c = 1 to !k do
      let i = ref (slot shift !keys.(c - 1)) in
      while tbl.(!i) <> 0 do i := (!i + 1) land mask done;
      tbl.(!i) <- c
    done;
    slots := tbl
  in
  for r = 0 to n - 1 do
    let x = a.(r) in
    if x >= 0 then begin
      if 2 * (!k + 1) > Array.length !slots then grow ();
      let tbl = !slots in
      let mask = Array.length tbl - 1 in
      let i = ref (slot (Sys.int_size - !bits) x) and code = ref 0 in
      while !code = 0 do
        let s = tbl.(!i) in
        if s = 0 then begin
          if !k = Array.length !keys then begin
            let bigger = Array.make (2 * !k) 0 in
            Array.blit !keys 0 bigger 0 !k;
            keys := bigger
          end;
          !keys.(!k) <- x;
          incr k;
          tbl.(!i) <- !k;
          code := !k
        end
        else if !keys.(s - 1) = x then code := s
        else i := (!i + 1) land mask
      done;
      codes.(r) <- !code
    end
  done;
  (codes, Array.sub !keys 0 !k)
