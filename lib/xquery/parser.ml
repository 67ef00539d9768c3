(* Recursive-descent parser for the supported XQuery subset. A single
   character cursor drives both "query mode" (whitespace/comment-skipping,
   contextual keywords — XQuery has no reserved words) and "constructor
   mode" (direct element constructors, where whitespace and braces are
   significant). *)

open Ast

exception Syntax_error of string * int

type state = { src : string; mutable pos : int }

let error st fmt =
  Format.kasprintf (fun m -> raise (Syntax_error (m, st.pos))) fmt

let peek_char st =
  if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek_char_at st k =
  if st.pos + k < String.length st.src then Some st.src.[st.pos + k] else None

let advance st n = st.pos <- st.pos + n

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let is_digit c = c >= '0' && c <= '9'

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  || Char.code c >= 128

let is_name_char c = is_name_start c || is_digit c || c = '-' || c = '.'

(* Skip whitespace and (possibly nested) XQuery comments "(: ... :)". *)
let rec skip_ws st =
  (match peek_char st with
   | Some c when is_ws c -> advance st 1; skip_ws st
   | _ -> ());
  if looking_at st "(:" then begin
    advance st 2;
    let depth = ref 1 in
    while !depth > 0 do
      if st.pos >= String.length st.src then error st "unterminated comment";
      if looking_at st "(:" then (incr depth; advance st 2)
      else if looking_at st ":)" then (decr depth; advance st 2)
      else advance st 1
    done;
    skip_ws st
  end

(* After skip_ws: does the input start with symbol [s]? *)
let peek_sym st s =
  skip_ws st;
  looking_at st s

let eat_sym st s =
  skip_ws st;
  if looking_at st s then advance st (String.length s)
  else error st "expected %S" s

let try_sym st s =
  skip_ws st;
  if looking_at st s then (advance st (String.length s); true) else false

(* NCName / QName reading (no whitespace skipping: caller decides). *)
let read_ncname st =
  let start = st.pos in
  (match peek_char st with
   | Some c when is_name_start c -> advance st 1
   | _ -> error st "expected a name");
  let rec go () =
    match peek_char st with
    | Some c when is_name_char c -> advance st 1; go ()
    | _ -> ()
  in
  go ();
  String.sub st.src start (st.pos - start)

let read_qname st =
  let n1 = read_ncname st in
  if looking_at st ":" && (match peek_char_at st 1 with
      | Some c -> is_name_start c
      | None -> false)
  then begin
    advance st 1;
    let n2 = read_ncname st in
    Xmldb.Qname.make ~prefix:n1 n2
  end
  else Xmldb.Qname.make n1

(* Does a whole-word keyword appear here? Consumes it if so. *)
let try_keyword st kw =
  skip_ws st;
  let n = String.length kw in
  if looking_at st kw
     && (match peek_char_at st n with
         | Some c -> not (is_name_char c)
         | None -> true)
  then (advance st n; true)
  else false

let expect_keyword st kw =
  if not (try_keyword st kw) then error st "expected keyword %S" kw

(* Lookahead without consuming. *)
let save st = st.pos
let restore st p = st.pos <- p

let peek_keyword st kw =
  let p = save st in
  let r = try_keyword st kw in
  restore st p;
  r

(* -- literals -------------------------------------------------------------- *)

let parse_number st =
  skip_ws st;
  let start = st.pos in
  while (match peek_char st with Some c when is_digit c -> true | _ -> false) do
    advance st 1
  done;
  let is_dec = ref false in
  if looking_at st "." then begin
    is_dec := true;
    advance st 1;
    while (match peek_char st with Some c when is_digit c -> true | _ -> false) do
      advance st 1
    done
  end;
  (match peek_char st with
   | Some ('e' | 'E') ->
     is_dec := true;
     advance st 1;
     (match peek_char st with
      | Some ('+' | '-') -> advance st 1
      | _ -> ());
     while (match peek_char st with Some c when is_digit c -> true | _ -> false) do
       advance st 1
     done
   | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  if text = "" || text = "." then error st "malformed number";
  if !is_dec then E_dec (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> E_int i
    | None -> error st "integer literal %s is out of range" text

let decode_entity st buf =
  (* cursor sits right after '&' *)
  if looking_at st "#x" || looking_at st "#X" then begin
    advance st 2;
    let s = st.pos in
    while (match peek_char st with
        | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> true | _ -> false)
    do advance st 1 done;
    let hex = String.sub st.src s (st.pos - s) in
    if not (looking_at st ";") then error st "malformed character reference";
    advance st 1;
    Buffer.add_utf_8_uchar buf (Uchar.of_int (int_of_string ("0x" ^ hex)))
  end
  else if looking_at st "#" then begin
    advance st 1;
    let s = st.pos in
    while (match peek_char st with Some '0' .. '9' -> true | _ -> false) do
      advance st 1
    done;
    let dec = String.sub st.src s (st.pos - s) in
    if not (looking_at st ";") then error st "malformed character reference";
    advance st 1;
    Buffer.add_utf_8_uchar buf (Uchar.of_int (int_of_string dec))
  end
  else begin
    let name = read_ncname st in
    if not (looking_at st ";") then error st "malformed entity reference";
    advance st 1;
    match name with
    | "lt" -> Buffer.add_char buf '<'
    | "gt" -> Buffer.add_char buf '>'
    | "amp" -> Buffer.add_char buf '&'
    | "quot" -> Buffer.add_char buf '"'
    | "apos" -> Buffer.add_char buf '\''
    | other -> error st "unknown entity &%s;" other
  end

let parse_string_literal st =
  skip_ws st;
  let quote =
    match peek_char st with
    | Some ('"' as q) | Some ('\'' as q) -> advance st 1; q
    | _ -> error st "expected a string literal"
  in
  let buf = Buffer.create 16 in
  let rec go () =
    match peek_char st with
    | None -> error st "unterminated string literal"
    | Some c when c = quote ->
      advance st 1;
      (* doubled quote is an escaped quote *)
      if peek_char st = Some quote then begin
        Buffer.add_char buf quote;
        advance st 1;
        go ()
      end
    | Some '&' -> advance st 1; decode_entity st buf; go ()
    | Some c -> Buffer.add_char buf c; advance st 1; go ()
  in
  go ();
  Buffer.contents buf

(* -- node tests ------------------------------------------------------------ *)

let kind_test_keywords =
  [ "node"; "text"; "comment"; "processing-instruction"; "element";
    "attribute"; "document-node" ]

(* Parse a kind test after having consumed KEYWORD and "(". *)
let parse_kind_test st kw =
  let name_arg () =
    skip_ws st;
    if peek_sym st ")" then None
    else if peek_sym st "*" then (eat_sym st "*"; None)
    else Some (read_qname st)
  in
  let t =
    match kw with
    | "node" -> Nt_kind_node
    | "text" -> Nt_kind_text
    | "comment" -> Nt_kind_comment
    | "document-node" -> Nt_kind_document
    | "element" -> Nt_kind_element (name_arg ())
    | "attribute" -> Nt_kind_attribute (name_arg ())
    | "processing-instruction" ->
      skip_ws st;
      if peek_sym st ")" then Nt_kind_pi None
      else if (match peek_char st with Some ('"' | '\'') -> true | _ -> false)
      then Nt_kind_pi (Some (parse_string_literal st))
      else Nt_kind_pi (Some (read_ncname st))
    | _ -> error st "unknown kind test %s()" kw
  in
  eat_sym st ")";
  t

let parse_node_test st =
  skip_ws st;
  if looking_at st "*" then begin
    advance st 1;
    (* "*" or "*:local" (the latter unsupported, report clearly) *)
    if looking_at st ":" then error st "*:name node tests are not supported";
    Nt_wild
  end
  else begin
    let q = read_qname st in
    if Xmldb.Qname.prefix q <> "" && Xmldb.Qname.local q = "*" then
      Nt_prefix_wild (Xmldb.Qname.prefix q)
    else if looking_at st "(" && Xmldb.Qname.prefix q = ""
            && List.mem (Xmldb.Qname.local q) kind_test_keywords
    then begin
      advance st 1;
      parse_kind_test st (Xmldb.Qname.local q)
    end
    else Nt_name q
  end

(* -- sequence types --------------------------------------------------------- *)

(* ItemType: item(), a kind test, or an atomic type QName. *)
let parse_item_type st =
  skip_ws st;
  let q = read_qname st in
  let local = Xmldb.Qname.local q and prefix = Xmldb.Qname.prefix q in
  skip_ws st;
  if looking_at st "(" then begin
    advance st 1;
    let name_arg () =
      skip_ws st;
      if peek_sym st ")" then None
      else if peek_sym st "*" then (eat_sym st "*"; None)
      else Some (read_qname st)
    in
    let t =
      match local with
      | "item" -> It_item
      | "node" -> It_node
      | "element" -> It_element (name_arg ())
      | "attribute" -> It_attribute (name_arg ())
      | "text" -> It_text
      | "comment" -> It_comment
      | "processing-instruction" ->
        skip_ws st;
        if not (peek_sym st ")") then ignore (read_ncname st);
        It_pi
      | "document-node" ->
        (* optionally document-node(element(...)) — accepted, outer only *)
        skip_ws st;
        if not (peek_sym st ")") then begin
          let depth = ref 0 in
          let stop = ref false in
          while not !stop do
            match peek_char st with
            | None -> error st "unterminated document-node()"
            | Some '(' -> incr depth; advance st 1
            | Some ')' when !depth > 0 -> decr depth; advance st 1
            | Some ')' -> stop := true
            | Some _ -> advance st 1
          done
        end;
        It_document
      | other -> error st "unknown item type %s()" other
    in
    eat_sym st ")";
    t
  end
  else if prefix = "xs" || prefix = "" then It_atomic local
  else error st "unknown type %s" (Xmldb.Qname.to_string q)

let parse_occurrence st =
  (* no whitespace skipping: the indicator must follow the item type *)
  match peek_char st with
  | Some '?' -> advance st 1; Occ_opt
  | Some '+' -> advance st 1; Occ_plus
  | Some '*' -> advance st 1; Occ_star
  | _ -> Occ_one

let parse_sequence_type st =
  skip_ws st;
  let p = save st in
  if try_keyword st "empty-sequence" then begin
    skip_ws st;
    if looking_at st "(" then begin
      eat_sym st "("; eat_sym st ")";
      St_empty
    end
    else begin
      restore st p;
      let t = parse_item_type st in
      St (t, parse_occurrence st)
    end
  end
  else begin
    let t = parse_item_type st in
    St (t, parse_occurrence st)
  end

(* SingleType (cast/castable): an atomic type with an optional "?". *)
let parse_single_type st =
  skip_ws st;
  let q = read_qname st in
  if Xmldb.Qname.prefix q <> "xs" && Xmldb.Qname.prefix q <> "" then
    error st "cast target must be an xs: atomic type";
  let optional = looking_at st "?" in
  if optional then advance st 1;
  (Xmldb.Qname.local q, optional)

(* Function signatures parse types for validation but discard them:
   execution is dynamically typed. *)
let skip_sequence_type st = ignore (parse_sequence_type st)

(* -- expressions ------------------------------------------------------------ *)

let rec parse_expr st : expr =
  let e1 = parse_expr_single st in
  if try_sym st "," then
    let rec collect acc =
      let e = parse_expr_single st in
      if try_sym st "," then collect (e :: acc) else List.rev (e :: acc)
    in
    E_seq (collect [ e1 ])
  else e1

and parse_expr_single st =
  skip_ws st;
  if (peek_keyword st "for" || peek_keyword st "let") && is_dollar_after st
  then parse_flwor st
  else if (peek_keyword st "some" || peek_keyword st "every") && is_dollar_after st
  then parse_quantified st
  else if peek_keyword st "if" && is_paren_after st "if" then parse_if st
  else parse_or st

(* "for" only starts a FLWOR if followed by "$" (otherwise it could be a
   path step <for/>... XQuery has no reserved words). *)
and is_dollar_after st =
  let p = save st in
  let kw_consumed =
    try_keyword st "for" || try_keyword st "let" || try_keyword st "some"
    || try_keyword st "every"
  in
  let r = kw_consumed && (skip_ws st; looking_at st "$") in
  restore st p;
  r

and is_paren_after st kw =
  let p = save st in
  let r = try_keyword st kw && (skip_ws st; looking_at st "(") in
  restore st p;
  r

and parse_var_name st =
  eat_sym st "$";
  Xmldb.Qname.to_string (read_qname st)

and parse_flwor st =
  let clauses = ref [] in
  let rec parse_clauses () =
    if try_keyword st "for" then begin
      let rec one () =
        let var = parse_var_name st in
        let pos_var =
          if try_keyword st "at" then Some (parse_var_name st) else None
        in
        if try_keyword st "as" then skip_sequence_type st;
        expect_keyword st "in";
        let domain = parse_expr_single st in
        clauses := For_clause { var; pos_var; domain } :: !clauses;
        if try_sym st "," then one ()
      in
      one ();
      parse_clauses ()
    end
    else if try_keyword st "let" then begin
      let rec one () =
        let var = parse_var_name st in
        if try_keyword st "as" then skip_sequence_type st;
        eat_sym st ":=";
        let def = parse_expr_single st in
        clauses := Let_clause { var; def } :: !clauses;
        if try_sym st "," then one ()
      in
      one ();
      parse_clauses ()
    end
    else if try_keyword st "where" then begin
      let cond = parse_expr_single st in
      clauses := Where_clause cond :: !clauses;
      parse_clauses ()
    end
  in
  parse_clauses ();
  if !clauses = [] then error st "FLWOR without for/let clause";
  let stable = try_keyword st "stable" in
  let order_by =
    if try_keyword st "order" then begin
      expect_keyword st "by";
      let rec keys acc =
        let key = parse_expr_single st in
        let dir =
          if try_keyword st "descending" then Descending
          else begin
            ignore (try_keyword st "ascending");
            Ascending
          end
        in
        let empty =
          if try_keyword st "empty" then begin
            if try_keyword st "greatest" then Empty_greatest
            else begin
              expect_keyword st "least";
              Empty_least
            end
          end
          else Empty_least
        in
        let spec = { key; dir; empty } in
        if try_sym st "," then keys (spec :: acc) else List.rev (spec :: acc)
      in
      keys []
    end
    else []
  in
  expect_keyword st "return";
  let return_ = parse_expr_single st in
  E_flwor { clauses = List.rev !clauses; order_by; stable; return_ }

and parse_quantified st =
  let q = if try_keyword st "some" then Some_q
    else (expect_keyword st "every"; Every_q) in
  let rec bindings acc =
    let var = parse_var_name st in
    if try_keyword st "as" then skip_sequence_type st;
    expect_keyword st "in";
    let domain = parse_expr_single st in
    if try_sym st "," then bindings ((var, domain) :: acc)
    else List.rev ((var, domain) :: acc)
  in
  let bs = bindings [] in
  expect_keyword st "satisfies";
  let body = parse_expr_single st in
  E_quantified (q, bs, body)

and parse_if st =
  expect_keyword st "if";
  eat_sym st "(";
  let cond = parse_expr st in
  eat_sym st ")";
  expect_keyword st "then";
  let e1 = parse_expr_single st in
  expect_keyword st "else";
  let e2 = parse_expr_single st in
  E_if (cond, e1, e2)

and parse_or st =
  let e1 = parse_and st in
  if try_keyword st "or" then E_or (e1, parse_or st) else e1

and parse_and st =
  let e1 = parse_comparison st in
  if try_keyword st "and" then E_and (e1, parse_and st) else e1

and parse_comparison st =
  let e1 = parse_range st in
  skip_ws st;
  (* value comparisons *)
  let vc =
    if try_keyword st "eq" then Some Veq
    else if try_keyword st "ne" then Some Vne
    else if try_keyword st "lt" then Some Vlt
    else if try_keyword st "le" then Some Vle
    else if try_keyword st "gt" then Some Vgt
    else if try_keyword st "ge" then Some Vge
    else None
  in
  match vc with
  | Some c -> E_value_cmp (c, e1, parse_range st)
  | None ->
    if try_keyword st "is" then E_node_cmp (Is, e1, parse_range st)
    else if try_sym st "<<" then E_node_cmp (Precedes, e1, parse_range st)
    else if try_sym st ">>" then E_node_cmp (Follows, e1, parse_range st)
    (* general comparisons; note "<" must not swallow "<<" or a direct
       constructor — "<" followed by a name-start char would be ambiguous,
       but in comparison position XQuery reads it as the operator *)
    else if try_sym st "!=" then E_general_cmp (Gne, e1, parse_range st)
    else if try_sym st "<=" then E_general_cmp (Gle, e1, parse_range st)
    else if try_sym st ">=" then E_general_cmp (Gge, e1, parse_range st)
    else if try_sym st "=" then E_general_cmp (Geq, e1, parse_range st)
    else if try_sym st "<" then E_general_cmp (Glt, e1, parse_range st)
    else if try_sym st ">" then E_general_cmp (Ggt, e1, parse_range st)
    else e1

and parse_range st =
  let e1 = parse_additive st in
  if try_keyword st "to" then E_range (e1, parse_additive st) else e1

and parse_additive st =
  let e1 = parse_multiplicative st in
  let rec go acc =
    skip_ws st;
    if looking_at st "+" then begin
      advance st 1;
      go (E_arith (Add, acc, parse_multiplicative st))
    end
    else if looking_at st "-" then begin
      advance st 1;
      go (E_arith (Sub, acc, parse_multiplicative st))
    end
    else acc
  in
  go e1

and parse_multiplicative st =
  let e1 = parse_union_expr st in
  let rec go acc =
    skip_ws st;
    if looking_at st "*" && peek_char_at st 1 <> Some ':' then begin
      advance st 1;
      go (E_arith (Mul, acc, parse_union_expr st))
    end
    else if try_keyword st "div" then go (E_arith (Div, acc, parse_union_expr st))
    else if try_keyword st "idiv" then go (E_arith (Idiv, acc, parse_union_expr st))
    else if try_keyword st "mod" then go (E_arith (Mod, acc, parse_union_expr st))
    else acc
  in
  go e1

and parse_union_expr st =
  let e1 = parse_intersect_expr st in
  let rec go acc =
    if try_sym st "|" || try_keyword st "union" then
      go (E_union (acc, parse_intersect_expr st))
    else acc
  in
  go e1

and parse_intersect_expr st =
  let e1 = parse_instanceof st in
  let rec go acc =
    if try_keyword st "intersect" then go (E_intersect (acc, parse_instanceof st))
    else if try_keyword st "except" then go (E_except (acc, parse_instanceof st))
    else acc
  in
  go e1

(* two-word operators: backtrack unless the full keyword pair is present *)
and try_keyword2 st k1 k2 =
  let p = save st in
  if try_keyword st k1 then begin
    if try_keyword st k2 then true
    else begin restore st p; false end
  end
  else false

and parse_instanceof st =
  let e1 = parse_treat st in
  if try_keyword2 st "instance" "of" then
    E_instance_of (e1, parse_sequence_type st)
  else e1

and parse_treat st =
  let e1 = parse_castable st in
  if try_keyword2 st "treat" "as" then E_treat_as (e1, parse_sequence_type st)
  else e1

and parse_castable st =
  let e1 = parse_cast st in
  if try_keyword2 st "castable" "as" then begin
    let ty, opt = parse_single_type st in
    E_castable_as (e1, ty, opt)
  end
  else e1

and parse_cast st =
  let e1 = parse_unary st in
  if try_keyword2 st "cast" "as" then begin
    let ty, opt = parse_single_type st in
    E_cast_as (e1, ty, opt)
  end
  else e1

and parse_unary st =
  skip_ws st;
  if looking_at st "-" then begin
    advance st 1;
    E_unary_minus (parse_unary st)
  end
  else if looking_at st "+" then begin
    (* +E checks its operand as -E does; -(-E) is the identity on every
       number (two's complement ints; doubles, -0 and NaN included) *)
    advance st 1;
    E_unary_minus (E_unary_minus (parse_unary st))
  end
  else parse_path st

(* PathExpr: StepExpr (("/" | "//") StepExpr)* *)
and parse_path st =
  skip_ws st;
  if looking_at st "/" then
    error st "a leading '/' needs a context document; use fn:doc(...)";
  let e1 = parse_step st in
  let rec go acc =
    skip_ws st;
    if looking_at st "//" then begin
      advance st 2;
      let step = parse_step st in
      (* e1//e2 == e1/descendant-or-self::node()/e2 (paper, footnote 1) *)
      let dos =
        E_axis_step (Xmldb.Axis.Descendant_or_self, Nt_kind_node, [])
      in
      go (E_slash (E_slash (acc, dos), step))
    end
    else if looking_at st "/" then begin
      advance st 1;
      go (E_slash (acc, parse_step st))
    end
    else acc
  in
  go e1

(* StepExpr: AxisStep | FilterExpr(primary + predicates) *)
and parse_step st =
  skip_ws st;
  if looking_at st "@" then begin
    advance st 1;
    let t = parse_node_test st in
    E_axis_step (Xmldb.Axis.Attribute, t, parse_predicates st)
  end
  else if looking_at st ".." then begin
    advance st 2;
    E_axis_step (Xmldb.Axis.Parent, Nt_kind_node, parse_predicates st)
  end
  else begin
    (* explicit axis? *)
    let p = save st in
    let axis =
      match peek_char st with
      | Some c when is_name_start c ->
        let name = read_ncname st in
        if looking_at st "::" then begin
          advance st 2;
          match Xmldb.Axis.of_string name with
          | Some a -> Some a
          | None -> error st "unknown axis %s" name
        end
        else begin
          restore st p;
          None
        end
      | _ -> None
    in
    match axis with
    | Some a ->
      let t = parse_node_test st in
      E_axis_step (a, t, parse_predicates st)
    | None -> parse_filter_or_step st
  end

and parse_predicates st =
  let rec go acc =
    skip_ws st;
    if looking_at st "[" then begin
      advance st 1;
      let e = parse_expr st in
      eat_sym st "]";
      go (e :: acc)
    end
    else List.rev acc
  in
  go []

(* In name position: either a primary expression (literal, var, call,
   parens, constructor, ...) with predicates, or an abbreviated child/
   attribute axis step. *)
and parse_filter_or_step st =
  skip_ws st;
  match peek_char st with
  | None -> error st "unexpected end of query"
  | Some '$' ->
    let v = parse_var_name st in
    finish_filter st (E_var v)
  | Some '(' ->
    advance st 1;
    skip_ws st;
    if looking_at st ")" then begin
      advance st 1;
      finish_filter st (E_seq [])
    end
    else begin
      let e = parse_expr st in
      eat_sym st ")";
      finish_filter st e
    end
  | Some '.' when peek_char_at st 1 <> Some '.'
               && (match peek_char_at st 1 with
                   | Some c -> not (is_digit c)
                   | None -> true) ->
    advance st 1;
    finish_filter st E_context_item
  | Some c when is_digit c || c = '.' -> finish_filter st (parse_number st)
  | Some ('"' | '\'') -> finish_filter st (E_str (parse_string_literal st))
  | Some '<' -> finish_filter st (parse_direct_constructor st)
  | Some c when is_name_start c ->
    let p = save st in
    let q = read_qname st in
    let name = Xmldb.Qname.to_string q in
    skip_ws st;
    if name = "typeswitch" && looking_at st "(" then begin
      advance st 1;
      let scrutinee = parse_expr st in
      eat_sym st ")";
      let rec cases acc =
        if try_keyword st "case" then begin
          skip_ws st;
          let tvar =
            if looking_at st "$" then begin
              let v = parse_var_name st in
              expect_keyword st "as";
              Some v
            end
            else None
          in
          let ttype = parse_sequence_type st in
          expect_keyword st "return";
          let tbody = parse_expr_single st in
          cases ({ tvar; ttype; tbody } :: acc)
        end
        else List.rev acc
      in
      let cs = cases [] in
      if cs = [] then error st "typeswitch needs at least one case";
      expect_keyword st "default";
      skip_ws st;
      let dvar = if looking_at st "$" then Some (parse_var_name st) else None in
      expect_keyword st "return";
      let dflt = parse_expr_single st in
      finish_filter st (E_typeswitch (scrutinee, cs, (dvar, dflt)))
    end
    (* computed constructors / ordered,unordered blocks *)
    else if looking_at st "{"
       && List.mem name
            [ "ordered"; "unordered"; "text"; "comment"; "document" ]
    then begin
      advance st 1;
      let e = parse_expr st in
      eat_sym st "}";
      finish_filter st
        (match name with
         | "ordered" -> E_ordered e
         | "unordered" -> E_unordered e
         | "text" -> E_text_computed e
         | "comment" -> E_comment_computed e
         | "document" -> E_doc_computed e
         | other -> Basis.Err.internal "parser: unreachable curly constructor %S" other)
    end
    else if List.mem name [ "element"; "attribute"; "processing-instruction" ]
            && (looking_at st "{"
                || (match peek_char st with
                    | Some c' -> is_name_start c'
                    | None -> false))
    then begin
      (* computed element/attribute/PI constructor with const or computed name *)
      let nspec =
        if looking_at st "{" then begin
          advance st 1;
          let ne = parse_expr st in
          eat_sym st "}";
          Name_computed ne
        end
        else begin
          let n = read_qname st in
          Name_const n
        end
      in
      skip_ws st;
      if not (looking_at st "{") then begin
        (* it was not a constructor after all (e.g. "element" used as a
           path step followed by something else): backtrack *)
        restore st p;
        parse_abbrev_step st
      end
      else begin
        advance st 1;
        skip_ws st;
        let body = if looking_at st "}" then E_seq [] else parse_expr st in
        eat_sym st "}";
        finish_filter st
          (match name with
           | "element" -> E_elem_computed (nspec, body)
           | "attribute" -> E_attr_computed (nspec, body)
           | "processing-instruction" -> E_pi_computed (nspec, body)
           | other -> Basis.Err.internal "parser: unreachable computed constructor %S" other)
      end
    end
    else if looking_at st "(" then begin
      if Xmldb.Qname.prefix q = ""
         && List.mem (Xmldb.Qname.local q) kind_test_keywords
      then begin
        (* kind test in abbreviated (child axis) step position *)
        advance st 1;
        let t = parse_kind_test st (Xmldb.Qname.local q) in
        E_axis_step (Xmldb.Axis.Child, t, parse_predicates st)
      end
      else begin
        (* function call *)
        advance st 1;
        skip_ws st;
        let args =
          if looking_at st ")" then (advance st 1; [])
          else begin
            let rec go acc =
              let a = parse_expr_single st in
              if try_sym st "," then go (a :: acc)
              else begin
                eat_sym st ")";
                List.rev (a :: acc)
              end
            in
            go []
          end
        in
        finish_filter st (E_call (name, args))
      end
    end
    else begin
      restore st p;
      parse_abbrev_step st
    end
  | Some '*' ->
    let t = parse_node_test st in
    E_axis_step (Xmldb.Axis.Child, t, parse_predicates st)
  | Some c -> error st "unexpected character %C" c

and parse_abbrev_step st =
  let t = parse_node_test st in
  (* attribute kind tests select the attribute axis even abbreviated *)
  let axis =
    match t with
    | Nt_kind_attribute _ -> Xmldb.Axis.Attribute
    | _ -> Xmldb.Axis.Child
  in
  E_axis_step (axis, t, parse_predicates st)

and finish_filter st e =
  let preds = parse_predicates st in
  if preds = [] then e else E_filter (e, preds)

(* -- direct constructors ---------------------------------------------------- *)

and parse_direct_constructor st =
  (* cursor on '<' *)
  if looking_at st "<!--" then begin
    advance st 4;
    let s = st.pos in
    let rec find () =
      if st.pos + 2 >= String.length st.src then error st "unterminated comment"
      else if looking_at st "-->" then ()
      else (advance st 1; find ())
    in
    find ();
    let content = String.sub st.src s (st.pos - s) in
    advance st 3;
    E_comment_computed (E_str content)
  end
  else if looking_at st "<?" then begin
    advance st 2;
    let target = read_ncname st in
    (match peek_char st with Some c when is_ws c -> advance st 1 | _ -> ());
    let s = st.pos in
    let rec find () =
      if st.pos + 1 >= String.length st.src then error st "unterminated PI"
      else if looking_at st "?>" then ()
      else (advance st 1; find ())
    in
    find ();
    let content = String.sub st.src s (st.pos - s) in
    advance st 2;
    E_pi_computed (Name_const (Xmldb.Qname.make target), E_str content)
  end
  else begin
    advance st 1; (* '<' *)
    let name = read_qname st in
    (* attributes *)
    let rec attrs acc =
      (match peek_char st with
       | Some c when is_ws c -> advance st 1; attrs acc
       | Some c when is_name_start c ->
         let aname = read_qname st in
         skip_attr_ws st;
         if not (looking_at st "=") then error st "expected '=' in attribute";
         advance st 1;
         skip_attr_ws st;
         let pieces = parse_attr_value st in
         attrs ((aname, pieces) :: acc)
       | _ -> List.rev acc)
    in
    let attributes = attrs [] in
    if looking_at st "/>" then begin
      advance st 2;
      E_elem_direct (name, attributes, [])
    end
    else begin
      if not (looking_at st ">") then error st "expected '>'";
      advance st 1;
      let content = parse_element_content st in
      if not (looking_at st "</") then error st "expected closing tag";
      advance st 2;
      let close = read_qname st in
      if not (Xmldb.Qname.equal close name) then
        error st "mismatched constructor tags <%s>...</%s>"
          (Xmldb.Qname.to_string name) (Xmldb.Qname.to_string close);
      (match peek_char st with Some c when is_ws c -> advance st 1 | _ -> ());
      if not (looking_at st ">") then error st "expected '>'";
      advance st 1;
      E_elem_direct (name, attributes, content)
    end
  end

and skip_attr_ws st =
  while (match peek_char st with Some c when is_ws c -> true | _ -> false) do
    advance st 1
  done

and parse_attr_value st =
  let quote =
    match peek_char st with
    | Some ('"' as q) | Some ('\'' as q) -> advance st 1; q
    | _ -> error st "expected quoted attribute value"
  in
  let pieces = ref [] in
  let buf = Buffer.create 16 in
  let flush_text () =
    if Buffer.length buf > 0 then begin
      pieces := Ap_text (Buffer.contents buf) :: !pieces;
      Buffer.clear buf
    end
  in
  let rec go () =
    match peek_char st with
    | None -> error st "unterminated attribute value"
    | Some c when c = quote ->
      advance st 1;
      if peek_char st = Some quote then begin
        Buffer.add_char buf quote;
        advance st 1;
        go ()
      end
    | Some '{' when peek_char_at st 1 = Some '{' ->
      Buffer.add_char buf '{'; advance st 2; go ()
    | Some '}' when peek_char_at st 1 = Some '}' ->
      Buffer.add_char buf '}'; advance st 2; go ()
    | Some '{' ->
      flush_text ();
      advance st 1;
      let e = parse_expr st in
      eat_sym st "}";
      pieces := Ap_expr e :: !pieces;
      go ()
    | Some '&' -> advance st 1; decode_entity st buf; go ()
    | Some c -> Buffer.add_char buf c; advance st 1; go ()
  in
  go ();
  flush_text ();
  List.rev !pieces

and parse_element_content st =
  let pieces = ref [] in
  let buf = Buffer.create 32 in
  let flush_text () =
    if Buffer.length buf > 0 then begin
      pieces := C_text (Buffer.contents buf) :: !pieces;
      Buffer.clear buf
    end
  in
  let rec go () =
    match peek_char st with
    | None -> error st "unterminated element constructor"
    | Some '<' when looking_at st "</" -> flush_text ()
    | Some '<' when looking_at st "<![CDATA[" ->
      advance st 9;
      let s = st.pos in
      let rec find () =
        if st.pos + 2 >= String.length st.src then error st "unterminated CDATA"
        else if looking_at st "]]>" then ()
        else (advance st 1; find ())
      in
      find ();
      Buffer.add_string buf (String.sub st.src s (st.pos - s));
      advance st 3;
      go ()
    | Some '<' ->
      flush_text ();
      let e = parse_direct_constructor st in
      pieces := C_elem e :: !pieces;
      go ()
    | Some '{' when peek_char_at st 1 = Some '{' ->
      Buffer.add_char buf '{'; advance st 2; go ()
    | Some '}' when peek_char_at st 1 = Some '}' ->
      Buffer.add_char buf '}'; advance st 2; go ()
    | Some '{' ->
      flush_text ();
      advance st 1;
      let e = parse_expr st in
      eat_sym st "}";
      pieces := C_expr e :: !pieces;
      go ()
    | Some '&' -> advance st 1; decode_entity st buf; go ()
    | Some c -> Buffer.add_char buf c; advance st 1; go ()
  in
  go ();
  List.rev !pieces

(* -- prolog & entry point ---------------------------------------------------- *)

let parse_prolog st =
  let ordering = ref None in
  let boundary_space = ref Bs_strip in
  let functions = ref [] in
  let rec go () =
    if peek_keyword st "declare" then begin
      expect_keyword st "declare";
      if try_keyword st "ordering" then begin
        (if try_keyword st "ordered" then ordering := Some Ordered
         else begin
           expect_keyword st "unordered";
           ordering := Some Unordered
         end);
        eat_sym st ";";
        go ()
      end
      else if try_keyword st "function" then begin
        skip_ws st;
        let fq = read_qname st in
        let fname = Xmldb.Qname.to_string fq in
        eat_sym st "(";
        skip_ws st;
        let params =
          if looking_at st ")" then (advance st 1; [])
          else begin
            let rec ps acc =
              let v = parse_var_name st in
              if try_keyword st "as" then skip_sequence_type st;
              if try_sym st "," then ps (v :: acc)
              else begin
                eat_sym st ")";
                List.rev (v :: acc)
              end
            in
            ps []
          end
        in
        if try_keyword st "as" then skip_sequence_type st;
        eat_sym st "{";
        let body = parse_expr st in
        eat_sym st "}";
        eat_sym st ";";
        functions := { fname; params; body } :: !functions;
        go ()
      end
      else if try_keyword st "boundary-space" then begin
        (if try_keyword st "preserve" then boundary_space := Bs_preserve
         else begin
           expect_keyword st "strip";
           boundary_space := Bs_strip
         end);
        eat_sym st ";";
        go ()
      end
      else if try_keyword st "variable" then begin
        error st "declare variable is not supported; use let"
      end
      else error st "unsupported prolog declaration"
    end
  in
  go ();
  { ordering = !ordering; boundary_space = !boundary_space;
    functions = List.rev !functions }

let parse_query src =
  let st = { src; pos = 0 } in
  let prolog = parse_prolog st in
  let body = parse_expr st in
  skip_ws st;
  if st.pos <> String.length st.src then
    error st "trailing input after query body";
  { prolog; body }

(* Parse a single expression (no prolog); used by tests. *)
let parse_expression src =
  let st = { src; pos = 0 } in
  let e = parse_expr st in
  skip_ws st;
  if st.pos <> String.length st.src then error st "trailing input";
  e
