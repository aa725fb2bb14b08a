(* Mutators over mini-Fortran-D source text.

   Two granularities:
   - token-level: edits inside one line — delete/duplicate/swap a token,
     corrupt an identifier or operator, unbalance parentheses — which
     mostly produce lexically/syntactically ill-formed programs;
   - statement-level: whole-line edits exploiting the language's
     one-statement-per-line surface — delete/duplicate/swap statements,
     rename one identifier occurrence (undeclared-variable errors), add
     a subscript (rank errors), truncate the program mid-unit.

   Every choice draws from the caller's [Random.State.t], so a campaign
   seed reproduces byte-identical mutants. *)

let is_word c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '$' || c = '.'

(* Crude token split: word runs and single non-blank characters.  Good
   enough for mutation — the real lexer decides what the mutant means. *)
let split_tokens line =
  let toks = ref [] and n = String.length line in
  let i = ref 0 in
  while !i < n do
    let c = line.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if is_word c then begin
      let j = ref !i in
      while !j < n && is_word line.[!j] do incr j done;
      toks := String.sub line !i (!j - !i) :: !toks;
      i := !j
    end
    else begin
      toks := String.make 1 c :: !toks;
      incr i
    end
  done;
  List.rev !toks

let join_tokens toks = String.concat " " toks

let pick st xs =
  match xs with [] -> None | _ -> Some (List.nth xs (Random.State.int st (List.length xs)))

(* Lines that are real statements (nonempty, not pure comment). *)
let stmt_indices lines =
  List.filter_map
    (fun (i, t) -> if t <> "" && t.[0] <> '!' then Some i else None)
    (List.mapi (fun i l -> (i, String.trim l)) lines)

let nth_stmt st lines =
  match stmt_indices lines with
  | [] -> None
  | idxs -> pick st idxs

(* --- token-level -------------------------------------------------------- *)

let on_line f st lines =
  match nth_stmt st lines with
  | None -> None
  | Some i -> (
    let line = List.nth lines i in
    match f st line with
    | None -> None
    | Some line' -> Some (List.mapi (fun j l -> if j = i then line' else l) lines))

let tok_delete st line =
  match split_tokens line with
  | [] | [ _ ] -> None
  | toks ->
    let k = Random.State.int st (List.length toks) in
    Some (join_tokens (List.filteri (fun i _ -> i <> k) toks))

let tok_dup st line =
  match split_tokens line with
  | [] -> None
  | toks ->
    let k = Random.State.int st (List.length toks) in
    Some
      (join_tokens
         (List.concat (List.mapi (fun i t -> if i = k then [ t; t ] else [ t ]) toks)))

let tok_swap st line =
  match split_tokens line with
  | [] | [ _ ] -> None
  | toks ->
    let n = List.length toks in
    let k = Random.State.int st (n - 1) in
    let arr = Array.of_list toks in
    let t = arr.(k) in
    arr.(k) <- arr.(k + 1);
    arr.(k + 1) <- t;
    Some (join_tokens (Array.to_list arr))

let tok_corrupt st line =
  let toks = split_tokens line in
  let words = List.filter (fun t -> String.length t > 1) toks in
  match pick st words with
  | None -> None
  | Some w ->
    let junk = [ "?"; "@"; "%"; "0x"; "(" ] in
    let j = Option.get (pick st junk) in
    Some
      (join_tokens
         (List.map (fun t -> if t == w then j else t) toks))

let tok_unbalance st line =
  if String.contains line '(' then
    let i = String.index line '(' in
    Some (String.sub line 0 i ^ String.sub line (i + 1) (String.length line - i - 1))
  else if Random.State.bool st then Some (line ^ " (")
  else Some (line ^ " )")

(* --- statement-level ---------------------------------------------------- *)

let stmt_delete st lines =
  match nth_stmt st lines with
  | None -> None
  | Some i -> Some (List.filteri (fun j _ -> j <> i) lines)

let stmt_dup st lines =
  match nth_stmt st lines with
  | None -> None
  | Some i ->
    Some
      (List.concat
         (List.mapi (fun j l -> if j = i then [ l; l ] else [ l ]) lines))

let stmt_swap st lines =
  match stmt_indices lines with
  | [] | [ _ ] -> None
  | idxs ->
    let a = Option.get (pick st idxs) and b = Option.get (pick st idxs) in
    if a = b then None
    else
      let la = List.nth lines a and lb = List.nth lines b in
      Some
        (List.mapi (fun j l -> if j = a then lb else if j = b then la else l) lines)

let stmt_truncate st lines =
  let n = List.length lines in
  if n < 4 then None
  else
    let keep = 1 + Random.State.int st (n - 2) in
    Some (List.filteri (fun j _ -> j < keep) lines)

(* Rename one identifier occurrence: an undeclared-variable or
   unknown-procedure semantic error with the rest of the program
   intact. *)
let stmt_rename_one st lines =
  on_line
    (fun st line ->
      let toks = split_tokens line in
      let words =
        List.filter
          (fun t ->
            String.length t > 1
            && (t.[0] >= 'a' && t.[0] <= 'z')
            && not (List.mem t [ "program"; "subroutine"; "end"; "call"; "do";
                                 "enddo"; "if"; "then"; "else"; "endif"; "real";
                                 "integer"; "print"; "common"; "parameter" ]))
          toks
      in
      match pick st words with
      | None -> None
      | Some w ->
        Some
          (join_tokens (List.map (fun t -> if t == w then "zz$9" else t) toks)))
    st lines

(* Add a subscript to the first parenthesized reference on a line: a
   rank-mismatch semantic error. *)
let stmt_add_subscript st lines =
  on_line
    (fun _st line ->
      match String.index_opt line '(' with
      | None -> None
      | Some i ->
        Some
          (String.sub line 0 (i + 1)
          ^ "1, "
          ^ String.sub line (i + 1) (String.length line - i - 1)))
    st lines

let mutators =
  [| on_line tok_delete; on_line tok_dup; on_line tok_swap; on_line tok_corrupt;
     on_line tok_unbalance; stmt_delete; stmt_dup; stmt_swap; stmt_truncate;
     stmt_rename_one; stmt_add_subscript |]

let split_lines src = String.split_on_char '\n' src

let mutate st ?(n = 1) src =
  let lines = ref (split_lines src) in
  let applied = ref 0 and tries = ref 0 in
  while !applied < n && !tries < n * 8 do
    incr tries;
    let m = mutators.(Random.State.int st (Array.length mutators)) in
    match m st !lines with
    | Some lines' ->
      lines := lines';
      incr applied
    | None -> ()
  done;
  String.concat "\n" !lines
