(* Frontend tests: lexing, parsing, printing round trips, and semantic
   checking (both acceptance and rejection). *)

open Fd_support
open Fd_frontend

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let parse_ok src = Sema.check_source src

let rejects name src =
  Alcotest.test_case name `Quick (fun () ->
      match Sema.check_source src with
      | _ -> Alcotest.fail "expected a compile error"
      | exception (Diag.Compile_error _ | Diag.Compile_errors _) -> ())

(* Sema rejects [src] with one error located on [line]. *)
let rejects_at name line src =
  Alcotest.test_case name `Quick (fun () ->
      match Sema.check_source src with
      | _ -> Alcotest.fail "expected a compile error"
      | exception Diag.Compile_errors [ d ] ->
        check_int "error line" line d.Diag.loc.Loc.line
      | exception Diag.Compile_errors ds ->
        Alcotest.failf "expected one error, got %d" (List.length ds))

(* --- Lexer ------------------------------------------------------------- *)

let lex_tokens src =
  List.map (fun (_, _, t) -> t) (Lexer.tokenize_sp src)

let l_numbers () =
  (match lex_tokens "42 3.5 1e3 2.5e-2 1.d0" with
  | [ Token.INT 42; Token.REAL_LIT a; Token.REAL_LIT b; Token.REAL_LIT c;
      Token.REAL_LIT d; Token.EOF ] ->
    check "3.5" true (a = 3.5);
    check "1e3" true (b = 1000.0);
    check "2.5e-2" true (c = 0.025);
    check "1.d0" true (d = 1.0)
  | ts -> Alcotest.failf "unexpected tokens: %s"
            (String.concat " " (List.map Token.to_string ts)))

let l_dotted_ops () =
  match lex_tokens "a .eq. b .and. .not. c" with
  | [ Token.IDENT "a"; Token.EQEQ; Token.IDENT "b"; Token.AND; Token.NOT;
      Token.IDENT "c"; Token.EOF ] -> ()
  | ts -> Alcotest.failf "unexpected: %s" (String.concat " " (List.map Token.to_string ts))

let l_dot_vs_real () =
  (* x(1) followed by .eq. must not glue the dot to a number *)
  match lex_tokens "x(1) .eq. 2.0" with
  | [ Token.IDENT "x"; Token.LPAREN; Token.INT 1; Token.RPAREN; Token.EQEQ;
      Token.REAL_LIT _; Token.EOF ] -> ()
  | ts -> Alcotest.failf "unexpected: %s" (String.concat " " (List.map Token.to_string ts))

let l_continuation () =
  let toks = lex_tokens "x = 1 + &\n    2" in
  check "no NEWLINE inside continuation" false
    (List.exists (fun t -> t = Token.NEWLINE) (Listx.take 5 toks))

let l_comments () =
  match lex_tokens "x = 1 ! a comment\ny = 2" with
  | [ Token.IDENT "x"; Token.EQ; Token.INT 1; Token.NEWLINE; Token.IDENT "y";
      Token.EQ; Token.INT 2; Token.EOF ] -> ()
  | ts -> Alcotest.failf "unexpected: %s" (String.concat " " (List.map Token.to_string ts))

let l_case_insensitive () =
  match lex_tokens "DO I = 1, N" with
  | Token.KW "do" :: Token.IDENT "i" :: _ -> ()
  | ts -> Alcotest.failf "unexpected: %s" (String.concat " " (List.map Token.to_string ts))

let l_relational_forms () =
  match lex_tokens "a .lt. b <= c /= d <> e" with
  | [ Token.IDENT "a"; Token.LT; Token.IDENT "b"; Token.LE; Token.IDENT "c";
      Token.NE; Token.IDENT "d"; Token.NE; Token.IDENT "e"; Token.EOF ] -> ()
  | ts -> Alcotest.failf "unexpected: %s" (String.concat " " (List.map Token.to_string ts))

(* --- Parser ------------------------------------------------------------- *)

let simple_program =
  {|
program p
  parameter (n = 10)
  real x(10)
  integer i
  distribute x(block)
  do i = 1, n
    x(i) = float(i) ** 2 / 2.0
  enddo
  if (x(1) > 0.5) then
    x(1) = 0.0
  elseif (x(2) > 0.0) then
    x(2) = 0.0
  else
    x(3) = 0.0
  endif
end
|}

let p_simple () =
  let cp = parse_ok simple_program in
  check_int "one unit" 1 (List.length cp.Sema.units)

let p_precedence () =
  let cp = parse_ok "program p\n  real a\n  a = 1.0 + 2.0 * 3.0 ** 2.0\nend\n" in
  let u = (List.hd cp.Sema.units).Sema.unit_ in
  match (List.hd u.Ast.body).Ast.kind with
  | Ast.Assign (_, Ast.Bin (Ast.Add, Ast.Real_const 1.0,
                            Ast.Bin (Ast.Mul, Ast.Real_const 2.0,
                                     Ast.Bin (Ast.Pow, _, _)))) -> ()
  | _ -> Alcotest.fail "precedence mis-parsed"

let p_one_line_if () =
  let cp = parse_ok "program p\n  integer i\n  if (i > 0) i = 0\nend\n" in
  let u = (List.hd cp.Sema.units).Sema.unit_ in
  match (List.hd u.Ast.body).Ast.kind with
  | Ast.If { then_ = [ _ ]; else_ = []; _ } -> ()
  | _ -> Alcotest.fail "one-line IF mis-parsed"

let p_end_do_two_words () =
  ignore (parse_ok "program p\n  integer i\n  do i = 1, 3\n  end do\nend\n")

let p_do_step () =
  let cp = parse_ok "program p\n  integer i, s\n  do i = 10, 2, -2\n    s = s + i\n  enddo\nend\n" in
  let u = (List.hd cp.Sema.units).Sema.unit_ in
  match (List.hd u.Ast.body).Ast.kind with
  | Ast.Do { step = Some (Ast.Un (Ast.Neg, Ast.Int_const 2)); _ } -> ()
  | _ -> Alcotest.fail "DO step mis-parsed"

let p_align_subs () =
  let cp =
    parse_ok
      "program p\n  real y(4,4)\n  decomposition d(4,4)\n  align y(i,j) with d(j,i)\nend\n"
  in
  let u = (List.hd cp.Sema.units).Sema.unit_ in
  match (List.hd u.Ast.body).Ast.kind with
  | Ast.Align { subs = [ Ast.Align_dim (1, 0); Ast.Align_dim (0, 0) ]; _ } -> ()
  | _ -> Alcotest.fail "ALIGN permutation mis-parsed"

let p_align_offset () =
  let cp =
    parse_ok
      "program p\n  real y(4)\n  decomposition d(8)\n  align y(i) with d(i+2)\nend\n"
  in
  let u = (List.hd cp.Sema.units).Sema.unit_ in
  match (List.hd u.Ast.body).Ast.kind with
  | Ast.Align { subs = [ Ast.Align_dim (0, 2) ]; _ } -> ()
  | _ -> Alcotest.fail "ALIGN offset mis-parsed"

let p_distribute_specs () =
  let cp =
    parse_ok
      "program p\n  real a(4,8)\n  distribute a(:,block_cyclic(2))\nend\n"
  in
  let u = (List.hd cp.Sema.units).Sema.unit_ in
  match (List.hd u.Ast.body).Ast.kind with
  | Ast.Distribute { dists = [ Ast.Star; Ast.Block_cyclic 2 ]; _ } -> ()
  | _ -> Alcotest.fail "DISTRIBUTE specs mis-parsed"

(* --- Printer round trip -------------------------------------------------- *)

let roundtrip src () =
  let cp1 = parse_ok src in
  let printed =
    Ast_printer.program_to_string (List.map (fun cu -> cu.Sema.unit_) cp1.Sema.units)
  in
  let cp2 = parse_ok printed in
  let printed2 =
    Ast_printer.program_to_string (List.map (fun cu -> cu.Sema.unit_) cp2.Sema.units)
  in
  check_str "printer fixpoint" printed printed2

let roundtrip_cases =
  [
    ("roundtrip simple", simple_program);
    ("roundtrip fig1", Fd_workloads.Figures.fig1 ());
    ("roundtrip fig4", Fd_workloads.Figures.fig4 ());
    ("roundtrip fig15", Fd_workloads.Figures.fig15 ());
    ("roundtrip dgefa", Fd_workloads.Dgefa.source ~n:8 ());
    ("roundtrip jacobi2d", Fd_workloads.Stencil.jacobi2d ());
  ]

(* --- Sema acceptance / rejection ----------------------------------------- *)

let s_param_fold () =
  let cp = parse_ok "program p\n  parameter (n = 4, m = n * 2 + 1)\n  real x(m)\nend\n" in
  let st = (List.hd cp.Sema.units).Sema.symtab in
  (match Symtab.array_info st "x" with
  | Some { Symtab.dims = [ (1, 9) ]; _ } -> ()
  | _ -> Alcotest.fail "parameter-sized dimension not folded")

let s_intrinsic_resolution () =
  let cp = parse_ok "program p\n  real x\n  x = abs(-1.5) + max(1.0, 2.0, 3.0)\nend\n" in
  let u = (List.hd cp.Sema.units).Sema.unit_ in
  let saw_funcall = ref 0 in
  Ast.iter_stmts
    (fun s ->
      Ast.iter_exprs_stmt
        (fun e -> match e with Ast.Funcall _ -> incr saw_funcall | _ -> ())
        s)
    u.Ast.body;
  check_int "intrinsics resolved" 2 !saw_funcall

let rejections =
  [
    rejects "undeclared array" "program p\n  x(1) = 0.0\nend\n";
    rejects "rank mismatch" "program p\n  real x(4,4)\n  x(1) = 0.0\nend\n";
    rejects "assign to parameter" "program p\n  parameter (n = 3)\n  n = 4\nend\n";
    rejects "call unknown subroutine" "program p\n  call nosuch()\nend\n";
    rejects "call arity" "program p\n  call f(1)\nend\nsubroutine f(a, b)\n  real a, b\nend\n";
    rejects "logical arithmetic" "program p\n  real x\n  x = .true. + 1.0\nend\n";
    rejects "if on numeric" "program p\n  if (1) then\n  endif\nend\n";
    rejects "two mains" "program p\nend\nprogram q\nend\n";
    rejects "no main" "subroutine f()\nend\n";
    rejects "duplicate declaration" "program p\n  real x\n  integer x\nend\n";
    rejects "align non-array" "program p\n  real x\n  decomposition d(4)\n  align x(i) with d(i)\nend\n";
    rejects "distribute rank" "program p\n  real a(4,4)\n  distribute a(block)\nend\n";
    rejects "assign loop index" "program p\n  integer i\n  do i = 1, 3\n    i = 5\n  enddo\nend\n";
    rejects "nonaffine align sub" "program p\n  real y(4)\n  decomposition d(4)\n  align y(i) with d(i*i)\nend\n";
    rejects "whole array in expression" "program p\n  real x(4), s\n  s = x + 1.0\nend\n";
    (* an actual's rank must match its formal's; otherwise the
       interpreters fail later without a location *)
    rejects_at "call passes an element to an array formal" 3
      "program p\n  real a(16)\n  call s(a(1))\nend\n\
       subroutine s(x)\n  real x(16)\n  x(1) = 3.0\nend\n";
    rejects_at "call passes a scalar to an array formal" 3
      "program p\n  real t\n  call s(t)\nend\n\
       subroutine s(x)\n  real x(16)\n  x(1) = 3.0\nend\n";
    rejects_at "call passes an array to a scalar formal" 3
      "program p\n  real a(16)\n  call r(a)\nend\n\
       subroutine r(y)\n  real y\n  y = 3.0\nend\n";
    rejects_at "call passes a rank-2 array to a rank-1 formal" 3
      "program p\n  real a(4,4)\n  call s(a)\nend\n\
       subroutine s(x)\n  real x(16)\n  x(1) = 3.0\nend\n";
  ]

(* --- Streaming parse: diagnostics and allocation ------------------------ *)

(* The diagnostics a sink holds once [f] has run, sorted. *)
let diags_of f =
  let sink = Diag.sink () in
  f sink;
  match Diag.raise_if_errors sink with
  | () -> []
  | exception Diag.Compile_errors ds -> ds

let lex_diags src = diags_of (fun sink -> ignore (Lexer.tokenize_sp ~sink src))
let parse_diags src = diags_of (fun sink -> ignore (Parser.parse ~sink src))

(* The parser pulls tokens from the lexer as it goes; every lexical error
   the whole-source lexer finds is still reported, on the mostly
   ill-formed fuzz cases. *)
let f_stream_diags () =
  let with_lex_errors = ref 0 in
  for seed = 1 to 2_000 do
    let src, _ = Fd_fuzz.Harness.gen_case seed in
    let lexical = lex_diags src and parsed = parse_diags src in
    if lexical <> [] then incr with_lex_errors;
    List.iter
      (fun d ->
        if not (List.mem d parsed) then
          Alcotest.failf "case %d: the parse drops the lexical error %s" seed
            (Diag.to_string d))
      lexical
  done;
  (* 153 of these cases have one *)
  check "cases with lexical errors" true (!with_lex_errors >= 100)

let span (d : Diag.t) =
  match d.Diag.end_ with
  | Some e -> Fmt.str "%d:%d-%d:%d %s" d.loc.Loc.line d.loc.Loc.col e.Loc.line e.Loc.col d.message
  | None -> Fmt.str "%d:%d %s" d.loc.Loc.line d.loc.Loc.col d.message

(* A lexical error after a syntax error on the same line (the statement
   is skipped to its end), and one inside a unit whose header fails (the
   unit is skipped to the next PROGRAM): both are reported, with spans. *)
let f_stream_skipped_errors () =
  let src =
    "program p\n  integer x\n  x = = 1 #\nend\n\
     subroutine 5\n  y = 1 @ 2\nend\n\
     program q\nend\n"
  in
  Alcotest.(check (list string))
    "diagnostics"
    [ "3:7-3:8 expected expression (found =)";
      "3:11-3:12 unexpected character '#'";
      "5:12-5:13 expected identifier (found INT(5))";
      "6:9-6:10 unexpected character '@'" ]
    (List.map span (parse_diags src))

(* A generated source of [n] statements: DO loops, IFs and assignments
   over arrays and scalars. *)
let big_source n =
  let b = Buffer.create (n * 40) in
  Buffer.add_string b
    "program big\n  parameter (n = 64)\n  real a(n), c(n)\n  integer i, k\n  real s\n";
  for j = 1 to n / 4 do
    Printf.bprintf b "  do i = 2, n - 1\n    a(i) = (c(i-1) + c(i+1)) * %d.5 - s / 2.0\n" j;
    Printf.bprintf b "    if (a(i) .gt. %d.0 .and. k <= n) then\n      s = s + mod(i, %d) ** 2\n" j (j + 1);
    Printf.bprintf b "    endif\n  enddo\n"
  done;
  Buffer.add_string b "end\n";
  Buffer.contents b

(* The parse allocates per token no more than the token's own value, the
   AST built from it and the locations of statement starts; a token list
   or array (28.5 words per token) does not fit under the bound. *)
let f_stream_alloc () =
  let src = big_source 2_000 in
  let tokens = List.length (Lexer.tokenize_sp src) in
  let before = Gc.minor_words () in
  let p = Parser.parse src in
  let words = Gc.minor_words () -. before in
  check "parsed" true (List.length p = 1);
  let per_token = words /. float_of_int tokens in
  if per_token > 12.0 then
    Alcotest.failf "%.1f minor words per token over %d tokens (bound 12)" per_token tokens

let suite =
  [
    Alcotest.test_case "lex numbers" `Quick l_numbers;
    Alcotest.test_case "lex dotted operators" `Quick l_dotted_ops;
    Alcotest.test_case "lex real vs .eq." `Quick l_dot_vs_real;
    Alcotest.test_case "lex continuation" `Quick l_continuation;
    Alcotest.test_case "lex comments" `Quick l_comments;
    Alcotest.test_case "lex case-insensitive keywords" `Quick l_case_insensitive;
    Alcotest.test_case "lex relational spellings" `Quick l_relational_forms;
    Alcotest.test_case "parse simple program" `Quick p_simple;
    Alcotest.test_case "parse precedence" `Quick p_precedence;
    Alcotest.test_case "parse one-line if" `Quick p_one_line_if;
    Alcotest.test_case "parse end do" `Quick p_end_do_two_words;
    Alcotest.test_case "parse do step" `Quick p_do_step;
    Alcotest.test_case "parse align permutation" `Quick p_align_subs;
    Alcotest.test_case "parse align offset" `Quick p_align_offset;
    Alcotest.test_case "parse distribute specs" `Quick p_distribute_specs;
    Alcotest.test_case "sema parameter folding" `Quick s_param_fold;
    Alcotest.test_case "sema intrinsic resolution" `Quick s_intrinsic_resolution;
  ]
  @ List.map (fun (name, src) -> Alcotest.test_case name `Quick (roundtrip src))
      roundtrip_cases
  @ rejections
  @ [ Alcotest.test_case "stream: lexical errors all reported" `Quick f_stream_diags;
      Alcotest.test_case "stream: errors in skipped text reported" `Quick
        f_stream_skipped_errors;
      Alcotest.test_case "stream: parse allocation per token" `Quick f_stream_alloc ]
