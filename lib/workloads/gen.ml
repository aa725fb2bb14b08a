(* Random mini-Fortran-D program generator for differential testing: each
   generated program stays within the compiler's documented language
   (affine subscripts, structured control flow) but freely mixes
   distributions, shift widths, procedure boundaries, guards, and dynamic
   redistribution.  Compiled executions are verified element-by-element
   against sequential interpretation, so every generated program is a
   whole-pipeline test case. *)

type spec = {
  g_n : int;                  (* array extent *)
  g_dist : string;            (* "block" or "cyclic" *)
  g_ops : op list;
  g_in_subroutines : bool;    (* operations through procedure boundaries *)
  g_redistribute : bool;      (* a callee that dynamically remaps *)
}

and op =
  | Op_shift of int           (* b(i) = a(i+c); a = b *)
  | Op_axpy of int            (* a(i) = a(i) + k * b(i) *)
  | Op_scale                  (* a(i) = 0.5 * a(i) *)
  | Op_guarded of int         (* if (a(i) > thr) a(i) = a(i) - 1.0 *)
  | Op_multi of int           (* c(i) = a(i+s) + b(i); a(i) = c(i): three arrays
                                 in one statement chain *)

let random_spec (st : Random.State.t) : spec =
  let n = 16 + Random.State.int st 48 in
  let dist = if Random.State.bool st then "block" else "cyclic" in
  let nops = 1 + Random.State.int st 4 in
  let ops =
    List.init nops (fun _ ->
        match Random.State.int st 5 with
        | 0 -> Op_shift (Random.State.int st 4)
        | 1 -> Op_axpy (1 + Random.State.int st 3)
        | 2 -> Op_scale
        | 3 -> Op_multi (Random.State.int st 3)
        | _ -> Op_guarded (Random.State.int st 5))
  in
  { g_n = n;
    g_dist = dist;
    g_ops = ops;
    g_in_subroutines = Random.State.bool st;
    g_redistribute = Random.State.bool st && dist = "block" }

let op_body ~n = function
  | Op_shift c ->
    Fmt.str
      "  do i = 1, %d - %d\n    b(i) = a(i+%d) + 0.25\n  enddo\n  do i = 1, %d\n    a(i) = b(i)\n  enddo"
      n c c n
  | Op_axpy k ->
    Fmt.str "  do i = 1, %d\n    a(i) = a(i) + %d.0 * b(i)\n  enddo" n k
  | Op_scale -> Fmt.str "  do i = 1, %d\n    a(i) = 0.5 * a(i)\n  enddo" n
  | Op_guarded thr ->
    Fmt.str
      "  do i = 1, %d\n    if (a(i) > %d.0) then\n      a(i) = a(i) - 1.0\n    endif\n  enddo"
      n thr
  | Op_multi s ->
    Fmt.str
      "  do i = 1, %d - %d\n    c(i) = a(i+%d) + b(i)\n  enddo\n  do i = 1, %d\n    a(i) = 0.5 * c(i)\n  enddo"
      n s s n

let to_source ?(commons = false) (s : spec) : string =
  let n = s.g_n in
  let decls =
    if commons then
      Fmt.str
        "  parameter (n = %d)\n  common /shared/ a, b, c\n  real a(%d), b(%d), c(%d)\n  integer i"
        n n n n
    else
      Fmt.str "  parameter (n = %d)\n  real a(%d), b(%d), c(%d)\n  integer i" n n
        n n
  in
  let sub idx op =
    if commons then
      Fmt.str "subroutine op%d()\n%s\n%s\nend\n" idx decls (op_body ~n op)
    else
      Fmt.str "subroutine op%d(a, b, c)\n%s\n%s\nend\n" idx decls (op_body ~n op)
  in
  let redist_sub =
    Fmt.str
      "subroutine rphase(a, b)\n%s\n  distribute a(cyclic)\n  distribute b(cyclic)\n  do i = 1, n\n    a(i) = a(i) + b(i)\n  enddo\nend\n"
      decls
  in
  let body_ops =
    if s.g_in_subroutines then
      List.mapi
        (fun idx _ ->
          if commons then Fmt.str "  call op%d()" idx
          else Fmt.str "  call op%d(a, b, c)" idx)
        s.g_ops
    else List.map (op_body ~n) s.g_ops
  in
  let body_ops =
    if s.g_redistribute && not commons then body_ops @ [ "  call rphase(a, b)" ]
    else body_ops
  in
  let subs =
    (if s.g_in_subroutines then List.mapi sub s.g_ops else [])
    @ (if s.g_redistribute && not commons then [ redist_sub ] else [])
  in
  Fmt.str
    "program r\n%s\n  distribute a(%s)\n  distribute b(%s)\n  distribute c(%s)\n  do i = 1, n\n    a(i) = float(mod(i*7, 13))\n    b(i) = float(mod(i*5, 9))\n    c(i) = 0.0\n  enddo\n%s\n  print *, a(1), a(%d)\nend\n%s"
    decls s.g_dist s.g_dist s.g_dist
    (String.concat "\n" body_ops)
    n
    (String.concat "" subs)

let random_source ?commons (st : Random.State.t) : string =
  to_source ?commons (random_spec st)

(* --- 2-D variants -------------------------------------------------------- *)

type spec2d = {
  g2_n : int;
  g2_dist : string;     (* "(block,:)" row-block or "(:,block)" column-block *)
  g2_shifts : (int * int) list;  (* (row shift, col shift) sweeps *)
  g2_in_subroutines : bool;
  g2_multi : bool;      (* a third aligned array and a three-array sweep *)
}

let random_spec2d (st : Random.State.t) : spec2d =
  let n = 8 + Random.State.int st 20 in
  let dist = if Random.State.bool st then "block,:" else ":,block" in
  let nops = 1 + Random.State.int st 3 in
  let shifts =
    List.init nops (fun _ -> (Random.State.int st 3, Random.State.int st 3))
  in
  { g2_n = n; g2_dist = dist; g2_shifts = shifts;
    g2_in_subroutines = Random.State.bool st;
    g2_multi = Random.State.bool st }

let to_source2d (s : spec2d) : string =
  let n = s.g2_n in
  let decls =
    if s.g2_multi then
      Fmt.str
        "  parameter (n = %d)\n  real a(%d,%d), b(%d,%d), c(%d,%d)\n  integer i, j"
        n n n n n n n
    else
      Fmt.str "  parameter (n = %d)\n  real a(%d,%d), b(%d,%d)\n  integer i, j" n
        n n n n
  in
  let op_body (ci, cj) =
    Fmt.str
      "  do i = 1, n - %d\n    do j = 1, n - %d\n      b(i,j) = a(i+%d,j+%d) + 0.25\n    enddo\n  enddo\n  do i = 1, n\n    do j = 1, n\n      a(i,j) = b(i,j)\n    enddo\n  enddo"
      ci cj ci cj
  in
  (* a statement chain over three aligned arrays: exercises multi-array
     dependence and owner-computes partitioning in one loop nest *)
  let multi_body =
    "  do i = 1, n\n    do j = 1, n\n      c(i,j) = a(i,j) + 2.0 * b(i,j)\n      a(i,j) = 0.5 * c(i,j)\n    enddo\n  enddo"
  in
  let body_ops =
    if s.g2_in_subroutines then
      List.mapi (fun idx _ -> Fmt.str "  call op%d(a, b)" idx) s.g2_shifts
    else List.map op_body s.g2_shifts
  in
  let body_ops = if s.g2_multi then body_ops @ [ multi_body ] else body_ops in
  let subs =
    if s.g2_in_subroutines then
      List.mapi
        (fun idx c ->
          Fmt.str "subroutine op%d(a, b)\n%s\n%s\nend\n" idx decls (op_body c))
        s.g2_shifts
    else []
  in
  let align_c =
    if s.g2_multi then "  align c(i,j) with d(i,j)\n" else ""
  in
  let init_c = if s.g2_multi then "      c(i,j) = 0.0\n" else "" in
  Fmt.str
    "program r2\n%s\n  decomposition d(%d,%d)\n  align a(i,j) with d(i,j)\n  align b(i,j) with d(i,j)\n%s  distribute d(%s)\n  do i = 1, n\n    do j = 1, n\n      a(i,j) = float(mod(i*3 + j*7, 13))\n      b(i,j) = 0.0\n%s    enddo\n  enddo\n%s\n  print *, a(1,1)\nend\n%s"
    decls n n align_c s.g2_dist init_c
    (String.concat "\n" body_ops)
    (String.concat "" subs)

let random_source2d (st : Random.State.t) : string = to_source2d (random_spec2d st)
