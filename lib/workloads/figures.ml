(* The paper's worked examples as parameterized mini-Fortran-D sources.
   Each generator returns source text; [Fd_core.Driver.run_source] turns
   it into a verified simulated execution. *)

(* Figure 1: the block-distributed shift kernel, computation inside a
   called procedure.  [n] elements, shift of [c]. *)
let fig1 ?(n = 100) ?(shift = 5) () =
  Fmt.str
    {|
program p1
  parameter (n = %d)
  real x(%d)
  integer i
  distribute x(block)
  do i = 1, n
    x(i) = float(i)
  enddo
  call f1(x)
  print *, x(1), x(n)
end

subroutine f1(x)
  parameter (n = %d)
  real x(%d)
  integer i
  do i = 1, n - %d
    x(i) = 2.0 * x(i+%d) + 1.0
  enddo
end
|}
    n n n n shift shift

(* Figure 4: a procedure called with row-distributed and column-distributed
   actuals; cloning plus cross-procedure message vectorization. *)
let fig4 ?(n = 100) ?(shift = 5) () =
  Fmt.str
    {|
program p1
  parameter (n = %d)
  real x(%d,%d), y(%d,%d)
  integer i, j
  decomposition d(%d,%d)
  align x(i,j) with d(i,j)
  align y(i,j) with d(j,i)
  distribute d(block,:)
  do j = 1, n
    do i = 1, n
      x(i,j) = float(i+j)
    enddo
  enddo
  do j = 1, n
    do i = 1, n
      y(i,j) = float(i-j)
    enddo
  enddo
  do i = 1, n
    call f1(x,i)
  enddo
  do j = 1, n
    call f1(y,j)
  enddo
  print *, x(1,1), y(1,1)
end

subroutine f1(z,i)
  parameter (n = %d)
  real z(%d,%d)
  integer i, k
  do k = 1, n - %d
    z(k,i) = z(k+%d,i) + 1.0
  enddo
end
|}
    n n n n n n n n n n shift shift

(* Figure 15: dynamic data decomposition.  X is block-distributed, F1
   redistributes it cyclically; two calls per iteration of a time loop,
   plus an unrelated procedure and an after-loop consumer, giving the
   full Figure-16 optimization ladder (4T / 2T / 2 / mark-only). *)
let fig15 ?(n = 64) ?(t = 10) () =
  Fmt.str
    {|
program p1
  parameter (n = %d, t = %d)
  real x(%d), y(%d)
  integer k, i
  distribute x(block)
  distribute y(block)
  do i = 1, n
    x(i) = float(i)
    y(i) = 0.0
  enddo
  do k = 1, t
    call f1(x)
    call f1(x)
    call f2(y)
  enddo
  call f3(x)
  print *, x(1), y(1)
end

subroutine f1(x)
  parameter (n = %d)
  real x(%d)
  integer i
  distribute x(cyclic)
  do i = 1, n
    x(i) = x(i) + 1.0
  enddo
end

subroutine f2(y)
  parameter (n = %d)
  real y(%d)
  integer i
  do i = 1, n
    y(i) = y(i) + 2.0
  enddo
end

subroutine f3(x)
  parameter (n = %d)
  real x(%d)
  integer i
  do i = 1, n
    x(i) = 2.0 * x(i)
  enddo
end
|}
    n t n n n n n n n n
