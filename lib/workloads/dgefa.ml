(* LINPACK dgefa (LU factorization with partial pivoting) in mini-Fortran
   D, with its BLAS-1 call structure intact: idamax / swaprow / getpiv /
   dscal / daxpy.  This is the paper's Section 9 case study: the BLAS
   calls inside the elimination loops are what make interprocedural
   analysis essential.  The matrix is column-cyclic distributed. *)

let source ?(n = 64) () =
  Fmt.str
    {|
program lu
  parameter (n = %d)
  real a(%d,%d)
  integer ipvt(%d)
  integer i, j, k
  distribute a(:,cyclic)
  do j = 1, n
    do i = 1, n
      a(i,j) = float(mod(i*7 + j*13, 10) + 1)
    enddo
  enddo
  do i = 1, n
    a(i,i) = a(i,i) + float(2*n)
  enddo
  call dgefa(a, ipvt)
  print *, a(1,1), a(n,n), ipvt(1)
end

subroutine dgefa(a, ipvt)
  parameter (n = %d)
  real a(%d,%d)
  integer ipvt(%d)
  integer k, j, l
  real t
  do k = 1, n-1
    call idamax(a, k, l)
    ipvt(k) = l
    call swaprow(a, k, l)
    call getpiv(a, k, t)
    if (t /= 0.0) then
      call dscal(a, k, t)
      do j = k+1, n
        call daxpy(a, k, j)
      enddo
    endif
  enddo
  ipvt(n) = n
end

subroutine idamax(a, k, l)
  parameter (n = %d)
  real a(%d,%d)
  integer k, l, i
  real amax
  l = k
  amax = abs(a(k,k))
  do i = k+1, n
    if (abs(a(i,k)) > amax) then
      amax = abs(a(i,k))
      l = i
    endif
  enddo
end

subroutine swaprow(a, k, l)
  parameter (n = %d)
  real a(%d,%d)
  integer k, l, j
  real t
  if (l /= k) then
    do j = 1, n
      t = a(l,j)
      a(l,j) = a(k,j)
      a(k,j) = t
    enddo
  endif
end

subroutine getpiv(a, k, t)
  parameter (n = %d)
  real a(%d,%d)
  integer k
  real t
  t = a(k,k)
end

subroutine dscal(a, k, t)
  parameter (n = %d)
  real a(%d,%d)
  integer k, i
  real t
  do i = k+1, n
    a(i,k) = -a(i,k) / t
  enddo
end

subroutine daxpy(a, k, j)
  parameter (n = %d)
  real a(%d,%d)
  integer k, j, i
  do i = k+1, n
    a(i,j) = a(i,j) + a(k,j) * a(i,k)
  enddo
end
|}
    n n n n n n n n n n n n n n n n n n n n n n n

(* Native OCaml reference LU with partial pivoting over the same initial
   matrix, for independent answer checking of the simulated runs. *)
let reference_lu n =
  let a = Array.make_matrix n n 0.0 in
  for j = 0 to n - 1 do
    for i = 0 to n - 1 do
      a.(i).(j) <- float_of_int ((((i + 1) * 7) + ((j + 1) * 13)) mod 10 + 1)
    done
  done;
  for i = 0 to n - 1 do
    a.(i).(i) <- a.(i).(i) +. float_of_int (2 * n)
  done;
  let ipvt = Array.init n (fun i -> i + 1) in
  for k = 0 to n - 2 do
    (* pivot *)
    let l = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs a.(i).(k) > Float.abs a.(!l).(k) then l := i
    done;
    ipvt.(k) <- !l + 1;
    if !l <> k then
      for j = 0 to n - 1 do
        let t = a.(!l).(j) in
        a.(!l).(j) <- a.(k).(j);
        a.(k).(j) <- t
      done;
    let t = a.(k).(k) in
    if t <> 0.0 then begin
      for i = k + 1 to n - 1 do
        a.(i).(k) <- -.a.(i).(k) /. t
      done;
      for j = k + 1 to n - 1 do
        for i = k + 1 to n - 1 do
          a.(i).(j) <- a.(i).(j) +. (a.(k).(j) *. a.(i).(k))
        done
      done
    end
  done;
  (a, ipvt)
