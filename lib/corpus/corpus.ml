(* The program corpus used by the tests, examples and benches:

   - Examples 1-11 from the paper (section 4's boxed examples and the
     section 5 symbolic-analysis examples);
   - CHOLSKY: the NAS kernel of Figure 2, translated statement-for-
     statement (with the paper's own modifications: MAX(-M,-J) forward-
     substituted and the second K loop normalized);
   - the kind of programs distributed with Wolfe's tiny tool (Cholesky, LU
     decomposition, wavefront variants) plus a few contrived kill/cover
     stress programs, standing in for the rest of the paper's corpus. *)

let example1 =
  {|
symbolic n;
real a[-1000:1000], x[-1000:1000];
A: a(n) := 0;
for L1 := n to n+10 do
  B: a(L1) := 1;
endfor
for L1 := n to n+20 do
  C: x(L1) := a(L1);
endfor
|}

(* The variant where the first write is to a(m): the kill cannot be
   verified without the assertion n <= m <= n+10. *)
let example1m ~assert_m =
  Printf.sprintf
    {|
symbolic n, m;
real a[-1000:1000], x[-1000:1000];
%s
A: a(m) := 0;
for L1 := n to n+10 do
  B: a(L1) := 1;
endfor
for L1 := n to n+20 do
  C: x(L1) := a(L1);
endfor
|}
    (if assert_m then "assume n <= m <= n+10;" else "")

let example2 =
  {|
symbolic n;
real a[-1000:1000], x[-1000:1000];
A: a(n) := 0;
for L1 := 1 to 100 do
  B: a(L1) := 1;
  for L2 := 1 to n do
    C: a(L2) := 2;
    D: a(L2-1) := 3;
  endfor
  for L2 := 2 to n-1 do
    E: x(L2) := a(L2);
  endfor
endfor
|}

let example3 =
  {|
symbolic n, m;
real a[-1000:1000];
for L1 := 1 to n do
  for L2 := 2 to m do
    s: a(L2) := a(L2-1);
  endfor
endfor
|}

let example4 =
  {|
symbolic n, m;
real a[-1000:1000];
for L1 := 1 to n do
  for L2 := n+2-L1 to m do
    s: a(L2) := a(L2-1);
  endfor
endfor
|}

let example5 =
  {|
symbolic n, m;
real a[-1000:1000];
for L1 := 1 to n do
  for L2 := L1 to m do
    s: a(L2) := a(L2-1);
  endfor
endfor
|}

let example6 =
  {|
symbolic n, m;
real a[-1000:1000];
for L1 := 1 to n do
  for L2 := 2 to m do
    s: a(L1-L2) := a(L1-L2);
  endfor
endfor
|}

let example7 ?(assumes = "assume 50 <= n <= 100;") () =
  Printf.sprintf
    {|
symbolic x, y, n, m;
real a[1:n, 1:m], c[1:n, 1:m];
%s
for L1 := x to n do
  for L2 := 1 to m do
    s: a(L1, L2) := a(L1-x, y) + c(L1, L2);
  endfor
endfor
|}
    assumes

let example8 =
  {|
symbolic n;
real a[1:n], c[1:n], q[1:n];
for L1 := 1 to n do
  s: a(q(L1)) := a(q(L1+1)-1) + c(L1);
endfor
|}

let example9 =
  {|
symbolic maxb;
real a[1:maxb, 1:1000], b[1:1000];
for i := 1 to maxb do
  for j := b(i) to b(i+1)-1 do
    s: a(i, j) := 0;
  endfor
endfor
|}

let example10 =
  {|
symbolic n;
real a[1:1000000];
for i := 1 to n do
  for j := i to n do
    s: a(i*j) := 0;
  endfor
endfor
|}

(* s141 from [LCD91]: a scalar accumulator indexes the array; its reads in
   subscript position become opaque terms, and induction recognition
   proves it strictly increasing (Example 11). *)
let example11 =
  {|
symbolic n;
real a[1:1000000], bb[1:1000, 1:1000], k;
for j := 1 to n do
  for i := j to n do
    s: a(k) := a(k) + bb(i, j);
    t: k := k + j;
  endfor
endfor
|}

(* ------------------------------------------------------------------ *)
(* CHOLSKY (Figure 2)                                                  *)
(* ------------------------------------------------------------------ *)

let cholsky =
  {|
symbolic ida, nmat, m, n, nrhs, idb;
real a[0:ida, -1000:0, 0:1000], b[0:nrhs, 0:idb, 0:1000], epss[0:256];

// Cholesky decomposition
for J := 0 to n do
  // off diagonal elements
  for I := max(-m, -J) to -1 do
    for JJ := max(-m, -J) - I to -1 do
      for L := 0 to nmat do
        3: a(L, I, J) := a(L, I, J) - a(L, JJ, I+J) * a(L, I+JJ, J);
      endfor
    endfor
    for L := 0 to nmat do
      2: a(L, I, J) := a(L, I, J) * a(L, 0, I+J);
    endfor
  endfor
  // store inverse of diagonal elements
  for L := 0 to nmat do
    4: epss(L) := a(L, 0, J);
  endfor
  for JJ := max(-m, -J) to -1 do
    for L := 0 to nmat do
      5: a(L, 0, J) := a(L, 0, J) - a(L, JJ, J);
    endfor
  endfor
  for L := 0 to nmat do
    1: a(L, 0, J) := epss(L) + a(L, 0, J);
  endfor
endfor

// solution (second K loop normalized, as in the paper's version)
for I := 0 to nrhs do
  for K := 0 to n do
    for L := 0 to nmat do
      8: b(I, L, K) := b(I, L, K) * a(L, 0, K);
    endfor
    for JJ := 1 to min(m, n-K) do
      for L := 0 to nmat do
        7: b(I, L, K+JJ) := b(I, L, K+JJ) - a(L, -JJ, K+JJ) * b(I, L, K);
      endfor
    endfor
  endfor
  for K := 0 to n do
    for L := 0 to nmat do
      9: b(I, L, n-K) := b(I, L, n-K) * a(L, 0, n-K);
    endfor
    for JJ := 1 to min(m, n-K) do
      for L := 0 to nmat do
        6: b(I, L, n-K-JJ) := b(I, L, n-K-JJ) - a(L, -JJ, n-K) * b(I, L, n-K);
      endfor
    endfor
  endfor
endfor
|}

(* ------------------------------------------------------------------ *)
(* tiny-distribution-style programs                                    *)
(* ------------------------------------------------------------------ *)

let cholesky_tiny =
  {|
symbolic n;
real a[1:200, 1:200];
for k := 1 to n do
  d: a(k, k) := a(k, k);
  for i := k+1 to n do
    c: a(i, k) := a(i, k) + a(k, k);
  endfor
  for j := k+1 to n do
    for i := j to n do
      u: a(i, j) := a(i, j) - a(i, k) * a(j, k);
    endfor
  endfor
endfor
|}

let lu =
  {|
symbolic n;
real a[1:200, 1:200];
for k := 1 to n do
  for i := k+1 to n do
    p: a(i, k) := a(i, k) + a(k, k);
  endfor
  for i := k+1 to n do
    for j := k+1 to n do
      u: a(i, j) := a(i, j) - a(i, k) * a(k, j);
    endfor
  endfor
endfor
|}

let wavefront1 =
  {|
symbolic n, m;
real a[0:200, 0:200];
for i := 1 to n do
  for j := 1 to m do
    w: a(i, j) := a(i-1, j) + a(i, j-1);
  endfor
endfor
|}

let wavefront2 =
  {|
symbolic n, m;
real a[-200:200, -200:200];
for i := 1 to n do
  for j := 1 to m do
    w: a(i, j) := a(i-1, j+1) + a(i-1, j-1);
  endfor
endfor
|}

let wavefront3 =
  {|
symbolic n;
real a[0:200, 0:200];
for i := 1 to n do
  for j := i to n do
    w: a(i, j) := a(i-1, j-1) + a(j, i);
  endfor
endfor
|}

let sor =
  {|
symbolic n, t;
real a[0:200, 0:200];
for it := 1 to t do
  for i := 1 to n do
    s: a(it, i) := a(it-1, i-1) + a(it-1, i) + a(it-1, i+1);
  endfor
endfor
|}

let matmul =
  {|
symbolic n;
real a[1:100, 1:100], bm[1:100, 1:100], cm[1:100, 1:100];
for i := 1 to n do
  for j := 1 to n do
    for k := 1 to n do
      s: cm(i, j) := cm(i, j) + a(i, k) * bm(k, j);
    endfor
  endfor
endfor
|}

let transpose_sum =
  {|
symbolic n;
real a[1:100, 1:100], s[1:100];
for i := 1 to n do
  for j := 1 to n do
    t: s(i) := s(i) + a(j, i);
  endfor
endfor
|}

(* Contrived: a chain of writes where each kills the previous. *)
let kill_chain =
  {|
symbolic n;
real a[0:300], x[0:300];
for i := 1 to n do
  w1: a(i) := 1;
endfor
for i := 1 to n do
  w2: a(i) := 2;
endfor
for i := 1 to n do
  r: x(i) := a(i);
endfor
|}

(* Contrived: a partial second write kills only half the dependences. *)
let partial_kill =
  {|
symbolic n;
real a[0:300], x[0:300];
for i := 1 to n do
  w1: a(i) := 1;
endfor
for i := 1 to n do
  w2: a(2*i) := 2;
endfor
for i := 1 to n do
  r: x(i) := a(i);
endfor
|}

(* Contrived: triangular cover. *)
let triangle_cover =
  {|
symbolic n;
real a[0:300], x[0:300, 0:300];
for i := 1 to n do
  for j := 1 to i do
    w: a(j) := i;
  endfor
  for j := 1 to i do
    r: x(i, j) := a(j);
  endfor
endfor
|}

(* Contrived: imperfect nest with loop-independent kill. *)
let independent_kill =
  {|
symbolic n, m;
real a[0:300], x[0:300, 0:300];
for i := 1 to n do
  w1: a(i) := 0;
  w2: a(i) := 1;
  for j := 1 to m do
    r: x(i, j) := a(i);
  endfor
endfor
|}

(* Stencil with a temporary that gets fully overwritten each iteration. *)
let temp_reuse =
  {|
symbolic n, m;
real t[0:300], a[0:300, 0:300], x[0:300, 0:300];
for i := 1 to n do
  for j := 1 to m do
    w: t(j) := a(i, j);
  endfor
  for j := 1 to m do
    r: x(i, j) := t(j);
  endfor
endfor
|}

(* Like temp_reuse, but one element of the temporary is written before
   the loop and only read inside it: privatizing t is legal only with
   copy-in (each iteration reads t(0) before ever writing it). *)
let copyin =
  {|
symbolic n, m;
real t[0:300], a[0:300, 0:300], x[0:300, 0:300];
b: t(0) := 1;
for i := 1 to n do
  for j := 1 to m do
    w: t(j) := a(i, j) + t(0);
  endfor
  for j := 1 to m do
    r: x(i, j) := t(j) + t(0);
  endfor
endfor
|}

(* Further tiny-style kernels, used to widen the Figure 6/7 timing
   population. *)

let gauss_seidel =
  {|
symbolic n, m;
real a[0:200, 0:200];
for i := 1 to n do
  for j := 1 to m do
    g: a(i, j) := a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1);
  endfor
endfor
|}

let red_black =
  {|
symbolic n;
real a[0:300];
for i := 1 to n do
  r: a(2*i) := a(2*i - 1) + a(2*i + 1);
endfor
for i := 1 to n do
  b: a(2*i + 1) := a(2*i) + a(2*i + 2);
endfor
|}

let fib_like =
  {|
symbolic n;
real a[0:300];
for i := 2 to n do
  f: a(i) := a(i-1) + a(i-2);
endfor
|}

let running_sum =
  {|
symbolic n;
real s[0:300], a[0:300];
for i := 1 to n do
  r: s(i) := s(i-1) + a(i);
endfor
for i := 1 to n do
  o: a(i) := s(i) + s(n);
endfor
|}

let copy_shift =
  {|
symbolic n;
real a[0:300], b[0:300], c[0:300];
for i := 1 to n do
  p: b(i) := a(i);
endfor
for i := 1 to n do
  q: c(i) := b(i+1);
endfor
|}

let stencil9 =
  {|
symbolic n, m;
real a[0:200, 0:200], o[0:200, 0:200];
for i := 1 to n do
  for j := 1 to m do
    s: o(i, j) := a(i-1, j-1) + a(i-1, j) + a(i-1, j+1)
                + a(i, j-1) + a(i, j) + a(i, j+1)
                + a(i+1, j-1) + a(i+1, j) + a(i+1, j+1);
  endfor
endfor
|}

let overwrite_rows =
  {|
symbolic n, m;
real a[0:200, 0:200], o[0:200, 0:200];
for i := 1 to n do
  for j := 1 to m do
    w1: a(i, j) := 0;
  endfor
  for j := 1 to m do
    w2: a(i, j) := 1;
  endfor
  for j := 1 to m do
    r: o(i, j) := a(i, j);
  endfor
endfor
|}

let diag_init =
  {|
symbolic n;
real a[1:200, 1:200], o[1:200, 1:200];
for i := 1 to n do
  d: a(i, i) := 1;
endfor
for i := 1 to n do
  for j := 1 to n do
    r: o(i, j) := a(i, j);
  endfor
endfor
|}

let strided =
  {|
symbolic n;
real a[0:400], o[0:400];
for i := 1 to n do
  e: a(2*i) := 0;
endfor
for i := 1 to n do
  d: a(2*i + 1) := 1;
endfor
for i := 2 to 2*n do
  r: o(i) := a(i);
endfor
|}

let reverse_copy =
  {|
symbolic n;
real a[0:300], b[0:300];
for i := 0 to n do
  w: a(i) := i;
endfor
for i := 0 to n do
  r: b(i) := a(n-i);
endfor
|}

let multi_kill =
  {|
symbolic n;
real a[0:300], o[0:300];
for i := 1 to n do
  w1: a(i) := 1;
  w2: a(i-1) := 2;
  w3: a(i) := 3;
endfor
for i := 1 to n do
  r: o(i) := a(i);
endfor
|}

let triangular_update =
  {|
symbolic n;
real a[1:200, 1:200];
for k := 1 to n do
  for i := k to n do
    t: a(i, k) := a(i, k) + a(k, k);
  endfor
endfor
|}

(* Kernels exercising stepped loops and scalar accumulators. *)

let even_odd_phases =
  {|
symbolic n;
real a[0:400], o[0:400];
for i := 0 to 2*n by 2 do
  e: a(i) := i;
endfor
for i := 1 to 2*n + 1 by 2 do
  d: a(i) := a(i - 1);
endfor
for i := 0 to 2*n do
  r: o(i) := a(i);
endfor
|}

let countdown_copy =
  {|
symbolic n;
real a[0:200], b[0:200];
for i := 100 to 1 by -1 do
  w: a(i) := i;
endfor
for i := 1 to 100 do
  r: b(i) := a(i);
endfor
|}

let prefix_sum_scalar =
  {|
symbolic n;
real s, a[0:300], p[0:300];
s := 0;
for i := 1 to n do
  t: s := s + a(i);
  u: p(i) := s;
endfor
|}

let banded =
  {|
symbolic n, w;
real a[1:200, -10:10];
assume 1 <= w <= 10;
for i := 1 to n do
  for j := max(-w, 1 - i) to min(w, n - i) do
    s: a(i, j) := a(i - 1, j) + a(i, j - 1);
  endfor
endfor
|}

(* Dense row-dot products accumulated through a privatized prefix
   array: each outer iteration zeroes s(0), builds the running sums
   s(j) = s(j-1) + a(i,j)*b(j), and stores the total s(m).  Every read
   of [s] takes its value from the same outer iteration, so refinement
   pins the carried flow to distance 0 and the outer loop is an
   extended-analysis doall with [s] privatized — the
   reduction-into-a-temporary shape the compiled backend's per-chunk
   slabs exist for. *)
let row_dot_private =
  {|
symbolic n, m;
real s[0:300], a[0:300, 0:300], b[0:300], c[0:300];
for i := 1 to n do
  z: s(0) := 0;
  for j := 1 to m do
    t: s(j) := s(j-1) + a(i, j) * b(j);
  endfor
  w: c(i) := s(m);
endfor
|}

let all : (string * string) list =
  [
    ("example1", example1);
    ("example1m", example1m ~assert_m:false);
    ("example1m_assert", example1m ~assert_m:true);
    ("example2", example2);
    ("example3", example3);
    ("example4", example4);
    ("example5", example5);
    ("example6", example6);
    ("example7", example7 ());
    ("example8", example8);
    ("example9", example9);
    ("example10", example10);
    ("example11", example11);
    ("cholsky", cholsky);
    ("cholesky_tiny", cholesky_tiny);
    ("lu", lu);
    ("wavefront1", wavefront1);
    ("wavefront2", wavefront2);
    ("wavefront3", wavefront3);
    ("sor", sor);
    ("matmul", matmul);
    ("transpose_sum", transpose_sum);
    ("kill_chain", kill_chain);
    ("partial_kill", partial_kill);
    ("triangle_cover", triangle_cover);
    ("independent_kill", independent_kill);
    ("temp_reuse", temp_reuse);
    ("copyin", copyin);
    ("gauss_seidel", gauss_seidel);
    ("red_black", red_black);
    ("fib_like", fib_like);
    ("running_sum", running_sum);
    ("copy_shift", copy_shift);
    ("stencil9", stencil9);
    ("overwrite_rows", overwrite_rows);
    ("diag_init", diag_init);
    ("strided", strided);
    ("reverse_copy", reverse_copy);
    ("multi_kill", multi_kill);
    ("triangular_update", triangular_update);
    ("even_odd_phases", even_odd_phases);
    ("countdown_copy", countdown_copy);
    ("prefix_sum_scalar", prefix_sum_scalar);
    ("banded", banded);
    ("row_dot_private", row_dot_private);
  ]

(* Programs suitable for the Figure 6/7 timing population (analyzable
   end-to-end; the symbolic examples 8-11 are exercised separately). *)
let timing_population =
  [
    "example1"; "example1m"; "example2"; "example3"; "example4"; "example5";
    "example6"; "cholsky"; "cholesky_tiny"; "lu"; "wavefront1"; "wavefront2";
    "wavefront3"; "sor"; "matmul"; "transpose_sum"; "kill_chain";
    "partial_kill"; "triangle_cover"; "independent_kill"; "temp_reuse";
    "copyin"; "gauss_seidel"; "red_black"; "fib_like"; "running_sum"; "copy_shift";
    "stencil9"; "overwrite_rows"; "diag_init"; "strided"; "reverse_copy";
    "multi_kill"; "triangular_update"; "even_odd_phases"; "countdown_copy";
    "prefix_sum_scalar"; "banded"; "row_dot_private";
  ]

(* ------------------------------------------------------------------ *)
(* Adversarial stress corpus                                           *)
(* ------------------------------------------------------------------ *)

(* Programs built to spend solver resources, not to model real kernels:
   they drive the budget machinery (fuel, splinters, DNF disjuncts)
   toward its limits so the governed verdicts - not crashes - are what
   tight budgets produce.  Deliberately kept OUT of [all]: the
   differential execution harnesses iterate [all] and these nests exist
   to stress analysis, not execution. *)

(* Deeply coupled subscripts with pairwise-coprime-ish coefficients
   {6, 10, 15}: every dependence problem couples i and j through
   several large-coefficient equalities, so Fourier-Motzkin elimination
   multiplies coefficients at each step and burns fuel fast. *)
let stress_coupled =
  {|
symbolic n;
real a[0:4000], x[0:4000];
assume 1 <= n <= 40;
for i := 1 to n do
  for j := 1 to n do
    w1: a(6*i + 10*j) := i + j;
    w2: a(10*i + 15*j) := i - j;
    r: x(6*i + 15*j) := a(15*i + 6*j);
  endfor
endfor
|}

(* Non-unit-stride writes against non-unit-stride reads (2 vs 3, 5/3
   vs 7): exact projection must splinter on the non-dark part of each
   shadow, so the splinter counter is the limit that binds. *)
let stress_splinter =
  {|
symbolic n;
real a[0:2000], x[0:2000];
assume 1 <= n <= 60;
for i := 1 to n do
  for j := i to min(n, i + 13) do
    w1: a(5*i + 3*j) := i;
  endfor
endfor
for i := 1 to n do
  w2: a(2*i) := i;
endfor
for k := 1 to n do
  r: x(k) := a(7*k + 2);
endfor
|}

(* A four-writer kill chain over strided, shifted subscripts: each kill
   test negates a conjunction of equalities per candidate killer, and
   the resulting quantified formula expands into wide DNF. *)
let stress_kill_dnf =
  {|
symbolic n, m;
real a[0:900], x[0:900];
assume 1 <= m <= n;
assume n <= 200;
for i := 1 to n do
  w1: a(2*i) := 1;
endfor
for i := 1 to n do
  w2: a(2*i + 2) := 2;
endfor
for i := 1 to n do
  w3: a(3*i) := 3;
endfor
for i := 1 to n do
  w4: a(2*i + 4) := 4;
endfor
for i := 1 to m do
  r: x(i) := a(2*i + 4);
endfor
|}

(* max/min loop bounds: every bound contributes a case split, so the
   dependence problems carry the cross product of bound cases on top of
   a two-distance stencil body. *)
let stress_maxmin =
  {|
symbolic n, w;
real a[0:300, -20:20];
assume 2 <= w <= 12;
assume w <= n;
assume n <= 150;
for i := 3 to n do
  for j := max(1 - i, -w) to min(w, n - i) do
    s: a(i, j) := a(i - 1, j + 1) + a(i - 2, j - 1);
  endfor
endfor
|}

let stress =
  [
    ("stress_coupled", stress_coupled);
    ("stress_splinter", stress_splinter);
    ("stress_kill_dnf", stress_kill_dnf);
    ("stress_maxmin", stress_maxmin);
  ]

(* Corpus programs first, then the stress nests. *)
let find name =
  match List.assoc_opt name (all @ stress) with
  | Some src -> src
  | None -> invalid_arg (Printf.sprintf "unknown program %s" name)
