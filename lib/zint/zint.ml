(* Checked native integers (see zint.mli).

   Every operation computes on native ints and raises [Overflow] when
   the exact result does not fit, so no wrapped value escapes.  The
   operators are defined last: until then [+], [*], ... are Stdlib's. *)

type t = int

exception Overflow

let zero = 0
let one = 1
let minus_one = -1
let two = 2
let of_int n = n
let to_int n = n
let to_string = string_of_int
let pp fmt t = Format.pp_print_int fmt t
let compare = Int.compare
let equal = Int.equal
let hash (n : t) = Hashtbl.hash n
let sign n = Int.compare n 0
let is_zero n = n = 0
let is_one n = n = 1
let min = Int.min
let max = Int.max

(* Overflow iff both operands have the sign the result lacks. *)
let add a b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 then raise Overflow else s

(* Overflow iff the operands differ in sign and the result has [b]'s. *)
let sub a b =
  let d = a - b in
  if (a lxor b) land (a lxor d) < 0 then raise Overflow else d

let neg a = if a = min_int then raise Overflow else -a
let abs a = if a < 0 then neg a else a
let succ a = add a 1
let pred a = sub a 1

(* Factors below 2^31 in magnitude cannot overflow a 63-bit product;
   otherwise the product is exact iff dividing it back gives [a]
   ([min_int * -1] wraps to itself and needs its own test). *)
let mul a b =
  if a > -0x8000_0000 && a < 0x8000_0000 && b > -0x8000_0000 && b < 0x8000_0000
  then a * b
  else if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if (b = -1 && a = min_int) || p / b <> a then raise Overflow else p

let tdiv a b = if b = -1 then neg a else a / b
let trem a b = if b = -1 then 0 else a mod b

let fdiv a b =
  let q = tdiv a b and r = trem a b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

let frem a b =
  let r = trem a b in
  if r <> 0 && (r < 0) <> (b < 0) then r + b else r

let cdiv a b =
  let q = tdiv a b and r = trem a b in
  if r <> 0 && (r < 0) = (b < 0) then q + 1 else q

let divisible a b = if b = 0 then a = 0 else trem a b = 0

let divexact a b =
  assert (trem a b = 0);
  tdiv a b

(* mod_hat a b = a - b * floor(a/b + 1/2), for b > 0: the representative
   of a mod b lying in (-b/2, b/2].  [2r > b] is tested as [r > b - r],
   which cannot overflow. *)
let mod_hat a b =
  if b = 0 then raise Division_by_zero;
  let b = abs b in
  let r = frem a b in
  if r > b - r then r - b else r

(* Euclid on signed values ([|trem a b| < |b|]), so only a gcd of 2^62
   itself overflows. *)
let rec gcd_aux a b = if b = 0 then a else gcd_aux b (trem a b)
let gcd a b = abs (gcd_aux a b)
let lcm a b = if a = 0 || b = 0 then 0 else abs (mul (divexact a (gcd a b)) b)

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Zint.of_string: empty string";
  let isneg = s.[0] = '-' in
  let start = if isneg || s.[0] = '+' then 1 else 0 in
  if start >= n then invalid_arg "Zint.of_string: no digits";
  (* accumulate the negated value, so that min_int parses *)
  let acc = ref 0 in
  for i = start to n - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Zint.of_string: bad digit";
    acc := sub (mul !acc 10) (Char.code c - Char.code '0')
  done;
  if isneg then !acc else neg !acc

module Int = struct
  let add = add
  let sub = sub
  let mul = mul
  let neg = neg
end

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( ~- ) = neg
let ( = ) = equal
let ( < ) (a : t) b = a < b
let ( <= ) (a : t) b = a <= b
let ( > ) (a : t) b = a > b
let ( >= ) (a : t) b = a >= b
