(* Sorting and selection specialised to float arrays.  [Array.sort]
   takes the comparator as a closure, so on a float array every
   comparison boxes both elements; the arrival merge and the rollup
   paths sort hundreds of thousands of times per run and that boxing
   dominated the sort.  Direct [<] comparisons on unsafe float-array
   reads stay unboxed.

   None of these are stable, but on a float array equal elements are
   indistinguishable, so the sorted array — and every order statistic
   read from it — is identical to what any correct comparison sort
   produces.  All pivot choices are deterministic (median of three). *)

let swap (a : float array) i j =
  let tmp = Array.unsafe_get a i in
  Array.unsafe_set a i (Array.unsafe_get a j);
  Array.unsafe_set a j tmp

(* Insertion sort of [lo, hi) — the small-range finisher. *)
let insertion (a : float array) lo hi =
  for i = lo + 1 to hi - 1 do
    let v = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= lo && Array.unsafe_get a !j > v do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) v
  done

(* Heapsort of [lo, hi) — the depth-limit fallback that keeps the worst
   case O(n log n) without randomised pivots. *)
let heapsort (a : float array) lo hi =
  let n = hi - lo in
  let sift stop root =
    let i = ref root in
    let live = ref true in
    while !live do
      let l = (2 * !i) + 1 in
      if l >= stop then live := false
      else begin
        let c =
          if
            l + 1 < stop
            && Array.unsafe_get a (lo + l) < Array.unsafe_get a (lo + l + 1)
          then l + 1
          else l
        in
        if Array.unsafe_get a (lo + !i) < Array.unsafe_get a (lo + c) then begin
          swap a (lo + !i) (lo + c);
          i := c
        end
        else live := false
      end
    done
  in
  for root = (n / 2) - 1 downto 0 do
    sift n root
  done;
  for last = n - 1 downto 1 do
    swap a lo (lo + last);
    sift last 0
  done

(* Median-of-three pivot for [lo, hi): sorts a.(lo) <= a.(mid) <= a.(hi-1)
   in place and returns the median value (left at [mid]). *)
let pivot (a : float array) lo hi =
  let mid = lo + ((hi - lo) / 2) in
  if Array.unsafe_get a mid < Array.unsafe_get a lo then swap a mid lo;
  if Array.unsafe_get a (hi - 1) < Array.unsafe_get a mid then begin
    swap a (hi - 1) mid;
    if Array.unsafe_get a mid < Array.unsafe_get a lo then swap a mid lo
  end;
  Array.unsafe_get a mid

(* Hoare partition of [lo, hi) around value [p]: returns [j] such that
   [lo, j] holds values <= p and [j+1, hi) holds values >= p, with both
   sides nonempty when hi - lo >= 3 and p is the median of three. *)
let partition (a : float array) lo hi p =
  let i = ref (lo - 1) and j = ref hi in
  let live = ref true in
  while !live do
    incr i;
    while Array.unsafe_get a !i < p do
      incr i
    done;
    decr j;
    while Array.unsafe_get a !j > p do
      decr j
    done;
    if !i >= !j then live := false else swap a !i !j
  done;
  !j

let rec qsort (a : float array) lo hi depth =
  if hi - lo < 16 then insertion a lo hi
  else if depth = 0 then heapsort a lo hi
  else begin
    let p = pivot a lo hi in
    let j = partition a lo hi p in
    qsort a lo (j + 1) (depth - 1);
    qsort a (j + 1) hi (depth - 1)
  end

let sort (a : float array) =
  let n = Array.length a in
  if n > 1 then begin
    (* 2 log2 n depth budget before the heapsort fallback. *)
    let depth = ref 0 in
    let m = ref n in
    while !m > 0 do
      incr depth;
      m := !m lsr 1
    done;
    qsort a 0 n (2 * !depth)
  end

(* Quickselect: after [select a k], [a.(k)] holds the k-th order
   statistic (ascending).  The array is permuted, not sorted. *)
let select (a : float array) k =
  let n = Array.length a in
  if k < 0 || k >= n then invalid_arg "Fsort.select: rank out of range";
  let lo = ref 0 and hi = ref n in
  while !hi - !lo >= 16 do
    let p = pivot a !lo !hi in
    let j = partition a !lo !hi p in
    if k <= j then hi := j + 1 else lo := j + 1
  done;
  insertion a !lo !hi;
  Array.unsafe_get a k
