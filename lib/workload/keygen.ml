let key_space = Index.Key.sentinel

(* LSD radix sort of [a.(0 .. n-1)] over the key space [0, 2^30): two
   passes of 15 bits, through [tmp] and back into [a]. *)
let radix_sort (a : int array) (tmp : int array) n =
  let count = Array.make (1 lsl 15 + 1) 0 in
  let pass (src : int array) (dst : int array) shift =
    Array.fill count 0 (Array.length count) 0;
    for i = 0 to n - 1 do
      let d = (src.(i) lsr shift) land 0x7fff in
      count.(d + 1) <- count.(d + 1) + 1
    done;
    for d = 1 to 1 lsl 15 do
      count.(d) <- count.(d) + count.(d - 1)
    done;
    for i = 0 to n - 1 do
      let d = (src.(i) lsr shift) land 0x7fff in
      dst.(count.(d)) <- src.(i);
      count.(d) <- count.(d) + 1
    done
  in
  pass a tmp 0;
  pass tmp a 15

(* Each round draws as many keys as are still missing into the tail of
   [out], sorts it and keeps the distinct keys at the front.  A round of
   [m] draws adds at most [m] distinct keys, so the last round ends on
   exactly the draw at which drawing one key at a time would have found
   its [n]th distinct key: the same key set, and the generator left in
   the same state. *)
let index_keys g ~n =
  if n < 1 then invalid_arg "Keygen.index_keys: n must be >= 1";
  if n > key_space / 2 then invalid_arg "Keygen.index_keys: n too large";
  let out = Array.make n 0 and tmp = Array.make n 0 in
  let filled = ref 0 in
  while !filled < n do
    for i = !filled to n - 1 do
      out.(i) <- Prng.Splitmix.int g key_space
    done;
    radix_sort out tmp n;
    filled := 1;
    for i = 1 to n - 1 do
      if out.(i) <> out.(!filled - 1) then begin
        out.(!filled) <- out.(i);
        incr filled
      end
    done
  done;
  out

let uniform_queries g ~n =
  if n < 0 then invalid_arg "Keygen.uniform_queries: negative n";
  Array.init n (fun _ -> Prng.Splitmix.int g key_space)

let member_queries g ~keys ~n =
  let m = Array.length keys in
  if m = 0 then invalid_arg "Keygen.member_queries: empty key set";
  Array.init n (fun _ -> keys.(Prng.Splitmix.int g m))

let zipf_queries g ~keys ~n ~s =
  let m = Array.length keys in
  if m = 0 then invalid_arg "Keygen.zipf_queries: empty key set";
  (* Shuffle a copy so Zipf rank 0 (the hottest key) is a random key, not
     the smallest: otherwise all hot traffic would land on partition 0. *)
  let shuffled = Array.copy keys in
  Prng.Splitmix.shuffle g shuffled;
  let z = Prng.Zipf.create ~n:m ~s in
  Array.init n (fun _ -> shuffled.(Prng.Zipf.sample z g))

let sorted_queries g ~n =
  let qs = uniform_queries g ~n in
  Array.sort compare qs;
  qs
