(* The int annotations matter: unannotated, the [<=] below compiles to a
   polymorphic comparison call per probe step. *)
let rank (keys : int array) (q : int) =
  let lo = ref 0 and hi = ref (Array.length keys) in
  (* invariant: keys.(i) <= q for i < lo; keys.(i) > q for i >= hi *)
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) <= q then lo := mid + 1 else hi := mid
  done;
  !lo

let partition_of ~delimiters q = rank delimiters q

(* Dynamic oracle: the live keys in sorted blocks of 1 to [2 * block]
   keys, with each block's first key and the count of keys before it.
   An update rebuilds one block and the O(n / block) index behind it; a
   block that overflows or empties re-cuts the whole set into blocks of
   at most [block].  Every update is applied eagerly, and the layout
   shares nothing with the log-structured [Segments] index it is the
   reference for. *)
module Dyn = struct
  let block = 512

  (* [rank] on one sorted array; [Dyn.rank] below shadows it. *)
  let pos = rank

  type t = {
    mutable blocks : int array array;  (** Nonempty, in key order. *)
    mutable firsts : int array;  (** [firsts.(i) = blocks.(i).(0)]. *)
    mutable before : int array;  (** Keys in [blocks.(0 .. i-1)]. *)
    mutable size : int;
  }

  let to_sorted_array t = Array.concat (Array.to_list t.blocks)

  (* Refresh [firsts] and [before] from block [i] on. *)
  let reindex t i =
    let acc =
      ref
        (if i = 0 then 0
         else t.before.(i - 1) + Array.length t.blocks.(i - 1))
    in
    for j = i to Array.length t.blocks - 1 do
      t.firsts.(j) <- t.blocks.(j).(0);
      t.before.(j) <- !acc;
      acc := !acc + Array.length t.blocks.(j)
    done

  (* Cut a strictly increasing array into [ceil (n / block)] blocks of
     near-equal size: each holds at least [block / 2] keys unless there
     is only one, so the next overflow or emptying is many updates away. *)
  let recut t (keys : int array) =
    let n = Array.length keys in
    let nb = (n + block - 1) / block in
    let start j = j * n / nb in
    t.blocks <-
      Array.init nb (fun j ->
          Array.sub keys (start j) (start (j + 1) - start j));
    t.firsts <- Array.make nb 0;
    t.before <- Array.make nb 0;
    t.size <- n;
    reindex t 0

  let create keys =
    Key.check_sorted_unique keys;
    let t = { blocks = [||]; firsts = [||]; before = [||]; size = 0 } in
    recut t keys;
    t

  let size t = t.size

  (* The block whose key range holds [k]: the last one whose first key
     is <= k, or block 0 for a key below them all. *)
  let block_of t k = max 0 (pos t.firsts k - 1)

  let rank t q =
    let i = pos t.firsts q in
    if i = 0 then 0 else t.before.(i - 1) + pos t.blocks.(i - 1) q

  let mem t k =
    Array.length t.blocks > 0
    &&
    let b = t.blocks.(block_of t k) in
    let p = pos b k in
    p > 0 && b.(p - 1) = k

  let insert t k =
    if mem t k then false
    else begin
      if Array.length t.blocks = 0 then recut t [| k |]
      else begin
        let i = block_of t k in
        let b = t.blocks.(i) in
        let p = pos b k and len = Array.length b in
        let grown = Array.make (len + 1) k in
        Array.blit b 0 grown 0 p;
        Array.blit b p grown (p + 1) (len - p);
        t.blocks.(i) <- grown;
        t.size <- t.size + 1;
        if len + 1 > 2 * block then recut t (to_sorted_array t)
        else reindex t i
      end;
      true
    end

  let delete t k =
    if not (mem t k) then false
    else begin
      let i = block_of t k in
      let b = t.blocks.(i) in
      let p = pos b k and len = Array.length b in
      let shrunk = Array.make (len - 1) 0 in
      Array.blit b 0 shrunk 0 (p - 1);
      Array.blit b p shrunk (p - 1) (len - p);
      t.blocks.(i) <- shrunk;
      t.size <- t.size - 1;
      if len = 1 then recut t (to_sorted_array t) else reindex t i;
      true
    end
end
