(* Tags store the full line number (not the set-relative tag); a slot is
   empty when its tag is -1.  Slot [i] of set [s] is [s * ways + w].
   Every cache picks the same victim: the first empty way in index order
   while its set has one, else the least recently used line.  How it
   finds a line and that victim depends on associativity, fixed at
   creation:

   - Scanned sets ([ways < 16]: the L1 and L2).  LRU is a per-slot
     monotone stamp and both probe and victim search scan the [ways]
     slots of one set, which is a handful of int reads.  Tag and stamp
     live interleaved in one [meta] array — slot [i]'s tag at [2 * i],
     its stamp at [2 * i + 1] — so the stamp write that follows every
     tag match lands on the host cache line the scan just pulled in.
     With several simulated machines interleaving through one host core
     the slot arrays are usually cold, and touching one line per probe
     instead of two is a measurable share of simulation speed.

   - Indexed sets ([ways >= 16]: the 64-way fully-associative TLB).  A
     scan would read every way on each miss, and again to pick the
     victim.  Instead an exact open-addressed map from line to slot
     answers a probe with one or two bucket reads, and a doubly linked
     recency list per set holds the set's resident slots from LRU to
     MRU: a hit moves its slot to the MRU end, a fill into a full set
     evicts the LRU end.  No stamps are kept.  A probe first checks the
     MRU slot's tag: consecutive accesses mostly fall on one page, and
     that check is cheaper than hashing.

   Both choose the same victim in a full set: the tick advances before
   every stamp write, so resident stamps are distinct, and the smallest
   one is the slot touched longest ago — the recency list's LRU end. *)

open Simcore.Int_compare

type t = {
  cache_name : string;
  size : int;
  line : int;
  line_shift : int;
  n_sets : int;
  set_mask : int;
  n_ways : int;
  meta : int array; (* 2 * n_sets * n_ways: tag at 2i, stamp at 2i+1 *)
  dirty : Bytes.t; (* one byte per slot, '\000' = clean — a bool array
                      would spend a full word per flag, and the host
                      cache footprint of the slot arrays is what bounds
                      simulation speed *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable last_victim : int; (* line evicted by the last fill; -1 = none *)
  (* Probe result: set location of the line most recently probed, reused
     by [fill_probed] so a miss does not recompute line/base.  Both are
     immediate ints, so caching them allocates nothing. *)
  mutable probe_line : int;
  mutable probe_base : int;
  (* Indexed sets only; all four arrays are empty in a scanned cache. *)
  indexed : bool;
  map : int array;
      (* Line -> slot, linear probing: a bucket holds [slot + 1], [0] =
         free.  The key is read back from the slot's tag, so a bucket is
         one word.  At most a quarter of the buckets are in use. *)
  map_mask : int;
  map_shift : int; (* bucket of [line] = [(line * hash_mult) lsr map_shift] *)
  links : int array;
      (* Recency list: slot [i]'s older neighbour at [2 * i], newer at
         [2 * i + 1]; -1 = none.  Only resident slots are linked. *)
  ends : int array; (* set [s]: LRU slot at [2 * s], MRU at [2 * s + 1] *)
  free : int array; (* empty ways per set *)
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* Sets at least this associative are indexed rather than scanned. *)
let indexed_ways = 16

(* Odd multiplier of the map's multiplicative hash.  Taking the top
   bits of the product spreads runs of consecutive lines (pages of one
   array) over the table; the identity hash would pack them into one
   long probe run. *)
let hash_mult = 0x2545F4914F6CDD1D

let create ?(name = "cache") ~size_bytes ~line_bytes ~ways () =
  if not (is_pow2 line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  if ways < 1 then invalid_arg "Cache.create: ways must be >= 1";
  if size_bytes mod (line_bytes * ways) <> 0 then
    invalid_arg "Cache.create: size not a multiple of line * ways";
  let n_sets = size_bytes / (line_bytes * ways) in
  if not (is_pow2 n_sets) then
    invalid_arg "Cache.create: set count must be a power of two";
  let slots = n_sets * ways in
  let indexed = ways >= indexed_ways in
  (* Smallest power of two holding four buckets per slot. *)
  let rec up b = if 1 lsl b >= 4 * slots then b else up (b + 1) in
  let map_bits = if indexed then up 0 else 0 in
  {
    cache_name = name;
    size = size_bytes;
    line = line_bytes;
    line_shift = log2 line_bytes;
    n_sets;
    set_mask = n_sets - 1;
    n_ways = ways;
    meta = Array.init (2 * slots) (fun j -> if j land 1 = 0 then -1 else 0);
    dirty = Bytes.make slots '\000';
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
    last_victim = -1;
    probe_line = -1;
    probe_base = 0;
    indexed;
    map = (if indexed then Array.make (1 lsl map_bits) 0 else [||]);
    map_mask = (1 lsl map_bits) - 1;
    map_shift = 63 - map_bits;
    links = (if indexed then Array.make (2 * slots) (-1) else [||]);
    ends = (if indexed then Array.make (2 * n_sets) (-1) else [||]);
    free = (if indexed then Array.make n_sets ways else [||]);
  }

let name t = t.cache_name
let size_bytes t = t.size
let line_bytes t = t.line
let ways t = t.n_ways
let sets t = t.n_sets
let lines t = t.size / t.line
let line_of_addr t addr = addr lsr t.line_shift

(* Index-validity invariant for the unsafe accesses below: every slot
   index is [base + w] with [base = (line land set_mask) * n_ways
   <= (n_sets - 1) * n_ways] and [w < n_ways], so
   [2 * (base + w) + 1 < 2 * n_sets * n_ways], the length of [meta] and
   [links], and [base + w < n_sets * n_ways], the length of [dirty].
   Map buckets are masked by [map_mask = length map - 1], set numbers by
   [set_mask], and a non-zero bucket or a non-negative link or end is a
   slot index. *)

(* Top-level recursion with explicit arguments: a local [let rec]
   capturing [t]/[base]/[line] would allocate a closure on every call
   without flambda.  The annotations keep the tag compare an int
   compare rather than a call to the polymorphic [caml_equal]. *)
let rec find_way_from (meta : int array) n_ways base (line : int) w =
  if w = n_ways then -1
  else if Array.unsafe_get meta (2 * (base + w)) = line then w
  else find_way_from meta n_ways base line (w + 1)

let find_way t base line = find_way_from t.meta t.n_ways base line 0

(* ---- Indexed sets: line -> slot map ------------------------------- *)

let bucket t line = (line * hash_mult) lsr t.map_shift

(* Slot holding [line], or -1: walk the probe run from its bucket [h]
   until the line's slot or a free bucket. *)
let rec map_find t line h =
  let e = Array.unsafe_get t.map h in
  if e = 0 then -1
  else if Array.unsafe_get t.meta (2 * (e - 1)) = line then e - 1
  else map_find t line ((h + 1) land t.map_mask)

let rec map_insert t e h =
  if Array.unsafe_get t.map h = 0 then Array.unsafe_set t.map h e
  else map_insert t e ((h + 1) land t.map_mask)

let rec map_position t e h =
  if Array.unsafe_get t.map h = e then h
  else map_position t e ((h + 1) land t.map_mask)

(* Backward-shift delete: with the bucket [hole] emptied, move each later
   entry of the probe run up into the hole unless its own bucket lies
   cyclically in (hole, j] — moving it would put it before its bucket,
   where no lookup starts.  The run ends at the first free bucket.  No
   tombstones, so a lookup never walks past dead entries. *)
let rec map_close t hole j =
  let j = (j + 1) land t.map_mask in
  let e = Array.unsafe_get t.map j in
  if e = 0 then Array.unsafe_set t.map hole 0
  else begin
    let home = bucket t (Array.unsafe_get t.meta (2 * (e - 1))) in
    if (j - home) land t.map_mask >= (j - hole) land t.map_mask then begin
      Array.unsafe_set t.map hole e;
      map_close t j j
    end
    else map_close t hole j
  end

(* Drop slot [i] from the map; its tag must still be the line it holds. *)
let map_remove t i =
  let line = Array.unsafe_get t.meta (2 * i) in
  let h = map_position t (i + 1) (bucket t line) in
  map_close t h h

(* ---- Indexed sets: recency list ----------------------------------- *)

let unlink t s i =
  let links = t.links in
  let older = Array.unsafe_get links (2 * i) in
  let newer = Array.unsafe_get links ((2 * i) + 1) in
  if older >= 0 then Array.unsafe_set links ((2 * older) + 1) newer
  else Array.unsafe_set t.ends (2 * s) newer;
  if newer >= 0 then Array.unsafe_set links (2 * newer) older
  else Array.unsafe_set t.ends ((2 * s) + 1) older

let push_mru t s i =
  let links = t.links in
  let mru = Array.unsafe_get t.ends ((2 * s) + 1) in
  Array.unsafe_set links (2 * i) mru;
  Array.unsafe_set links ((2 * i) + 1) (-1);
  if mru >= 0 then Array.unsafe_set links ((2 * mru) + 1) i
  else Array.unsafe_set t.ends (2 * s) i;
  Array.unsafe_set t.ends ((2 * s) + 1) i

(* Slot for a fill into set [s]: its first empty way while it has one,
   else its LRU slot, taken off the list and out of the map. *)
let indexed_victim t s base =
  let free = Array.unsafe_get t.free s in
  if free > 0 then begin
    Array.unsafe_set t.free s (free - 1);
    base + find_way t base (-1)
  end
  else begin
    let i = Array.unsafe_get t.ends (2 * s) in
    unlink t s i;
    map_remove t i;
    i
  end

(* Slot holding [line] in either kind of set, or -1. *)
let slot_of t line =
  if t.indexed then map_find t line (bucket t line)
  else begin
    let base = (line land t.set_mask) * t.n_ways in
    let w = find_way t base line in
    if w >= 0 then base + w else -1
  end

(* ------------------------------------------------------------------ *)

let probe t ~addr ~write =
  let line = addr lsr t.line_shift in
  let s = line land t.set_mask in
  let base = s * t.n_ways in
  t.probe_line <- line;
  t.probe_base <- base;
  (* Slot of a hit, its recency already refreshed, or -1. *)
  let i =
    if t.indexed then begin
      let mru = Array.unsafe_get t.ends ((2 * s) + 1) in
      if mru >= 0 && Array.unsafe_get t.meta (2 * mru) = line then mru
      else begin
        let i = map_find t line (bucket t line) in
        if i >= 0 then begin
          unlink t s i;
          push_mru t s i
        end;
        i
      end
    end
    else begin
      let w = find_way t base line in
      if w < 0 then -1
      else begin
        t.tick <- t.tick + 1;
        Array.unsafe_set t.meta ((2 * (base + w)) + 1) t.tick;
        base + w
      end
    end
  in
  if i >= 0 then begin
    t.hits <- t.hits + 1;
    if write then Bytes.unsafe_set t.dirty i '\001';
    true
  end
  else begin
    t.misses <- t.misses + 1;
    false
  end

let access = probe
let probed_line t = t.probe_line

(* Scanned sets: the first empty way, else the way with the smallest
   stamp (first minimum wins ties), in one accumulator scan. *)
let rec pick_way (meta : int array) n_ways base w empty lru_way lru_stamp =
  if w = n_ways then if empty >= 0 then empty else lru_way
  else begin
    let i = 2 * (base + w) in
    let empty =
      if empty = -1 && Array.unsafe_get meta i = -1 then w else empty
    in
    let s = Array.unsafe_get meta (i + 1) in
    if s < lru_stamp then pick_way meta n_ways base (w + 1) empty w s
    else pick_way meta n_ways base (w + 1) empty lru_way lru_stamp
  end

let fill_probed t ~write =
  let line = t.probe_line in
  let base = t.probe_base in
  let i =
    if t.indexed then indexed_victim t (line land t.set_mask) base
    else base + pick_way t.meta t.n_ways base 0 (-1) 0 max_int
  in
  let prev = Array.unsafe_get t.meta (2 * i) in
  t.last_victim <- prev;
  let wrote_back =
    if prev <> -1 then begin
      t.evictions <- t.evictions + 1;
      if Char.code (Bytes.unsafe_get t.dirty i) <> 0 then begin
        t.writebacks <- t.writebacks + 1;
        true
      end
      else false
    end
    else false
  in
  Array.unsafe_set t.meta (2 * i) line;
  Bytes.unsafe_set t.dirty i (if write then '\001' else '\000');
  if t.indexed then begin
    map_insert t (i + 1) (bucket t line);
    push_mru t (line land t.set_mask) i
  end
  else begin
    t.tick <- t.tick + 1;
    Array.unsafe_set t.meta ((2 * i) + 1) t.tick
  end;
  wrote_back

let fill t ~addr ~write =
  let line = addr lsr t.line_shift in
  t.probe_line <- line;
  t.probe_base <- (line land t.set_mask) * t.n_ways;
  fill_probed t ~write

let last_victim t = t.last_victim

let resident t ~addr = slot_of t (addr lsr t.line_shift) >= 0

let invalidate t ~addr =
  let line = addr lsr t.line_shift in
  let i = slot_of t line in
  if i >= 0 then begin
    if t.indexed then begin
      let s = line land t.set_mask in
      map_remove t i;
      unlink t s i;
      t.free.(s) <- t.free.(s) + 1
    end;
    t.meta.(2 * i) <- -1;
    t.meta.((2 * i) + 1) <- 0;
    Bytes.set t.dirty i '\000'
  end

let flush t =
  for i = 0 to (Array.length t.meta / 2) - 1 do
    t.meta.(2 * i) <- -1;
    t.meta.((2 * i) + 1) <- 0
  done;
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  if t.indexed then begin
    Array.fill t.map 0 (Array.length t.map) 0;
    Array.fill t.ends 0 (Array.length t.ends) (-1);
    Array.fill t.free 0 (Array.length t.free) t.n_ways
  end

type stats = { hits : int; misses : int; evictions : int; writebacks : int }

let stats (t : t) =
  { hits = t.hits; misses = t.misses; evictions = t.evictions; writebacks = t.writebacks }

let reset_stats (t : t) =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  t.writebacks <- 0

let pp_stats fmt s =
  let total = s.hits + s.misses in
  let ratio = if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total in
  Format.fprintf fmt "hits %d, misses %d (%.1f%% hit), evictions %d, writebacks %d"
    s.hits s.misses (100.0 *. ratio) s.evictions s.writebacks

let record_metrics (t : t) ?(labels = []) reg =
  let labels = ("level", t.cache_name) :: labels in
  Obs.Metrics.incr reg ~labels "cache_hits" t.hits;
  Obs.Metrics.incr reg ~labels "cache_misses" t.misses;
  Obs.Metrics.incr reg ~labels "cache_evictions" t.evictions;
  Obs.Metrics.incr reg ~labels "cache_writebacks" t.writebacks
