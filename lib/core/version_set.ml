module ISet = Set.Make (Int)

type t = { base : int; above : ISet.t }

let normalize t =
  let rec advance base above =
    if ISet.mem (base + 1) above then advance (base + 1) (ISet.remove (base + 1) above)
    else { base; above }
  in
  advance t.base (ISet.filter (fun x -> x > t.base) t.above)

let empty = { base = 0; above = ISet.empty }
let of_base base = { base; above = ISet.empty }
let base t = t.base
let above t = ISet.elements t.above
let mem t x = x <= t.base || ISet.mem x t.above
let add t x = if mem t x then t else normalize { t with above = ISet.add x t.above }

let union a b =
  let lo, hi = if a.base <= b.base then (a, b) else (b, a) in
  normalize { base = hi.base; above = ISet.union (ISet.filter (fun x -> x > hi.base) lo.above) hi.above }

(* Descriptor merge (§4.2 multi-manager form): the visible set of a begin
   is the union of every commit manager's published descriptor.  Folding
   from the highest base keeps the intermediate sparse sets small. *)
let union_many = function
  | [] -> empty
  | first :: rest -> List.fold_left union first rest

let subset a b =
  let rec range_covered x = x > a.base || (ISet.mem x b.above && range_covered (x + 1)) in
  (a.base <= b.base || range_covered (b.base + 1))
  && ISet.for_all (fun x -> mem b x) a.above

let equal a b = a.base = b.base && ISet.equal a.above b.above

let max_elt t = match ISet.max_elt_opt t.above with Some m -> m | None -> t.base

let cardinal_above t = ISet.cardinal t.above

let encode t =
  let buf = Buffer.create 32 in
  Codec.put_int buf t.base;
  Codec.put_int buf (ISet.cardinal t.above);
  ISet.iter (Codec.put_int buf) t.above;
  Buffer.contents buf

let decode s =
  let c = Codec.cursor s in
  let base = Codec.read_int c in
  let above = ref ISet.empty in
  for _ = 1 to Codec.read_count c do
    above := ISet.add (Codec.read_int c) !above
  done;
  normalize { base; above = !above }

let pp ppf t =
  Fmt.pf ppf "{<=%d%a}" t.base
    (fun ppf above -> ISet.iter (fun x -> Fmt.pf ppf ",%d" x) above)
    t.above
