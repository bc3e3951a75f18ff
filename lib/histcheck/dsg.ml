type label = Ww | Wr | Rw

type edge = { src : int; dst : int; label : label; key : string }

type t = {
  node_set : (int, unit) Hashtbl.t;
  out_edges : (int, edge list) Hashtbl.t;
}

let create () = { node_set = Hashtbl.create 64; out_edges = Hashtbl.create 64 }

let add_node t n = if not (Hashtbl.mem t.node_set n) then Hashtbl.replace t.node_set n ()

let add_edge t ~src ~dst ~label ~key =
  if src <> dst then begin
    add_node t src;
    add_node t dst;
    let e = { src; dst; label; key } in
    let es = Option.value ~default:[] (Hashtbl.find_opt t.out_edges src) in
    if not (List.mem e es) then Hashtbl.replace t.out_edges src (e :: es)
  end

let nodes t = Hashtbl.fold (fun n () acc -> n :: acc) t.node_set []
let out t n = Option.value ~default:[] (Hashtbl.find_opt t.out_edges n)

(* Tarjan.  Component sizes here are the handful of transactions of one
   short simulated run, so the recursive formulation is fine. *)
let sccs t =
  let index = Hashtbl.create 64 and low = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] and counter = ref 0 and components = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace low v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun e ->
        let w = e.dst in
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (out t v);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) (nodes t);
  !components

let shortest_cycle t ~within ~allowed ~start =
  let visited = Hashtbl.create 16 and prev = Hashtbl.create 16 in
  let q = Queue.create () in
  Hashtbl.replace visited start ();
  Queue.add start q;
  let result = ref None in
  (try
     while not (Queue.is_empty q) do
       let n = Queue.pop q in
       List.iter
         (fun e ->
           if within e.dst && allowed e.label then
             if e.dst = start then begin
               let rec build n acc =
                 if n = start then acc
                 else
                   let pe = Hashtbl.find prev n in
                   build pe.src (pe :: acc)
               in
               result := Some (build n [] @ [ e ]);
               raise Exit
             end
             else if not (Hashtbl.mem visited e.dst) then begin
               Hashtbl.replace visited e.dst ();
               Hashtbl.replace prev e.dst e;
               Queue.add e.dst q
             end)
         (out t n)
     done
   with Exit -> ());
  !result

let is_simple cycle =
  let srcs = List.map (fun e -> e.src) cycle in
  List.length (List.sort_uniq compare srcs) = List.length srcs

(* BFS over (node, last-edge-was-rw) states: a path may traverse a node
   once per state, which is exactly what makes "no two adjacent rw"
   decidable with BFS.  The wrap-around adjacency (last edge, first edge)
   is enforced at the goal test. *)
let shortest_si_cycle t ~within ~start =
  let best = ref None in
  let consider c =
    match !best with Some b when List.length b <= List.length c -> () | _ -> best := Some c
  in
  List.iter
    (fun e0 ->
      if within e0.dst then begin
        let first_rw = e0.label = Rw in
        let s0 = (e0.dst, first_rw) in
        let visited = Hashtbl.create 16 and prev = Hashtbl.create 16 in
        let q = Queue.create () in
        Hashtbl.replace visited s0 ();
        Queue.add s0 q;
        try
          while not (Queue.is_empty q) do
            let (n, prw) as st = Queue.pop q in
            List.iter
              (fun e ->
                if within e.dst && not (prw && e.label = Rw) then
                  if e.dst = start && not (e.label = Rw && first_rw) then begin
                    let rec build st acc =
                      if st = s0 then acc
                      else
                        let pe, pst = Hashtbl.find prev st in
                        build pst (pe :: acc)
                    in
                    consider ((e0 :: build st []) @ [ e ]);
                    raise Exit
                  end
                  else begin
                    let st' = (e.dst, e.label = Rw) in
                    if not (Hashtbl.mem visited st') then begin
                      Hashtbl.replace visited st' ();
                      Hashtbl.replace prev st' (e, st);
                      Queue.add st' q
                    end
                  end)
              (out t n)
          done
        with Exit -> ()
      end)
    (out t start);
  match !best with Some c when is_simple c -> Some c | _ -> None

let label_name = function Ww -> "ww" | Wr -> "wr" | Rw -> "rw"

let pp_cycle ppf cycle =
  match cycle with
  | [] -> Format.pp_print_string ppf "<empty cycle>"
  | first :: _ ->
      List.iter
        (fun e -> Format.fprintf ppf "T%d -%s(%s)-> " e.src (label_name e.label) e.key)
        cycle;
      Format.fprintf ppf "T%d" first.src
