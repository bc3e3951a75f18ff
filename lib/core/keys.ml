(* Key-space layout of Tell inside the record store.

   Single-character namespaces keep requests small:
     r/<table>/<rid>      data records (all versions in one cell, §5.1)
     c/...                atomic counters (tids, rids, B+tree node ids)
     m/cm/<id>            published commit-manager state (§4.2)
     l/<tid>              transaction log entries (§4.4.1)
     i/<index>/n/<id>     B+tree nodes (§5.3)
     i/<index>/root       B+tree root pointer
     i/<index>/bufmeta    Bε buffer stripe boundaries (immutable, §3d)
     i/<index>/b/<k>      Bε buffer stripe cells (message queues, §3d)
     v/<table>/<unit>     version-set cells for SBVS buffering (§5.5.3)
     s/<table>            schema descriptors *)

(* [prefix ^ name ^ infix ^ n], with [n] in decimal zero-padded to
   [width] digits: exactly [Printf.sprintf "%s%s%s%0*d"], built in one
   allocation.  Store keys are made on every request, and a byte of
   difference would reroute the key ([Directory.partition_of_key]). *)
let compose ~prefix ~name ~infix ~width n =
  if n < 0 then Printf.sprintf "%s%s%s%0*d" prefix name infix width n
  else begin
    let rec digits n d = if n < 10 then d else digits (n / 10) (d + 1) in
    let lp = String.length prefix and ln = String.length name and li = String.length infix in
    let head = lp + ln + li in
    let len = head + max width (digits n 1) in
    let b = Bytes.create len in
    Bytes.blit_string prefix 0 b 0 lp;
    Bytes.blit_string name 0 b lp ln;
    Bytes.blit_string infix 0 b (lp + ln) li;
    let n = ref n in
    for i = len - 1 downto head do
      Bytes.unsafe_set b i (Char.unsafe_chr (Char.code '0' + (!n mod 10)));
      n := !n / 10
    done;
    Bytes.unsafe_to_string b
  end

let record ~table ~rid = compose ~prefix:"r/" ~name:table ~infix:"/" ~width:12 rid
let record_prefix ~table = "r/" ^ table ^ "/"

let rid_counter ~table = "c/rid/" ^ table
let tid_counter = "c/tid"
let commit_manager_state ~cm_id = compose ~prefix:"m/cm/" ~name:"" ~infix:"" ~width:3 cm_id
let commit_manager_prefix = "m/cm/"

let log_entry ~tid = compose ~prefix:"l/" ~name:"" ~infix:"" ~width:12 tid
let log_prefix = "l/"

let tid_of_log_key key =
  int_of_string (String.sub key 2 (String.length key - 2))

let index_node ~index ~node_id = compose ~prefix:"i/" ~name:index ~infix:"/n/" ~width:0 node_id
let index_root ~index = "i/" ^ index ^ "/root"
let index_node_counter ~index = "c/idx/" ^ index
let index_buffer_meta ~index = "i/" ^ index ^ "/bufmeta"
let index_buffer ~index ~stripe = compose ~prefix:"i/" ~name:index ~infix:"/b/" ~width:3 stripe

let version_set ~table ~unit_id = compose ~prefix:"v/" ~name:table ~infix:"/" ~width:0 unit_id
let schema ~table = "s/" ^ table
