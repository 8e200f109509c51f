(* Typed execution traces for the event-driven engine.

   A trace is a bounded ring buffer of events: when it fills, the oldest
   events are dropped (and counted) so that attaching a trace to an
   arbitrarily long run costs O(capacity) memory.  The engine records an
   event per activation, register write, alarm transition, fault injection
   and convergence check; the observability layer (Ssmst_obs) additionally
   records online-monitor verdicts, which makes
   the paper's round/bit/distance claims observable per run instead of only
   as aggregates. *)

(* Why a register changed: the causal tag every write carries once
   provenance capture is on.  [Neighbor_read ports] lists the ports whose
   registers the activation read (the causal in-edges of the provenance
   DAG); [Fault id] names the injection (ids count injections per run);
   [Init] covers external writes that create state from nothing. *)
type cause = Init | Neighbor_read of int list | Fault of int

type change = { field : string; old_enc : int; new_enc : int }
(* one field-level delta: [field] names the register field
   (Protocol.S.field_names), [old_enc]/[new_enc] are its encoded
   fingerprints before/after (Protocol.S.encode) *)

type prov = { cause : cause; changes : change list }

type event =
  | Activation of { round : int; node : int }
      (* the daemon activated [node] during [round] *)
  | Register_write of { round : int; node : int; bits : int; prov : prov option }
      (* the activation (or an external write) changed the register;
         [prov] is present when the engine captured provenance *)
  | Alarm_raised of { round : int; node : int }
  | Alarm_cleared of { round : int; node : int }
  | Fault_injected of { round : int; node : int; fault : int option }
      (* [fault] is the injection id the write's [Fault] cause refers to *)
  | Convergence of { round : int; reached : bool }
      (* emitted by [run_until] when it stops *)
  | Invariant_violation of { round : int; node : int option; monitor : string; detail : string }
      (* an online monitor found the snapshot of [round] in violation *)

type t = {
  buf : event option array;
  mutable next : int;  (* write cursor *)
  mutable total : int;  (* events ever recorded *)
}

let default_capacity = 65536

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { buf = Array.make capacity None; next = 0; total = 0 }

let capacity t = Array.length t.buf

let record t e =
  t.buf.(t.next) <- Some e;
  t.next <- (t.next + 1) mod Array.length t.buf;
  t.total <- t.total + 1

let total t = t.total
let length t = min t.total (Array.length t.buf)
let dropped t = t.total - length t

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) None;
  t.next <- 0;
  t.total <- 0

(* Oldest-first iteration over the retained window. *)
let iter f t =
  let cap = Array.length t.buf in
  let len = length t in
  let start = (t.next - len + cap) mod cap in
  for i = 0 to len - 1 do
    match t.buf.((start + i) mod cap) with Some e -> f e | None -> ()
  done

let to_list t =
  let acc = ref [] in
  iter (fun e -> acc := e :: !acc) t;
  List.rev !acc

let event_name = function
  | Activation _ -> "activation"
  | Register_write _ -> "register_write"
  | Alarm_raised _ -> "alarm_raised"
  | Alarm_cleared _ -> "alarm_cleared"
  | Fault_injected _ -> "fault_injected"
  | Convergence _ -> "convergence"
  | Invariant_violation _ -> "invariant_violation"

let event_round = function
  | Activation { round; _ }
  | Register_write { round; _ }
  | Alarm_raised { round; _ }
  | Alarm_cleared { round; _ }
  | Fault_injected { round; _ }
  | Convergence { round; _ }
  | Invariant_violation { round; _ } ->
      round

let event_node = function
  | Activation { node; _ }
  | Register_write { node; _ }
  | Alarm_raised { node; _ }
  | Alarm_cleared { node; _ }
  | Fault_injected { node; _ } ->
      Some node
  | Invariant_violation { node; _ } -> node
  | Convergence _ -> None

(* The field-level delta between two registers: [encode] fingerprints
   each field (Protocol.S.encode), [names] names them
   (Protocol.S.field_names); fields past [names] are called "f<i>". *)
let field_changes ~names ~encode old s' =
  let oe = encode old and ne = encode s' in
  let k = min (Array.length oe) (Array.length ne) in
  let changes = ref [] in
  for i = k - 1 downto 0 do
    if oe.(i) <> ne.(i) then
      let field = if i < Array.length names then names.(i) else Fmt.str "f%d" i in
      changes := { field; old_enc = oe.(i); new_enc = ne.(i) } :: !changes
  done;
  !changes

(* ---------------- JSON string escaping ---------------- *)

(* Standard JSON escaping: quotes, backslashes, the common control
   characters by name, everything else below 0x20 as \u00XX.  OCaml's %S is
   close but not JSON ([\027] style decimal escapes are invalid JSON), so
   labels and monitor details are escaped by hand. *)
let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* ---------------- provenance codecs ---------------- *)

(* Provenance is serialized as two flat strings, so a JSONL line stays one
   flat object and a CSV row keeps its columns: a cause descriptor
   ("init" | "read:<ports>" | "fault:<id>") and a semicolon-joined change
   list ("dist:3>4;parent:2>5").  Writes without provenance lack both
   fields. *)

let cause_to_string = function
  | Init -> "init"
  | Fault id -> Fmt.str "fault:%d" id
  | Neighbor_read ports -> "read:" ^ String.concat "," (List.map string_of_int ports)

let change_to_string c = Fmt.str "%s:%d>%d" c.field c.old_enc c.new_enc

let changes_to_string cs = String.concat ";" (List.map change_to_string cs)

(* ---------------- sinks ---------------- *)

(* One JSON object per event; the whole trace is a JSONL stream. *)
let event_to_json e =
  let base = Fmt.str {|"event":"%s","round":%d|} (event_name e) (event_round e) in
  match e with
  | Register_write { node; bits; prov; _ } ->
      let p =
        match prov with
        | None -> ""
        | Some { cause; changes } ->
            Fmt.str {|,"cause":"%s","changes":"%s"|}
              (json_escape (cause_to_string cause))
              (json_escape (changes_to_string changes))
      in
      Fmt.str {|{%s,"node":%d,"bits":%d%s}|} base node bits p
  | Fault_injected { node; fault; _ } -> (
      match fault with
      | None -> Fmt.str {|{%s,"node":%d}|} base node
      | Some id -> Fmt.str {|{%s,"node":%d,"fault":%d}|} base node id)
  | Convergence { reached; _ } -> Fmt.str {|{%s,"reached":%b}|} base reached
  | Invariant_violation { node; monitor; detail; _ } ->
      let node_field = match node with None -> "" | Some v -> Fmt.str {|"node":%d,|} v in
      Fmt.str {|{%s,%s"monitor":"%s","detail":"%s"}|} base node_field (json_escape monitor)
        (json_escape detail)
  | Activation { node; _ } | Alarm_raised { node; _ } | Alarm_cleared { node; _ } ->
      Fmt.str {|{%s,"node":%d}|} base node

let write_jsonl oc t = iter (fun e -> output_string oc (event_to_json e ^ "\n")) t

let csv_header = "event,round,node,bits,reached,label,enter,monitor,detail,cause,changes"

(* RFC-4180-style quoting, applied only when the cell needs it. *)
let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then begin
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c -> if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end
  else s

let event_to_csv e =
  let node = match event_node e with Some v -> string_of_int v | None -> "" in
  let bits = match e with Register_write { bits; _ } -> string_of_int bits | _ -> "" in
  let reached = match e with Convergence { reached; _ } -> string_of_bool reached | _ -> "" in
  let monitor =
    match e with Invariant_violation { monitor; _ } -> csv_escape monitor | _ -> ""
  in
  let detail = match e with Invariant_violation { detail; _ } -> csv_escape detail | _ -> "" in
  let cause =
    match e with
    | Register_write { prov = Some { cause; _ }; _ } -> csv_escape (cause_to_string cause)
    | Fault_injected { fault = Some id; _ } -> csv_escape (cause_to_string (Fault id))
    | _ -> ""
  in
  let changes =
    match e with
    | Register_write { prov = Some { changes; _ }; _ } -> csv_escape (changes_to_string changes)
    | _ -> ""
  in
  (* [label] and [enter] are retired columns, kept empty so the column
     positions readers index by stay put *)
  Fmt.str "%s,%d,%s,%s,%s,,,%s,%s,%s,%s" (event_name e) (event_round e) node bits reached monitor
    detail cause changes

let write_csv oc t =
  output_string oc (csv_header ^ "\n");
  iter (fun e -> output_string oc (event_to_csv e ^ "\n")) t

let pp_event ppf e =
  match e with
  | Invariant_violation { round; node; monitor; detail } ->
      Fmt.pf ppf "[%d] violation %s%a: %s" round monitor
        Fmt.(option (fun ppf v -> Fmt.pf ppf " at node %d" v))
        node detail
  | _ -> (
      match event_node e with
      | Some v -> Fmt.pf ppf "[%d] %s node %d" (event_round e) (event_name e) v
      | None -> Fmt.pf ppf "[%d] %s" (event_round e) (event_name e))
