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

(* The flat-object JSON reader below cannot parse nested arrays/objects, so
   provenance is serialized as two flat strings: a cause descriptor
   ("init" | "read:<ports>" | "fault:<id>") and a semicolon-joined change
   list ("dist:3>4;parent:2>5").  Old trace lines that predate provenance
   simply lack both fields and parse back with [prov = None]. *)

let cause_to_string = function
  | Init -> "init"
  | Fault id -> Fmt.str "fault:%d" id
  | Neighbor_read ports -> "read:" ^ String.concat "," (List.map string_of_int ports)

let cause_of_string s =
  let prefixed p = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  let rest p = String.sub s (String.length p) (String.length s - String.length p) in
  if s = "init" then Some Init
  else if prefixed "fault:" then
    Option.map (fun id -> Fault id) (int_of_string_opt (rest "fault:"))
  else if prefixed "read:" then begin
    let r = rest "read:" in
    if r = "" then Some (Neighbor_read [])
    else
      try Some (Neighbor_read (List.map int_of_string (String.split_on_char ',' r)))
      with Failure _ -> None
  end
  else None

let change_to_string c = Fmt.str "%s:%d>%d" c.field c.old_enc c.new_enc

(* parse from the right: field names never contain ':' or '>', but being
   defensive costs nothing *)
let change_of_string s =
  match String.rindex_opt s '>' with
  | None -> None
  | Some gt -> (
      match String.rindex_from_opt s (gt - 1) ':' with
      | None -> None
      | Some colon -> (
          let field = String.sub s 0 colon in
          let old_s = String.sub s (colon + 1) (gt - colon - 1) in
          let new_s = String.sub s (gt + 1) (String.length s - gt - 1) in
          match (int_of_string_opt old_s, int_of_string_opt new_s) with
          | Some old_enc, Some new_enc -> Some { field; old_enc; new_enc }
          | _ -> None))

let changes_to_string cs = String.concat ";" (List.map change_to_string cs)

let changes_of_string s =
  if s = "" then Some []
  else
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | part :: rest -> (
          match change_of_string part with None -> None | Some c -> go (c :: acc) rest)
    in
    go [] (String.split_on_char ';' s)

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

(* ---------------- a flat-object JSON reader ---------------- *)

(* Just enough JSON to round-trip the objects [event_to_json] emits: one
   flat object of string / int / bool fields.  Unknown shapes return
   [None]; used by tests and external-tool sanity checks, not by any hot
   path. *)

type json_field = Jstr of string | Jint of int | Jbool of bool

exception Bad_json

let parse_flat_object (s : string) =
  let len = String.length s in
  let pos = ref 0 in
  let peek () = if !pos >= len then raise Bad_json else s.[!pos] in
  let advance () = incr pos in
  let expect c = if peek () <> c then raise Bad_json else advance () in
  let skip_ws () =
    while !pos < len && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'; advance ()
          | '\\' -> Buffer.add_char b '\\'; advance ()
          | '/' -> Buffer.add_char b '/'; advance ()
          | 'n' -> Buffer.add_char b '\n'; advance ()
          | 'r' -> Buffer.add_char b '\r'; advance ()
          | 't' -> Buffer.add_char b '\t'; advance ()
          | 'b' -> Buffer.add_char b '\b'; advance ()
          | 'f' -> Buffer.add_char b '\012'; advance ()
          | 'u' ->
              advance ();
              if !pos + 4 > len then raise Bad_json;
              let code =
                try int_of_string ("0x" ^ String.sub s !pos 4) with Failure _ -> raise Bad_json
              in
              (* the escaper only emits \u00XX for control bytes *)
              if code > 0xff then raise Bad_json;
              Buffer.add_char b (Char.chr code);
              pos := !pos + 4
          | _ -> raise Bad_json);
          go ()
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_value () =
    match peek () with
    | '"' -> Jstr (parse_string ())
    | 't' ->
        if !pos + 4 <= len && String.sub s !pos 4 = "true" then (pos := !pos + 4; Jbool true)
        else raise Bad_json
    | 'f' ->
        if !pos + 5 <= len && String.sub s !pos 5 = "false" then (pos := !pos + 5; Jbool false)
        else raise Bad_json
    | '-' | '0' .. '9' ->
        let start = !pos in
        if peek () = '-' then advance ();
        while !pos < len && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
          advance ()
        done;
        if !pos = start then raise Bad_json;
        Jint (int_of_string (String.sub s start (!pos - start)))
    | _ -> raise Bad_json
  in
  try
    skip_ws ();
    expect '{';
    skip_ws ();
    let fields = ref [] in
    if peek () = '}' then advance ()
    else begin
      let rec members () =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        skip_ws ();
        let v = parse_value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        match peek () with
        | ',' -> advance (); members ()
        | '}' -> advance ()
        | _ -> raise Bad_json
      in
      members ()
    end;
    skip_ws ();
    if !pos <> len then raise Bad_json;
    Some (List.rev !fields)
  with Bad_json -> None

(* Inverse of [event_to_json] for well-formed event objects. *)
let event_of_json line =
  match parse_flat_object line with
  | None -> None
  | Some fields -> (
      let str k = match List.assoc_opt k fields with Some (Jstr s) -> Some s | _ -> None in
      let int k = match List.assoc_opt k fields with Some (Jint i) -> Some i | _ -> None in
      let bool k = match List.assoc_opt k fields with Some (Jbool b) -> Some b | _ -> None in
      match (str "event", int "round") with
      | Some "activation", Some round ->
          Option.map (fun node -> Activation { round; node }) (int "node")
      | Some "register_write", Some round -> (
          match (int "node", int "bits") with
          | Some node, Some bits -> (
              (* a line without a cause field is a pre-provenance trace:
                 parse it with [prov = None]; a present-but-garbled cause
                 or change list makes the whole line ill-formed *)
              match str "cause" with
              | None -> Some (Register_write { round; node; bits; prov = None })
              | Some c -> (
                  let changes =
                    match str "changes" with None -> Some [] | Some s -> changes_of_string s
                  in
                  match (cause_of_string c, changes) with
                  | Some cause, Some changes ->
                      Some (Register_write { round; node; bits; prov = Some { cause; changes } })
                  | _ -> None))
          | _ -> None)
      | Some "alarm_raised", Some round ->
          Option.map (fun node -> Alarm_raised { round; node }) (int "node")
      | Some "alarm_cleared", Some round ->
          Option.map (fun node -> Alarm_cleared { round; node }) (int "node")
      | Some "fault_injected", Some round ->
          Option.map (fun node -> Fault_injected { round; node; fault = int "fault" }) (int "node")
      | Some "convergence", Some round ->
          Option.map (fun reached -> Convergence { round; reached }) (bool "reached")
      | Some "invariant_violation", Some round -> (
          match (str "monitor", str "detail") with
          | Some monitor, Some detail ->
              Some (Invariant_violation { round; node = int "node"; monitor; detail })
          | _ -> None)
      | _ -> None)

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
