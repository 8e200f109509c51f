(* Minimal JSON for machine-written artifacts (see the interface).
   Factored out of bench/main.ml so the trend report, the perf-trajectory
   section and the telemetry tests share one parser. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

let parse (s : string) : t =
  let i = ref 0 in
  let len = String.length s in
  let peek () = if !i < len then Some s.[!i] else None in
  let next () =
    if !i >= len then raise (Bad "unexpected end");
    let c = s.[!i] in
    incr i;
    c
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr i;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    if next () <> c then raise (Bad (Printf.sprintf "expected %c at %d" c !i))
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
          (match next () with
          | ('"' | '\\' | '/') as c -> Buffer.add_char b c
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' -> (
              if !i + 4 > len then raise (Bad "short \\u escape");
              match int_of_string_opt ("0x" ^ String.sub s !i 4) with
              | Some code when Uchar.is_valid code ->
                  i := !i + 4;
                  Buffer.add_utf_8_uchar b (Uchar.of_int code)
              | _ -> raise (Bad "bad \\u escape"))
          | c -> raise (Bad (Printf.sprintf "unsupported escape \\%c" c)));
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        incr i;
        skip_ws ();
        if peek () = Some '}' then (
          incr i;
          Obj [])
        else
          let rec members acc =
            let key = parse_string () in
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' ->
                skip_ws ();
                members ((key, v) :: acc)
            | '}' -> Obj (List.rev ((key, v) :: acc))
            | c -> raise (Bad (Printf.sprintf "bad object separator %c" c))
          in
          members []
    | Some '[' ->
        incr i;
        skip_ws ();
        if peek () = Some ']' then (
          incr i;
          Arr [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> elems (v :: acc)
            | ']' -> Arr (List.rev (v :: acc))
            | c -> raise (Bad (Printf.sprintf "bad array separator %c" c))
          in
          elems []
    | Some ('t' | 'f' | 'n') ->
        let lit w v =
          if !i + String.length w <= len && String.sub s !i (String.length w) = w then begin
            i := !i + String.length w;
            v
          end
          else raise (Bad "bad literal")
        in
        if s.[!i] = 't' then lit "true" (Bool true)
        else if s.[!i] = 'f' then lit "false" (Bool false)
        else lit "null" Null
    | Some _ ->
        let j = ref !i in
        while
          !j < len
          && match s.[!j] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
        do
          incr j
        done;
        if !j = !i then raise (Bad (Printf.sprintf "unexpected char at %d" !i));
        let v =
          try float_of_string (String.sub s !i (!j - !i))
          with Failure _ -> raise (Bad "bad number")
        in
        i := !j;
        Num v
    | None -> raise (Bad "empty input")
  in
  let v = parse_value () in
  skip_ws ();
  if !i < len then raise (Bad (Printf.sprintf "trailing garbage at %d" !i));
  v

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
      else Printf.sprintf "%g" f
  | Str s -> "\"" ^ Ssmst_sim.Trace.json_escape s ^ "\""
  | Arr l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj m ->
      "{" ^ String.concat "," (List.map (fun (k, v) -> "\"" ^ k ^ "\":" ^ to_string v) m) ^ "}"

let mem key = function Obj m -> List.assoc_opt key m | _ -> None
let num_opt = function Some (Num f) -> Some f | _ -> None
let bool_opt = function Some (Bool b) -> Some b | _ -> None
let str_opt = function Some (Str s) -> Some s | _ -> None
let arr = function Some (Arr l) -> l | _ -> []
