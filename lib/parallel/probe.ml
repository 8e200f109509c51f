(* The global telemetry hook (see the interface).  One word of state: the
   currently installed sink, or nothing.  The disabled path — a ref read
   and a match — is what keeps always-compiled probes affordable in the
   engines' round loops. *)

type sink = {
  now : unit -> float;
  enter : string -> unit;
  leave : string -> unit;
  span : tid:int -> string -> float -> float -> unit;
  charge : rounds:int -> activations:int -> writes:int -> peak_bits:int -> unit;
}

let current : sink option ref = ref None
let install s = current := Some s
let uninstall () = current := None
let get () = !current

let enter p name = match p with None -> () | Some s -> s.enter name
let leave p name = match p with None -> () | Some s -> s.leave name

let charge ?(rounds = 0) ?(activations = 0) ?(writes = 0) ?(peak_bits = 0) () =
  match !current with None -> () | Some s -> s.charge ~rounds ~activations ~writes ~peak_bits

let with_ name f =
  match !current with
  | None -> f ()
  | Some s ->
      s.enter name;
      (match f () with
      | v ->
          s.leave name;
          v
      | exception e ->
          s.leave name;
          raise e)
