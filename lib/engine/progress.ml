type mode = Quiet | Log | Tty

let mode_names = "quiet|log|tty"

let mode_of_string = function
  | "quiet" -> Ok Quiet
  | "log" -> Ok Log
  | "tty" -> Ok Tty
  | s -> Error (Printf.sprintf "unknown progress mode %S (expected %s)" s mode_names)

type t = {
  mode : mode;
  m : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable line_open : bool;  (* a \r status line is on screen *)
}

let create mode = { mode; m = Mutex.create (); hits = 0; misses = 0; line_open = false }

let job_done t ~label ~hit ~group ~elapsed_s =
  Mutex.lock t.m;
  if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
  (match t.mode with
  | Quiet -> ()
  | Log ->
    Printf.eprintf "[engine] %-50s %6.2fs %s\n%!" label elapsed_s
      (if hit then "cache"
       else if group > 1 then Printf.sprintf "computed in a group of %d" group
       else "computed")
  | Tty ->
    t.line_open <- true;
    Printf.eprintf "\r[engine] %d runs resolved (%d cached, %d computed)%!"
      (t.hits + t.misses) t.hits t.misses);
  Mutex.unlock t.m

let hits t =
  Mutex.lock t.m;
  let h = t.hits in
  Mutex.unlock t.m;
  h

let misses t =
  Mutex.lock t.m;
  let m' = t.misses in
  Mutex.unlock t.m;
  m'

let finish t =
  Mutex.lock t.m;
  if t.line_open then begin
    prerr_newline ();
    t.line_open <- false
  end;
  Mutex.unlock t.m
