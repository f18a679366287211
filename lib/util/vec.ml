type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let check t i name =
  if i < 0 || i >= t.len then invalid_arg (Printf.sprintf "Vec.%s: index %d out of bounds (len %d)" name i t.len)

let get t i = check t i "get"; t.data.(i)
let set t i x = check t i "set"; t.data.(i) <- x

let grow t =
  let cap = Array.length t.data in
  let ncap = if cap = 0 then 8 else cap * 2 in
  (* The spare slots beyond [len] are never exposed, so the unsafe
     placeholder cannot escape. *)
  let ndata = Array.make ncap (Obj.magic 0) in
  Array.blit t.data 0 ndata 0 t.len;
  t.data <- ndata

let push t x =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then None
  else begin
    t.len <- t.len - 1;
    let x = t.data.(t.len) in
    t.data.(t.len) <- Obj.magic 0;
    Some x
  end

let swap_remove t i =
  check t i "swap_remove";
  let x = t.data.(i) in
  t.len <- t.len - 1;
  t.data.(i) <- t.data.(t.len);
  t.data.(t.len) <- Obj.magic 0;
  x

let clear t =
  Array.fill t.data 0 t.len (Obj.magic 0);
  t.len <- 0

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Vec.truncate";
  Array.fill t.data n (t.len - n) (Obj.magic 0);
  t.len <- n

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let exists p t =
  let rec go i = i < t.len && (p t.data.(i) || go (i + 1)) in
  go 0

let to_array t = Array.sub t.data 0 t.len

let of_array a = { data = Array.copy a; len = Array.length a }

let filter_in_place p t =
  let keep = ref 0 in
  for i = 0 to t.len - 1 do
    let x = t.data.(i) in
    if p x then begin
      t.data.(!keep) <- x;
      incr keep
    end
  done;
  truncate t !keep
