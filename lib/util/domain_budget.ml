let capacity () = Domain.recommended_domain_count () - 1
let count = Atomic.make 0
let claimed () = Atomic.get count
let claim n = ignore (Atomic.fetch_and_add count n)
let release n = ignore (Atomic.fetch_and_add count (-n))

let try_claim n =
  let cap = capacity () in
  let rec go () =
    let c = Atomic.get count in
    if c + n > cap then false else if Atomic.compare_and_set count c (c + n) then true else go ()
  in
  go ()
