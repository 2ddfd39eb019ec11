let now_ns () = Monotonic_clock.now ()

let ns_to_s ns = Int64.to_float ns /. 1e9

let now_s () = ns_to_s (now_ns ())
