type t = { b : int; d : int }

let make ~b ~d =
  if b < 2 || b > 36 then invalid_arg "Params.make: base must be in [2, 36]";
  if d < 1 || d > 64 then invalid_arg "Params.make: digit count must be in [1, 64]";
  { b; d }

let pp ppf t = Fmt.pf ppf "(b=%d, d=%d)" t.b t.d

let paper_example_fig1 = make ~b:4 ~d:5
let paper_example_fig2 = make ~b:8 ~d:5
let paper_sim_d8 = make ~b:16 ~d:8
let paper_sim_d40 = make ~b:16 ~d:40
