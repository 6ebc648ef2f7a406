type t = { mutable n : int; mutable mu : float; mutable m2 : float }

let create () = { n = 0; mu = 0.; m2 = 0. }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mu in
  t.mu <- t.mu +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mu))

let count t = t.n

let mean t = if t.n = 0 then 0. else t.mu

let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)

let variance_population t = if t.n = 0 then 0. else t.m2 /. float_of_int t.n

let merge a b =
  if a.n = 0 then { n = b.n; mu = b.mu; m2 = b.m2 }
  else if b.n = 0 then { n = a.n; mu = a.mu; m2 = a.m2 }
  else begin
    let n = a.n + b.n in
    let delta = b.mu -. a.mu in
    let nf = float_of_int n in
    let mu = a.mu +. (delta *. float_of_int b.n /. nf) in
    let m2 =
      a.m2 +. b.m2 +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. nf)
    in
    { n; mu; m2 }
  end

module Cov = struct
  type t = {
    mutable n : int;
    mutable mux : float;
    mutable muy : float;
    mutable cxy : float;
    mutable m2x : float;
    mutable m2y : float;
  }

  let create () = { n = 0; mux = 0.; muy = 0.; cxy = 0.; m2x = 0.; m2y = 0. }

  let add t x y =
    t.n <- t.n + 1;
    let nf = float_of_int t.n in
    let dx = x -. t.mux in
    let dy = y -. t.muy in
    t.mux <- t.mux +. (dx /. nf);
    t.muy <- t.muy +. (dy /. nf);
    t.cxy <- t.cxy +. (dx *. (y -. t.muy));
    t.m2x <- t.m2x +. (dx *. (x -. t.mux));
    t.m2y <- t.m2y +. (dy *. (y -. t.muy))

  let covariance t = if t.n < 2 then 0. else t.cxy /. float_of_int (t.n - 1)

  let correlation t =
    if t.n < 2 then 0.
    else begin
      let denom = sqrt (t.m2x *. t.m2y) in
      if denom = 0. then 0. else t.cxy /. denom
    end
end
